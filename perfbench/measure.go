package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// summary describes a set of samples: the median and the quartiles as
// Python's statistics.quantiles(values, n=4) computes them (its default
// "exclusive" method), so the figures printed here match what a reader
// recomputes from the raw values.
type summary struct {
	median, p25, p75 float64
	n                int
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return summary{}
	case 1:
		return summary{median: s[0], p25: s[0], p75: s[0], n: 1}
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return summary{median: q(2), p25: q(1), p75: q(3), n: len(s)}
}

// tail returns the highest of a fixed ladder of percentiles that still has
// at least ten samples above it, with its value (nearest rank). Below 20
// samples no percentile qualifies and the median is returned.
func tail(xs []float64) (pct, value float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 50, 0
	}
	pct = 50
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if (1-p/100)*float64(len(s)) >= 10 {
			pct = p
			break
		}
	}
	i := int(math.Ceil(pct/100*float64(len(s)))) - 1
	return pct, s[max(i, 0)]
}

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	return 0, fmt.Errorf("peak rss: no VmHWM line in /proc/self/status")
}

// measured is one timed unit of work: wall and CPU seconds and bytes
// allocated while it ran.
type measured struct {
	wall, cpu, allocMB float64
}

// timed runs f after a full collection, so every unit starts from the same
// heap state, and measures it.
func timed(f func()) measured {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	f()
	wall := time.Since(t0).Seconds()
	c1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	return measured{wall: wall, cpu: c1 - c0, allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6}
}

const gcCPUMetric = "/cpu/classes/gc/total:cpu-seconds"

// runtimeProbe records the Go runtime's share of a traced unit: collections,
// pause time, GC CPU and the goroutine peak (sampled every millisecond).
type runtimeProbe struct {
	m0    runtime.MemStats
	gc0   float64
	cpu0  float64
	peak  int64 // written by the sampler only, read after it stops
	stop  chan struct{}
	done  sync.WaitGroup
	gcCPU []rtmetrics.Sample
}

func startProbe() *runtimeProbe {
	p := &runtimeProbe{stop: make(chan struct{}), gcCPU: []rtmetrics.Sample{{Name: gcCPUMetric}}}
	runtime.ReadMemStats(&p.m0)
	rtmetrics.Read(p.gcCPU)
	p.gc0 = p.gcCPU[0].Value.Float64()
	p.cpu0 = cpuSeconds()
	p.peak = int64(runtime.NumGoroutine())
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				p.peak = max(p.peak, int64(runtime.NumGoroutine()))
			}
		}
	}()
	return p
}

// finish stops the sampler and writes the runtime.* layer metrics.
func (p *runtimeProbe) finish(lv map[string]float64) {
	close(p.stop)
	p.done.Wait()
	cpu := cpuSeconds() - p.cpu0
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	rtmetrics.Read(p.gcCPU)
	lv["runtime.gc_cycles"] = float64(m1.NumGC - p.m0.NumGC)
	lv["runtime.gc_pause_ms"] = float64(m1.PauseTotalNs-p.m0.PauseTotalNs) / 1e6
	if cpu > 0 {
		lv["runtime.gc_cpu_frac"] = (p.gcCPU[0].Value.Float64() - p.gc0) / cpu
	}
	lv["runtime.goroutines_peak"] = float64(p.peak)
}
