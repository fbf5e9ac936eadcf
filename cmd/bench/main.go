// Command bench measures the simulation engine's hot-path cost and the
// parallel trial runner's throughput scaling, writing a machine-readable
// baseline (default BENCH_engine.json). The committed baseline is the
// trajectory seed cmd/benchcheck compares fresh runs against in CI.
//
// The schema, versioned by the top-level "schema" string, is:
//
//	{
//	  "schema": "omicon/bench-engine/v3",
//	  "gomaxprocs": 8,
//	  "benchmarks": [           // see internal/sim benchmarks
//	    {"name": "EngineRoundThroughput/n=64", "mode": "default",
//	     "nsPerOp": .., "bytesPerOp": .., "allocsPerOp": ..,
//	     "gcPauseNsPerOp": .., "peakRSSBytes": ..},
//	    ...
//	  ],
//	  "parallel": {             // partrial runner, workers 1 vs GOMAXPROCS
//	    "trials": 64, "workers": 8,
//	    "trialsPerSecSerial": .., "trialsPerSecParallel": .., "speedup": ..
//	  }
//	}
//
// Every benchmark runs in both execution modes ("default" = goroutine per
// process, "sharded" = the worker-pool engine, see docs/PERFORMANCE.md).
//
// v3 extends v2 in three ways:
//
//   - two GC-visibility columns on every row: gcPauseNsPerOp (the
//     stop-the-world pause attributable to one op, the cost allocation
//     churn exacts even off the critical path) and peakRSSBytes (the
//     process's resident high-water mark after the cell, from
//     /proc/self/status VmHWM — monotonic across cells, so later rows
//     inherit earlier peaks);
//   - the sparse rows (EngineRoundSparse, ⌊√n⌉ targets per sender) report
//     STEADY-STATE marginal round cost via paired runs (2x rounds minus
//     1x rounds of the identical config), cancelling the O(n) engine
//     setup that whole-run figures amortize — the effect that made v2's
//     n=4096 row read thousands of allocs/op out of a handful of
//     benchmark iterations;
//   - sparse sizes extend to n=65536 behind -sparse-max (committed
//     baselines stop at 4096 so CI can afford to re-measure every row).
//
// ns/op figures are machine-dependent; benchcheck therefore compares with a
// generous tolerance and CI only fails on multiple-x regressions.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"omicon/internal/partrial"
	"omicon/internal/sim"
	"omicon/internal/wire"
)

const benchSchema = "omicon/bench-engine/v3"

type benchFile struct {
	Schema     string `json:"schema"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// Partial marks a baseline cut short by SIGINT/SIGTERM: the
	// benchmarks measured before the interrupt are kept, the rest are
	// absent. benchcheck refuses partial baselines.
	Partial    bool          `json:"partial,omitempty"`
	Benchmarks []benchResult `json:"benchmarks"`
	Parallel   parallelBench `json:"parallel"`
}

type benchResult struct {
	Name           string  `json:"name"`
	Mode           string  `json:"mode"`
	NsPerOp        float64 `json:"nsPerOp"`
	BytesPerOp     int64   `json:"bytesPerOp"`
	AllocsPerOp    int64   `json:"allocsPerOp"`
	GCPauseNsPerOp float64 `json:"gcPauseNsPerOp"`
	PeakRSSBytes   int64   `json:"peakRSSBytes"`
}

// modes are the two execution paths of the engine; both must produce
// identical results (the conformance suite pins that), so the baseline
// tracks only their cost.
var modes = []struct {
	label  string
	shards int
}{
	{"default", 0},
	{"sharded", sim.ShardsAuto},
}

type parallelBench struct {
	Trials               int     `json:"trials"`
	Workers              int     `json:"workers"`
	TrialsPerSecSerial   float64 `json:"trialsPerSecSerial"`
	TrialsPerSecParallel float64 `json:"trialsPerSecParallel"`
	Speedup              float64 `json:"speedup"`
}

type bitPayload struct{ b int }

func (p bitPayload) AppendWire(buf []byte) []byte {
	return wire.AppendUvarint(buf, uint64(p.b))
}

// passThrough forces the engine's full adversarial path (View + legality)
// while taking no actions, mirroring the in-package benchmarks.
type passThrough struct{}

func (passThrough) Name() string              { return "pass-through" }
func (passThrough) Step(*sim.View) sim.Action { return sim.Action{} }

// roundsProto is the benchmark workload: all-to-all broadcast for `rounds`
// rounds. When rebuild is set every round rebuilds its outbox (the shape
// real protocols have); otherwise the outbox is built once and resent, so
// only engine overhead remains.
func roundsProto(n, rounds int, rebuild bool) sim.Protocol {
	return func(env sim.Env, input int) (int, error) {
		targets := make([]int, 0, n-1)
		for i := 0; i < n; i++ {
			if i != env.ID() {
				targets = append(targets, i)
			}
		}
		out := sim.Broadcast(env.ID(), bitPayload{1}, targets)
		for r := 0; r < rounds; r++ {
			if rebuild {
				out = sim.Broadcast(env.ID(), bitPayload{1}, targets)
			}
			env.Exchange(out)
		}
		return 0, nil
	}
}

// sparseProto is the large-n workload: each process sends to sqrt(n)
// evenly spread targets per round, the message density at which a
// Theorem-1 execution actually runs (all-to-all at n=4096 would be 16.7M
// messages per round — a memory benchmark, not an engine one).
func sparseProto(n, rounds int) sim.Protocol {
	deg := 1
	for (deg+1)*(deg+1) <= n {
		deg++
	}
	return func(env sim.Env, input int) (int, error) {
		targets := make([]int, deg)
		for j := range targets {
			targets[j] = (env.ID() + 1 + j*deg) % n
		}
		out := sim.Broadcast(env.ID(), bitPayload{1}, targets)
		for r := 0; r < rounds; r++ {
			env.Exchange(out)
		}
		return 0, nil
	}
}

func runProto(b *testing.B, n, shards int, adv sim.Adversary, proto func(rounds int) sim.Protocol) {
	rounds := b.N
	_, err := sim.Run(sim.Config{
		N: n, T: 0, Inputs: make([]int, n), Seed: 1,
		MaxRounds: rounds + 8, Adversary: adv,
		Shards: shards,
	}, proto(rounds))
	if err != nil {
		b.Fatal(err)
	}
}

// readPeakRSS returns the process's peak resident set size in bytes from
// /proc/self/status (VmHWM). On platforms without procfs it falls back to
// the runtime's Sys figure — OS-reserved memory, which still moves when a
// regression inflates the heap.
func readPeakRSS(ms *runtime.MemStats) int64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			rest, ok := strings.CutPrefix(line, "VmHWM:")
			if !ok {
				continue
			}
			if f := strings.Fields(rest); len(f) >= 1 {
				if kb, err := strconv.ParseInt(f[0], 10, 64); err == nil {
					return kb * 1024
				}
			}
		}
	}
	return int64(ms.Sys)
}

func measure(name, mode string, fn func(b *testing.B)) benchResult {
	var gcPausePerOp float64
	var peakRSS int64
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		pause0 := ms.PauseTotalNs
		fn(b)
		runtime.ReadMemStats(&ms)
		// Re-assigned on every calibration pass; the final (largest
		// b.N) invocation's figures win, matching the ns/op below.
		gcPausePerOp = float64(ms.PauseTotalNs-pause0) / float64(b.N)
		peakRSS = readPeakRSS(&ms)
	})
	return benchResult{
		Name:           name,
		Mode:           mode,
		NsPerOp:        float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:     r.AllocedBytesPerOp(),
		AllocsPerOp:    r.AllocsPerOp(),
		GCPauseNsPerOp: gcPausePerOp,
		PeakRSSBytes:   peakRSS,
	}
}

// runCost is one whole execution's measured cost, for paired differencing.
type runCost struct {
	wallNs  float64
	bytes   int64
	allocs  int64
	pauseNs int64
}

func sparseRunCost(n, shards, rounds int) (runCost, error) {
	// Manual collection between legs (effective even while the caller
	// holds SetGCPercent(-1)): every leg starts from the same collected
	// heap and freshly cleared runtime pools, so pool-refill allocations
	// are symmetric across the pair and cancel in the difference, and
	// garbage never accumulates across legs to inflate the process-wide
	// RSS high-water mark.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0, b0, p0 := ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs
	start := time.Now()
	_, err := sim.Run(sim.Config{
		N: n, T: 0, Inputs: make([]int, n), Seed: 1,
		MaxRounds: rounds + 8, Shards: shards,
	}, sparseProto(n, rounds))
	wall := time.Since(start)
	if err != nil {
		return runCost{}, err
	}
	runtime.ReadMemStats(&ms)
	return runCost{
		wallNs:  float64(wall.Nanoseconds()),
		bytes:   int64(ms.TotalAlloc - b0),
		allocs:  int64(ms.Mallocs - m0),
		pauseNs: int64(ms.PauseTotalNs - p0),
	}, nil
}

// measureSparseSteady reports the steady-state marginal cost of one sparse
// round: paired runs of the identical configuration at 2x and 1x rounds
// difference away the O(n) setup (goroutine spawn, channels, rng sources)
// that whole-run figures amortize over however many iterations the
// benchmark framework happened to pick — the artifact behind the v2
// baseline's n=4096 "allocation cliff" (thousands of allocs/op from ~10
// iterations). Each metric takes its minimum over a few pairs
// independently: the engine's true marginal cost lower-bounds every pair,
// while scheduler and GC noise only add.
//
// The pacer- and time-triggered GC is disabled across the paired runs
// (restored after), with a manual collection between legs instead (see
// sparseRunCost): every GC cycle clears the runtime's sudog caches, so a
// collection landing inside one leg of a pair — the sysmon 2-minute
// forced GC being the usual culprit, since the rounds themselves allocate
// nothing to trip the pacer — makes the n goroutines parked in select
// re-allocate their park tokens: hundreds of heap allocations that are
// runtime pool churn, not engine cost, and that would otherwise show up
// as a phantom allocs/round figure. With collections pinned to leg
// boundaries the columns measure exactly what the engine allocates; a
// reintroduced per-round allocation storm still fails the gates, via
// allocs/op itself and the ballooning peakRSSBytes an uncollected storm
// produces.
func measureSparseSteady(name, mode string, n, shards int) (benchResult, error) {
	base := 30
	if n >= 4096 {
		base = 10
	}
	res := benchResult{Name: name, Mode: mode,
		NsPerOp: math.Inf(1), BytesPerOp: math.MaxInt64, AllocsPerOp: math.MaxInt64,
		GCPauseNsPerOp: math.Inf(1)}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Unmeasured warmup: the runtime's own pools (notably the sudogs
	// backing n goroutines parked in select) ratchet toward a high-water
	// mark the first time a (n, mode) shape runs; ramping them outside
	// the measurement window keeps that one-off out of the marginal.
	if _, err := sparseRunCost(n, shards, 2*base); err != nil {
		return res, err
	}
	for pair := 0; pair < 3; pair++ {
		short, err := sparseRunCost(n, shards, base)
		if err != nil {
			return res, err
		}
		long, err := sparseRunCost(n, shards, 2*base)
		if err != nil {
			return res, err
		}
		res.NsPerOp = math.Min(res.NsPerOp, (long.wallNs-short.wallNs)/float64(base))
		res.BytesPerOp = min(res.BytesPerOp, max(0, (long.bytes-short.bytes)/int64(base)))
		res.AllocsPerOp = min(res.AllocsPerOp, max(0, (long.allocs-short.allocs)/int64(base)))
		res.GCPauseNsPerOp = math.Min(res.GCPauseNsPerOp,
			math.Max(0, float64(long.pauseNs-short.pauseNs)/float64(base)))
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.PeakRSSBytes = readPeakRSS(&ms)
	return res, nil
}

// engineBenchmarks measures every (workload, mode, size) cell, checking
// ctx between cells: an interrupt keeps the cells measured so far and
// surfaces ctx.Err() so the caller can persist a partial baseline.
func engineBenchmarks(ctx context.Context, sizes, sparseSizes []int) ([]benchResult, error) {
	type def struct {
		name    string
		adv     sim.Adversary
		rebuild bool
	}
	defs := []def{
		{"EngineRoundThroughput", nil, true},
		{"EngineRoundAdversarial", passThrough{}, true},
		{"EngineRoundOverhead/fast", nil, false},
		{"EngineRoundOverhead/full", passThrough{}, false},
	}
	var out []benchResult
	for _, m := range modes {
		for _, d := range defs {
			for _, n := range sizes {
				if err := ctx.Err(); err != nil {
					return out, err
				}
				d, n, m := d, n, m
				out = append(out, measure(fmt.Sprintf("%s/n=%d", d.name, n), m.label, func(b *testing.B) {
					runProto(b, n, m.shards, d.adv, func(rounds int) sim.Protocol {
						return roundsProto(n, rounds, d.rebuild)
					})
				}))
			}
		}
		for _, n := range sparseSizes {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			r, err := measureSparseSteady(fmt.Sprintf("EngineRoundSparse/n=%d", n), m.label, n, m.shards)
			if err != nil {
				return out, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// measureParallel times `trials` independent consensus executions through
// the partrial runner at the given worker count and returns trials/sec.
func measureParallel(trials, workers, n, rounds int) (float64, error) {
	start := time.Now()
	err := partrial.Do(trials, workers,
		func(i int) (*sim.Result, error) {
			return sim.Run(sim.Config{
				N: n, T: 0, Inputs: make([]int, n), Seed: uint64(i + 1),
				MaxRounds: rounds + 8, Adversary: passThrough{},
			}, roundsProto(n, rounds, true))
		},
		func(i int, res *sim.Result) error { return nil })
	if err != nil {
		return 0, err
	}
	return float64(trials) / time.Since(start).Seconds(), nil
}

func run() error {
	var (
		out       = flag.String("out", "BENCH_engine.json", "write the baseline to this file (empty = stdout only)")
		trials    = flag.Int("trials", 64, "trials for the parallel-runner measurement")
		n         = flag.Int("n", 64, "system size for the parallel-runner measurement")
		rounds    = flag.Int("rounds", 40, "rounds per trial for the parallel-runner measurement")
		sparseMax = flag.Int("sparse-max", 4096, "largest sparse workload size to measure (1024..65536; committed baselines use 4096 so CI re-measurement stays affordable)")
	)
	flag.Parse()

	var sparseSizes []int
	for _, s := range []int{1024, 4096, 16384, 65536} {
		if s <= *sparseMax {
			sparseSizes = append(sparseSizes, s)
		}
	}

	// SIGINT/SIGTERM stop between benchmark cells; the cells measured so
	// far are written as a baseline marked "partial" and the exit code is
	// 130.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	f := benchFile{Schema: benchSchema, GoMaxProcs: runtime.GOMAXPROCS(0)}

	fmt.Fprintln(os.Stderr, "bench: measuring engine round benchmarks (both execution modes)...")
	benches, benchErr := engineBenchmarks(ctx, []int{16, 64, 256}, sparseSizes)
	f.Benchmarks = benches
	if benchErr != nil && !errors.Is(benchErr, context.Canceled) {
		return benchErr
	}
	for _, b := range f.Benchmarks {
		fmt.Fprintf(os.Stderr, "  %-36s %-8s %12.0f ns/op %10d B/op %6d allocs/op %10.0f gcPauseNs/op %5d MiB peakRSS\n",
			b.Name, b.Mode, b.NsPerOp, b.BytesPerOp, b.AllocsPerOp, b.GCPauseNsPerOp, b.PeakRSSBytes>>20)
	}

	if benchErr == nil && ctx.Err() == nil {
		fmt.Fprintf(os.Stderr, "bench: measuring parallel runner (%d trials, n=%d, %d rounds)...\n",
			*trials, *n, *rounds)
		serial, err := measureParallel(*trials, 1, *n, *rounds)
		if err != nil {
			return err
		}
		parallel, err := measureParallel(*trials, f.GoMaxProcs, *n, *rounds)
		if err != nil {
			return err
		}
		f.Parallel = parallelBench{
			Trials: *trials, Workers: f.GoMaxProcs,
			TrialsPerSecSerial:   serial,
			TrialsPerSecParallel: parallel,
			Speedup:              parallel / serial,
		}
		fmt.Fprintf(os.Stderr, "  workers=1: %.1f trials/sec  workers=%d: %.1f trials/sec  speedup %.2fx\n",
			serial, f.Parallel.Workers, parallel, f.Parallel.Speedup)
	}
	f.Partial = ctx.Err() != nil

	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "" {
		if _, err := os.Stdout.Write(data); err != nil {
			return err
		}
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bench: wrote %s\n", *out)
	}
	if f.Partial {
		fmt.Fprintf(os.Stderr, "bench: interrupted after %d of the benchmark cells; baseline marked partial\n", len(f.Benchmarks))
		return context.Canceled
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		if errors.Is(err, context.Canceled) {
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
