// Command perfbench is the repository benchmark. It runs one named workload
// for a fixed time in a fresh process, checks the output of every trial it
// runs, and prints each metric by name with its unit, ending with one JSON
// line. With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// alternates untraced and traced units and prints the per-layer metrics,
// timed from outside the program through the interfaces it accepts.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload thm1-sparse-adv --seed 1 --seconds 20 --trace 0
//
// --workload all runs every workload, each in a fresh process. See
// README.md for the workloads and the layer map.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed the workload's executions derive from")
	seconds := fs.Int("seconds", 30, "measurement time per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: perfbench --workload <name|all> --seed <n> --seconds <n> --trace <0|1>")
		return 2
	}
	if *name == "all" {
		return runAll([]string{"--seed", strconv.FormatUint(*seed, 10), "--seconds", strconv.Itoa(*seconds), "--trace", strconv.Itoa(*trace)}, stdout, stderr)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	cfg := runConfig{seed: *seed, budget: time.Duration(*seconds) * time.Second, minUnits: 3, minPairs: 2}
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%d trace=%d\n", w.name(), *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "# %s\n", w.why())
	fmt.Fprintf(stdout, "# go=%s GOMAXPROCS=%d nproc=%d commit=%s\n", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit())
	var rep *report
	if *trace == 1 {
		rep, err = measureLayers(w, cfg)
	} else {
		rep, err = measureEndToEnd(w, cfg)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.checkFinite()
	rep.print(stdout)
	if !rep.correct() {
		for _, p := range rep.problems {
			fmt.Fprintln(stderr, "perfbench: FAIL:", p)
		}
		return 1
	}
	return 0
}

// commit names the source the benchmark was built from, as run.sh found it.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// runAll runs every workload in a fresh process with the given flags.
func runAll(flags []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, append([]string{"--workload", w.name()}, flags...)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: workload %s: %v\n", w.name(), err)
			code = 1
		}
	}
	return code
}

type runConfig struct {
	seed   uint64
	budget time.Duration
	// minUnits and minPairs are the fewest untraced units, and
	// untraced+traced pairs, a run makes whatever the budget.
	minUnits, minPairs int
}

// report is one run's result. extra metrics are printed in the table but
// not in the result line.
type report struct {
	defs      []metricDef
	extra     []metricDef
	values    map[string]summary
	attempted int
	failed    int
	problems  []string
}

func (r *report) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// checkFinite records a problem for any value JSON cannot carry.
func (r *report) checkFinite() {
	for _, d := range r.defs {
		if v := r.values[d.name].median; math.IsNaN(v) || math.IsInf(v, 0) {
			r.problems = append(r.problems, fmt.Sprintf("metric %s is %v", d.name, v))
			r.values[d.name] = summary{}
		}
	}
}

// guard folds one unit into the report: failures, and the determinism
// check that every unit of the run repeated the first unit's counts.
func (r *report) guard(out unitOut, first *unitOut) {
	r.attempted += out.trials
	r.failed += out.failed
	if out.problem != "" {
		r.problems = append(r.problems, out.problem)
	}
	if first.trials == 0 {
		*first = out
	} else if out.counts != first.counts {
		r.problems = append(r.problems, fmt.Sprintf("determinism: unit counts %q differ from the first unit's %q", out.counts, first.counts))
	}
}

// measureEndToEnd is the untraced run: repeat the unit until the budget is
// spent, and report medians. Set-up is repeated in a batch before the
// first unit and in a shorter batch before every unit, so its samples
// spread over the run like the units' do. Each set-up is timed on its own:
// timing back-to-back batches and dividing folds in the garbage collections
// the set-ups trigger, which made the campaign's sub-microsecond median
// spread several times more between runs.
func measureEndToEnd(w workload, cfg runConfig) (*report, error) {
	var setups []float64
	var r runner
	setupFor := func(spend time.Duration) error {
		var spent time.Duration
		for reps := 0; reps == 0 || (spent < spend && reps < 10000); reps++ {
			s := time.Now()
			rr, err := w.setup(cfg.seed)
			if err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			d := time.Since(s)
			spent += d
			setups = append(setups, d.Seconds())
			if r == nil {
				r = rr
			}
		}
		return nil
	}
	if err := setupFor(250 * time.Millisecond); err != nil {
		return nil, err
	}

	rep := &report{defs: endToEnd, values: map[string]summary{}}
	var first unitOut
	var wall, cpu, alloc, rate []float64
	start := time.Now()
	for last := time.Duration(0); len(wall) < cfg.minUnits || time.Since(start)+last <= cfg.budget; {
		if err := setupFor(50 * time.Millisecond); err != nil {
			return nil, err
		}
		var out unitOut
		var err error
		m := timed(func() { out, err = r.unit() })
		if err != nil {
			return nil, err
		}
		rep.guard(out, &first)
		last = time.Duration(m.wall * float64(time.Second))
		wall = append(wall, m.wall)
		cpu = append(cpu, m.cpu)
		alloc = append(alloc, m.allocMB)
		rate = append(rate, float64(out.work)/m.wall)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.values["setup_s"] = summarize(setups)
	rep.values["wall_s"] = summarize(wall)
	rep.values["cpu_s"] = summarize(cpu)
	rep.values["alloc_mb"] = summarize(alloc)
	rep.values["peak_rss_mb"] = summarize([]float64{rss})
	rd := w.rate()
	rep.extra = []metricDef{rd}
	rep.values[rd.name] = summarize(rate)
	return rep, nil
}

// measureLayers is the traced run: pairs of one untraced and one traced
// unit until the budget is spent. Per-layer values are medians over the
// traced units; the untraced units give the overhead's baseline.
func measureLayers(w workload, cfg runConfig) (*report, error) {
	r, err := w.setup(cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defs := perLayer()
	rep := &report{defs: defs, values: map[string]summary{}}
	var first unitOut
	samples := map[string][]float64{}
	var plain, traced []float64
	start := time.Now()
	for last := time.Duration(0); len(traced) < cfg.minPairs || time.Since(start)+last <= cfg.budget; {
		pairStart := time.Now()
		var out unitOut
		m := timed(func() { out, err = r.unit() })
		if err != nil {
			return nil, err
		}
		rep.guard(out, &first)
		plain = append(plain, m.wall)

		var tu tracedUnit
		lv := map[string]float64{}
		m = timed(func() {
			probe := startProbe()
			out, tu, err = r.traced()
			probe.finish(lv)
		})
		if err != nil {
			return nil, err
		}
		rep.guard(out, &first)
		layers, lerr := tu.layers(m.wall)
		if lerr != nil {
			return nil, fmt.Errorf("traced unit: %w", lerr)
		}
		for k, v := range layers {
			lv[k] = v
		}
		lv["bench.cpu_s.traced"] = m.cpu
		traced = append(traced, m.wall)
		for k, v := range lv {
			samples[k] = append(samples[k], v)
		}
		last = time.Since(pairStart)
	}
	known := map[string]bool{}
	for _, d := range defs {
		known[d.name] = true
		rep.values[d.name] = summarize(samples[d.name])
		if len(samples[d.name]) == 0 {
			rep.values[d.name] = summary{n: len(traced)}
		}
	}
	for k := range samples {
		if !known[k] {
			return nil, fmt.Errorf("layer metric %q is not in the catalog", k)
		}
	}
	u, t := summarize(plain), summarize(traced)
	rep.values["bench.wall_s.untraced"] = u
	rep.values["bench.wall_s.traced"] = t
	rep.values["bench.trace_overhead_frac"] = summary{median: t.median/u.median - 1, p25: t.median/u.median - 1, p75: t.median/u.median - 1, n: len(traced)}
	return rep, nil
}

// print writes the human-readable table, then the result line.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "%-34s %14s %14s %14s %5s  %s\n", "metric", "median", "p25", "p75", "n", "unit")
	for _, d := range append(r.defs[:len(r.defs):len(r.defs)], r.extra...) {
		s := r.values[d.name]
		fmt.Fprintf(w, "%-34s %14.6g %14.6g %14.6g %5d  %s\n", d.name, s.median, s.p25, s.p75, s.n, d.unit)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-34s %14.6g  (failed %d of %d attempted)  frac\n", "failed_frac", frac, r.failed, r.attempted)

	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, r.correct(), r.attempted, r.failed)
	for i, d := range r.defs {
		if i > 0 {
			b.WriteString(", ")
		}
		v := strconv.FormatFloat(r.values[d.name].median, 'g', -1, 64)
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, d.name, v, d.unit)
	}
	b.WriteString("}}")
	fmt.Fprintln(w, b.String())
}
