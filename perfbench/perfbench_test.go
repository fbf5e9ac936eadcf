package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"

	"omicon"
	"omicon/internal/sim"
)

// tiny returns small versions of the three workloads: n=64 trials and a
// one-lap campaign (one trial per protocol x adversary cell).
func tiny() []workload {
	return []workload{
		trialWorkload{id: "thm1-tiny", algo: omicon.OptimalOmissions, n: 64, t: 2, adversary: "split-vote"},
		trialWorkload{id: "king-tiny", algo: omicon.PhaseKing, n: 64, t: 15, adversary: "none"},
		campaignWorkload{id: "campaign-tiny", laps: 1, workers: 2, determinismEvery: 10},
	}
}

var once = runConfig{seed: 7, minUnits: 2, minPairs: 2}

// result is the JSON line every run ends with.
type result struct {
	Correct   *bool `json:"correct"`
	Attempted *int  `json:"attempted"`
	Failed    *int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// printed renders rep and checks every catalog metric appears in the table
// and in the result line, with its unit, and nothing else is in the result
// line. The report's extra metrics must appear in the table only.
func printed(t *testing.T, rep *report) (string, result) {
	t.Helper()
	var buf bytes.Buffer
	rep.print(&buf)
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	if res.Correct == nil || res.Attempted == nil || res.Failed == nil || *res.Attempted < 1 {
		t.Fatalf("result line lacks a field or attempted < 1: %s", lines[len(lines)-1])
	}
	if len(res.Metrics) != len(rep.defs) {
		t.Errorf("result has %d metrics, catalog %d", len(res.Metrics), len(rep.defs))
	}
	for i, d := range append(rep.defs[:len(rep.defs):len(rep.defs)], rep.extra...) {
		m, ok := res.Metrics[d.name]
		if i < len(rep.defs) && (!ok || m.Value == nil || m.Unit != d.unit) {
			t.Errorf("metric %s: got %+v, want unit %q", d.name, m, d.unit)
		}
		if i >= len(rep.defs) && ok {
			t.Errorf("table-only metric %s is in the result line", d.name)
		}
		found := false
		for _, l := range lines {
			f := strings.Fields(l)
			found = found || (len(f) > 0 && f[0] == d.name && f[len(f)-1] == d.unit)
		}
		if !found {
			t.Errorf("table has no %s row with unit %s", d.name, d.unit)
		}
	}
	if !strings.Contains(out, "\nfailed_frac ") {
		t.Errorf("table has no failed_frac row:\n%s", out)
	}
	return out, res
}

func TestTinyWorkloadsPrintEveryMetric(t *testing.T) {
	for _, w := range tiny() {
		t.Run(w.name(), func(t *testing.T) {
			rep, err := measureEndToEnd(w, once)
			if err != nil {
				t.Fatal(err)
			}
			out, res := printed(t, rep)
			if !*res.Correct || *res.Failed != 0 {
				t.Fatalf("end-to-end run failed: %v\n%s", rep.problems, out)
			}
			for _, d := range endToEnd {
				if res.Metrics[d.name].Value == nil || *res.Metrics[d.name].Value <= 0 {
					t.Errorf("end-to-end metric %s is not positive", d.name)
				}
			}
			if len(rep.extra) != 1 || rep.extra[0] != w.rate() || rep.values[w.rate().name].median <= 0 {
				t.Errorf("table lacks a positive %s row:\n%s", w.rate().name, out)
			}

			rep, err = measureLayers(w, once)
			if err != nil {
				t.Fatal(err)
			}
			out, res = printed(t, rep)
			if !*res.Correct {
				t.Fatalf("traced run failed: %v\n%s", rep.problems, out)
			}
			v := func(name string) float64 { return *res.Metrics[name].Value }
			if v("bench.wall_s.traced") <= 0 || v("bench.wall_s.untraced") <= 0 || v("runtime.goroutines_peak") < 1 {
				t.Errorf("traced run lacks its timings:\n%s", out)
			}
			switch w.name() {
			case "king-tiny":
				// The fault-free adversary is never wrapped, so the
				// engine keeps its NoFaults fast path.
				if v("adversary.steps") != 0 || v("phaseking.msgs_sent") == 0 || v("sim.engine_s") <= 0 {
					t.Errorf("king layers wrong:\n%s", out)
				}
			case "thm1-tiny":
				if v("adversary.steps") != v("sim.rounds") || v("core.msgs_sent.spreading") == 0 || v("wire.bitlen_ns") <= 0 {
					t.Errorf("thm1 layers wrong:\n%s", out)
				}
			case "campaign-tiny":
				if v("torture.exec_s") <= 0 || v("partrial.worker_util") <= 0 || v("torture.exec_s.core") <= 0 {
					t.Errorf("campaign layers wrong:\n%s", out)
				}
			}
		})
	}
}

// TestInjectedSabotageFails runs the campaign with torture's built-in
// honest-drop sabotage: the failure count must become positive and the run
// must not be reported correct.
func TestInjectedSabotageFails(t *testing.T) {
	w := campaignWorkload{id: "campaign-sabotaged", laps: 1, workers: 2, determinismEvery: 10, inject: "honest-drop"}
	rep, err := measureEndToEnd(w, runConfig{seed: 7, minUnits: 1})
	if err != nil {
		t.Fatal(err)
	}
	out, res := printed(t, rep)
	if *res.Correct || *res.Failed == 0 {
		t.Fatalf("sabotaged campaign reported correct:\n%s", out)
	}
	for _, l := range strings.Split(out, "\n") {
		if f := strings.Fields(l); len(f) > 1 && f[0] == "failed_frac" {
			if frac, err := strconv.ParseFloat(f[1], 64); err != nil || frac <= 0 {
				t.Errorf("failed_frac = %s, want > 0", f[1])
			}
		}
	}
}

func TestCheckTrialRejectsDisagreement(t *testing.T) {
	good := &sim.Result{Inputs: []int{0, 1, 1}, Decisions: []int{1, 1, 1}, Corrupted: []bool{false, false, false}}
	if err := checkTrial(good); err != nil {
		t.Fatalf("agreeing result rejected: %v", err)
	}
	for name, r := range map[string]*sim.Result{
		"disagreement":   {Inputs: []int{0, 1, 1}, Decisions: []int{0, 1, 1}, Corrupted: []bool{false, false, false}},
		"non-decision":   {Inputs: []int{0, 1, 1}, Decisions: []int{1, -1, 1}, Corrupted: []bool{false, false, false}},
		"invalid-value":  {Inputs: []int{1, 1, 1}, Decisions: []int{0, 0, 0}, Corrupted: []bool{false, false, false}},
		"no-input-holds": {Inputs: []int{0, 0, 1}, Decisions: []int{1, 1, 1}, Corrupted: []bool{false, false, true}},
	} {
		if err := checkTrial(r); err == nil {
			t.Errorf("%s: doctored result accepted", name)
		}
		if out := trialResult(r, nil); out.failed != 1 {
			t.Errorf("%s: trialResult counted %d failures", name, out.failed)
		}
	}
}

func TestDeterminismGuard(t *testing.T) {
	rep := &report{}
	var first unitOut
	rep.guard(unitOut{trials: 1, counts: "rounds=5"}, &first)
	rep.guard(unitOut{trials: 1, counts: "rounds=5"}, &first)
	if !rep.correct() {
		t.Fatalf("identical units flagged: %v", rep.problems)
	}
	rep.guard(unitOut{trials: 1, counts: "rounds=6"}, &first)
	if rep.correct() {
		t.Fatal("differing counts not flagged")
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want summary
	}{
		{[]float64{4, 1, 3, 2}, summary{median: 2.5, p25: 1.25, p75: 3.75, n: 4}},
		{[]float64{2, 1}, summary{median: 1.5, p25: 0.75, p75: 2.25, n: 2}},
		{[]float64{5}, summary{median: 5, p25: 5, p75: 5, n: 1}},
	} {
		if got := summarize(c.in); got != c.want {
			t.Errorf("summarize(%v) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric and workload names the
// program prints in step with BENCHMARK.json.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %v, BENCHMARK.json %v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer(), spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("program has %d workloads, BENCHMARK.json %d", len(workloads), len(spec.Workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name() {
			t.Errorf("workload %d: program %s, BENCHMARK.json %s", i, w.name(), spec.Workloads[i].Name)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "king-dense-clean", "--trace", "2"},
		{"--workload", "king-dense-clean", "--seconds", "0"},
		{"--workload", "king-dense-clean", "extra"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("run(%q) = %d, printed %q", args, code, out.String())
		}
	}
}
