package main

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a run with tracing off prints, in order. The
// table also prints the workload's rate, which is its fixed unit of work
// over wall_s, and the failed fraction, which travels in the result line's
// attempted/failed fields: it is 0 on a correct run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// spanNames are the Env.Span regions the trial workloads' protocols open,
// with "unspanned" for computation outside any span. Index 0 must stay
// "unspanned": it is the attribution target when no span is open.
var spanNames = [...]string{"unspanned", "group-relay", "spreading", "decision-bcast", "fallback", "phase-king"}

// spanLayer maps a span to the metric prefix of the module that opens it.
func spanLayer(span string) (compute, msgs, bits string) {
	if span == "phase-king" {
		return "phaseking.compute_s", "phaseking.msgs_sent", "phaseking.bits_sent"
	}
	return "core.compute_s." + span, "core.msgs_sent." + span, "core.bits_sent." + span
}

// tortureProtocols are the campaign's default portfolio protocols, each
// timed separately.
var tortureProtocols = []string{"benor", "core", "dolevstrong", "earlystop", "multivalue", "paramomissions", "phaseking"}

// perLayer lists the metrics a traced run prints, in order. Every workload
// prints all of them; a layer a workload does not exercise reads 0 (the
// table in README.md says which layers each workload measures).
func perLayer() []metricDef {
	defs := []metricDef{
		{"sim.rounds", "count"},
		{"sim.msgs_delivered", "count"},
		{"sim.msgs_dropped", "count"},
		{"sim.engine_s", "s"},
		{"sim.wake_s", "s"},
		{"sim.round_us.p50", "us"},
		{"sim.round_us.ptail", "us"},
		{"sim.round_us.ptail_pct", "%"},
		{"adversary.step_s", "s"},
		{"adversary.steps", "count"},
		{"adversary.view_msgs", "count"},
		{"adversary.corruptions", "count"},
	}
	for _, s := range spanNames {
		c, m, b := spanLayer(s)
		defs = append(defs, metricDef{c, "s"}, metricDef{m, "count"}, metricDef{b, "bit"})
	}
	defs = append(defs,
		metricDef{"wire.bitlen_ns", "ns"},
		metricDef{"wire.bitlen_alloc_bytes", "B"},
		metricDef{"rng.random_bits", "count"},
		metricDef{"rng.random_calls", "count"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"runtime.gc_cpu_frac", "frac"},
		metricDef{"runtime.goroutines_peak", "count"},
		metricDef{"torture.exec_s", "s"},
	)
	for _, p := range tortureProtocols {
		defs = append(defs, metricDef{"torture.exec_s." + p, "s"})
	}
	return append(defs,
		metricDef{"torture.trial_ms.p50", "ms"},
		metricDef{"torture.trial_ms.ptail", "ms"},
		metricDef{"torture.trial_ms.ptail_pct", "%"},
		metricDef{"partrial.worker_util", "frac"},
		metricDef{"bench.wall_s.untraced", "s"},
		metricDef{"bench.wall_s.traced", "s"},
		metricDef{"bench.trace_overhead_frac", "frac"},
		metricDef{"bench.cpu_s.traced", "s"},
		metricDef{"bench.layer_sum_s", "s"},
		metricDef{"bench.layer_wall_frac", "frac"},
	)
}
