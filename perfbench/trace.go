package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"omicon/internal/sim"
	"omicon/internal/wire"
)

// trialTracer times one trial from outside the program. It wraps the
// protocol function so every process runs against a tracedEnv, and
// optionally the adversary. All state a process touches during the run is
// its own procTrace; the tracer only reads across processes after the run.
type trialTracer struct {
	base  time.Time
	procs []*procTrace
	// done[p] is the number of rounds process p completed before its
	// protocol returned, -1 while it runs. It is stored before the engine
	// learns of the termination, so it is visible to every process that
	// returns from a later round's Exchange.
	done    []atomic.Int32
	anyDone atomic.Bool
	adv     *timedAdversary // nil on a fault-free trial
	// sampleEvery sets the wire layer's payload sample: the first message
	// of process p's outbox in round r is kept when (p+r) % sampleEvery
	// == 0, four processes a round on a diagonal that meets every process
	// and every round alike.
	sampleEvery int
}

// procTrace is one process's record: when its protocol started and
// returned, when it entered and left each round's Exchange and which span
// was open as it entered, and what it sent per span.
type procTrace struct {
	begin, end int64 // nanoseconds since trialTracer.base
	ended      bool
	endSpan    uint8
	enter, ret []int64
	span       []uint8 // index into spanNames, one per Exchange
	stack      []uint8 // open spans
	msgs, bits [len(spanNames)]int64
	delivered  int64
	// toDone counts messages this process sent to receivers that had
	// already terminated; the engine discards those silently.
	toDone     int64
	samples    []wire.Marshaler
	sampleBits int64
	badSpan    string
}

func newTrialTracer(n, maxRounds int) *trialTracer {
	t := &trialTracer{procs: make([]*procTrace, n), done: make([]atomic.Int32, n), sampleEvery: max(n/4, 1)}
	for p := range t.procs {
		t.procs[p] = &procTrace{
			enter: make([]int64, 0, maxRounds),
			ret:   make([]int64, 0, maxRounds),
			span:  make([]uint8, 0, maxRounds),
		}
		t.done[p].Store(-1)
	}
	t.base = time.Now()
	return t
}

func (t *trialTracer) now() int64 { return int64(time.Since(t.base)) }

// protocol wraps proto so the process runs against a tracedEnv.
func (t *trialTracer) protocol(proto sim.Protocol) sim.Protocol {
	return func(env sim.Env, input int) (int, error) {
		p := t.procs[env.ID()]
		p.begin = t.now()
		d, err := proto(&tracedEnv{Env: env, t: t, p: p}, input)
		p.end = t.now()
		p.endSpan = p.current()
		p.ended = true
		t.done[env.ID()].Store(int32(len(p.enter)))
		t.anyDone.Store(true)
		return d, err
	}
}

// tracedEnv forwards every call to the engine's Env and records times and
// counts around Exchange and Span. Under the Exchange aliasing contract it
// reads out and the returned inbox only before returning, and keeps no
// slice; it keeps a few payloads, which are immutable once sent.
type tracedEnv struct {
	sim.Env
	t *trialTracer
	p *procTrace
}

func (p *procTrace) current() uint8 {
	if len(p.stack) == 0 {
		return 0
	}
	return p.stack[len(p.stack)-1]
}

func (e *tracedEnv) Exchange(out []sim.Message) []sim.Message {
	p := e.p
	s := p.current()
	for _, m := range out {
		p.bits[s] += m.Bits()
	}
	p.msgs[s] += int64(len(out))
	round := len(p.enter) + 1
	if len(out) > 0 && (e.ID()+round)%e.t.sampleEvery == 0 {
		p.samples = append(p.samples, out[0].Payload)
		p.sampleBits += out[0].Bits()
	}
	p.span = append(p.span, s)
	p.enter = append(p.enter, e.t.now())
	in := e.Env.Exchange(out)
	p.ret = append(p.ret, e.t.now())
	p.delivered += int64(len(in))
	if e.t.anyDone.Load() {
		for _, m := range out {
			if d := e.t.done[m.To].Load(); d >= 0 && int(d) < round {
				p.toDone++
			}
		}
	}
	return in
}

func (e *tracedEnv) Span(name string) func() {
	p := e.p
	id := -1
	for i, s := range spanNames {
		if s == name {
			id = i
		}
	}
	if id < 0 {
		if p.badSpan == "" {
			p.badSpan = name
		}
		id = 0
	}
	depth := len(p.stack)
	p.stack = append(p.stack, uint8(id))
	closeInner := e.Env.Span(name)
	return func() {
		p.stack = p.stack[:depth]
		closeInner()
	}
}

// timedAdversary times Step and counts what the adversary saw and did.
type timedAdversary struct {
	inner       sim.Adversary
	stepNs      int64
	steps       int64
	viewMsgs    int64
	corruptions int64
	// drops counts distinct dropped messages whose receiver was still
	// running; drops to terminated receivers are counted as toDone.
	drops     int64
	corrupted []bool
	seen      []bool
}

func (a *timedAdversary) Name() string { return a.inner.Name() }

func (a *timedAdversary) Step(v *sim.View) sim.Action {
	t0 := time.Now()
	act := a.inner.Step(v)
	a.stepNs += int64(time.Since(t0))
	a.steps++
	a.viewMsgs += int64(len(v.Outbox))
	if a.corrupted == nil {
		a.corrupted = make([]bool, v.N)
	}
	for _, p := range act.Corrupt {
		if p >= 0 && p < v.N && !a.corrupted[p] {
			a.corrupted[p] = true
			a.corruptions++
		}
	}
	if len(a.seen) < len(v.Outbox) {
		a.seen = make([]bool, len(v.Outbox))
	}
	for _, i := range act.Drop {
		if i >= 0 && i < len(v.Outbox) && !a.seen[i] {
			a.seen[i] = true
			if !v.Terminated[v.Outbox[i].To] {
				a.drops++
			}
		}
	}
	for _, i := range act.Drop {
		if i >= 0 && i < len(v.Outbox) {
			a.seen[i] = false
		}
	}
	return act
}

// layers derives the per-layer metrics of a finished trial and reconciles
// them exactly with the engine's own counts in res.
//
// The run's wall time is cut into rounds. Round r's barrier opens when the
// last live process arrives — by entering Exchange, or by returning from
// its protocol — and closes when the first process returns from Exchange:
// that is the engine's serial step. The stretch from one barrier's release
// to the next barrier's last arrival is the round's computation; it is
// split among spans in proportion to the time each process spent
// computing, by the span it had open on arrival. Summing a process's own
// computing intervals instead would count time it sat descheduled, as
// 1024 goroutines share two cores.
func (t *trialTracer) layers(res *sim.Result) (map[string]float64, error) {
	lv := map[string]float64{}
	rounds := 0
	var msgs, bits [len(spanNames)]int64
	var delivered, toDone, sampleBits int64
	var samples []wire.Marshaler
	for _, p := range t.procs {
		if p.badSpan != "" {
			return nil, fmt.Errorf("span %q is not in the benchmark's layer map", p.badSpan)
		}
		rounds = max(rounds, len(p.enter))
		for s := range spanNames {
			msgs[s] += p.msgs[s]
			bits[s] += p.bits[s]
		}
		delivered += p.delivered
		toDone += p.toDone
		samples = append(samples, p.samples...)
		sampleBits += p.sampleBits
	}

	var engineNs, wakeNs int64
	var computeNs [len(spanNames)]float64
	var releases []int64
	release := int64(0) // the previous barrier's release; the run's start for round 1
	for r := 0; r <= rounds; r++ {
		var lastIn, lastOut, total int64
		firstOut := int64(-1)
		var weight [len(spanNames)]int64
		for _, p := range t.procs {
			prev := p.begin
			if r > 0 && len(p.ret) >= r {
				prev = p.ret[r-1]
			}
			switch {
			case len(p.ret) > r:
				lastIn = max(lastIn, p.enter[r])
				weight[p.span[r]] += p.enter[r] - prev
				total += p.enter[r] - prev
				if firstOut < 0 || p.ret[r] < firstOut {
					firstOut = p.ret[r]
				}
				lastOut = max(lastOut, p.ret[r])
			case p.ended && len(p.enter) == r:
				lastIn = max(lastIn, p.end)
				weight[p.endSpan] += p.end - prev
				total += p.end - prev
			}
		}
		window := float64(lastIn - release)
		if total == 0 {
			computeNs[0] += window
		} else {
			for s := range spanNames {
				computeNs[s] += window * float64(weight[s]) / float64(total)
			}
		}
		if r == rounds {
			break // the last stretch: processes returning, no barrier
		}
		if firstOut < 0 {
			return nil, fmt.Errorf("round %d: no process returned from Exchange", r+1)
		}
		engineNs += firstOut - lastIn
		wakeNs += lastOut - firstOut
		releases = append(releases, firstOut)
		release = firstOut
	}
	var roundUs []float64
	for i := 1; i < len(releases); i++ {
		roundUs = append(roundUs, float64(releases[i]-releases[i-1])/1e3)
	}
	lv["sim.rounds"] = float64(rounds)
	lv["sim.msgs_delivered"] = float64(delivered)
	lv["sim.engine_s"] = float64(engineNs) / 1e9
	lv["sim.wake_s"] = float64(wakeNs) / 1e9
	lv["sim.round_us.p50"] = summarize(roundUs).median
	lv["sim.round_us.ptail_pct"], lv["sim.round_us.ptail"] = tail(roundUs)

	dropped := toDone
	if a := t.adv; a != nil {
		dropped += a.drops
		lv["adversary.step_s"] = float64(a.stepNs) / 1e9
		lv["adversary.steps"] = float64(a.steps)
		lv["adversary.view_msgs"] = float64(a.viewMsgs)
		lv["adversary.corruptions"] = float64(a.corruptions)
	}
	lv["sim.msgs_dropped"] = float64(dropped)

	var msgSum, bitSum int64
	layerNs := float64(engineNs)
	for s, name := range spanNames {
		c, m, b := spanLayer(name)
		lv[c] = computeNs[s] / 1e9
		lv[m] = float64(msgs[s])
		lv[b] = float64(bits[s])
		msgSum += msgs[s]
		bitSum += bits[s]
		layerNs += computeNs[s]
	}
	lv["bench.layer_sum_s"] = layerNs / 1e9
	lv["rng.random_bits"] = float64(res.Metrics.RandomBits)
	lv["rng.random_calls"] = float64(res.Metrics.RandomCalls)

	// Exact reconciliation with the engine's counters.
	m := res.Metrics
	switch {
	case int64(rounds) != m.Rounds:
		return nil, fmt.Errorf("reconcile: %d traced rounds, engine counted %d", rounds, m.Rounds)
	case msgSum != m.Messages:
		return nil, fmt.Errorf("reconcile: spans sent %d messages, engine counted %d", msgSum, m.Messages)
	case bitSum != m.CommBits:
		return nil, fmt.Errorf("reconcile: spans sent %d bits, engine counted %d", bitSum, m.CommBits)
	case delivered+dropped != m.Messages:
		return nil, fmt.Errorf("reconcile: %d delivered + %d dropped != %d messages", delivered, dropped, m.Messages)
	case t.adv != nil && t.adv.steps != m.Rounds:
		return nil, fmt.Errorf("reconcile: adversary stepped %d times in %d rounds", t.adv.steps, m.Rounds)
	case t.adv != nil && t.adv.corruptions != int64(res.NumCorrupted()):
		return nil, fmt.Errorf("reconcile: adversary corrupted %d, result reports %d", t.adv.corruptions, res.NumCorrupted())
	}

	ns, allocB, err := timeBitLen(samples, sampleBits)
	if err != nil {
		return nil, err
	}
	lv["wire.bitlen_ns"] = ns
	lv["wire.bitlen_alloc_bytes"] = allocB
	return lv, nil
}

// timeBitLen calls wire.BitLen — the sizing call sim.Msg makes per
// payload — on the sampled payloads until at least 50 ms have passed, and
// returns the mean time and bytes allocated per call. The first pass checks
// the sizes against the bits the engine accounted for the same messages.
func timeBitLen(samples []wire.Marshaler, wantBits int64) (ns, allocBytes float64, err error) {
	if len(samples) == 0 {
		return 0, 0, fmt.Errorf("wire: no payloads sampled")
	}
	var got int64
	for _, s := range samples {
		got += wire.BitLen(s)
	}
	if got != wantBits {
		return 0, 0, fmt.Errorf("reconcile: wire.BitLen sized the sampled payloads at %d bits, messages carried %d", got, wantBits)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	calls := 0
	t0 := time.Now()
	for time.Since(t0) < 50*time.Millisecond {
		for _, s := range samples {
			wire.BitLen(s)
		}
		calls += len(samples)
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(elapsed.Nanoseconds()) / float64(calls), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(calls), nil
}
