package sim

import (
	"errors"
	"fmt"
	"sync"

	"omicon/internal/metrics"
	"omicon/internal/rng"
	"omicon/internal/trace"
)

// Protocol is the code run by every process: it receives its environment and
// input bit and returns its consensus decision. A protocol must either call
// Exchange or return; it must not block on anything else.
type Protocol func(env Env, input int) (decision int, err error)

// Config describes one execution.
type Config struct {
	// N is the number of processes; T the adversary's corruption budget.
	N, T int
	// Inputs holds the N input bits.
	Inputs []int
	// Seed makes the execution reproducible; process p's random source
	// is derived from (Seed, p) and the adversary may derive its own
	// unmetered stream from Seed.
	Seed uint64
	// Adversary is the strategy to run against; nil means NoFaults.
	Adversary Adversary
	// MaxRounds aborts runaway executions; 0 selects 60*N + 4096, far
	// above every protocol in this codebase at any tested scale.
	MaxRounds int
	// Trace receives structured per-round events (round boundaries with
	// cost deltas, span attribution, corruptions, decisions). A nil or
	// disabled tracer keeps the engine on its untraced hot path; when
	// enabled, the Result additionally carries the per-round Series.
	Trace *trace.Tracer
	// Shards selects the execution mode. 0 (the default) runs the
	// goroutine-per-process engine below. ShardsAuto (or any negative
	// value) runs the sharded engine with GOMAXPROCS workers; k >= 1 runs
	// it with k workers (clamped to N). The two modes are observably
	// identical — results, metrics, traces and transcripts are
	// byte-for-byte the same at any shard count (the conformance suites in
	// this package and internal/torture pin that contract); only wall-clock
	// time and scheduler pressure change. See docs/PERFORMANCE.md.
	Shards int
}

// ShardsAuto selects the sharded engine with GOMAXPROCS workers.
const ShardsAuto = -1

// WithShards returns a copy of the Config selecting the sharded engine
// with k workers; k <= 0 selects ShardsAuto.
func (c Config) WithShards(k int) Config {
	if k <= 0 {
		k = ShardsAuto
	}
	c.Shards = k
	return c
}

// Errors reported by the engine.
var (
	// ErrMaxRounds signals a runaway execution.
	ErrMaxRounds = errors.New("sim: execution exceeded MaxRounds")
	// ErrBudget signals that the adversary tried to corrupt more than t
	// processes.
	ErrBudget = errors.New("sim: adversary exceeded corruption budget")
	// ErrIllegalOmission signals a drop of a message between two
	// non-corrupted processes.
	ErrIllegalOmission = errors.New("sim: omission of a message between non-corrupted processes")
)

// errAborted is the sentinel used to unwind protocol goroutines when the
// engine aborts; it never escapes the package.
//
// PANIC AUDIT: the engine panics in exactly three places, none reachable
// from external input. exchange panics with this sentinel to unwind a
// protocol goroutine blocked at the barrier when the engine aborts, and
// runProcess recovers precisely that sentinel; any other panic crossing
// runProcess is a protocol bug and is re-raised as an internal invariant
// violation. All adversary- and configuration-level failures are returned
// as errors from Run.
var errAborted = errors.New("sim: execution aborted")

type event struct {
	pid      int
	done     bool
	sub      submission
	decision int
	err      error
}

// submission is one process's outbox for a round, validated and summed by
// checkOutbox before it reaches the barrier.
type submission struct {
	msgs []Message
	bits int64
	// outOfOrder reports that some message's To is below its predecessor's,
	// so the block is not already in canonical (From, To) order.
	outOfOrder bool
	// err is the first malformed message's error; msgs is nil when set.
	err error
}

// checkOutbox validates the outbox process pid submits in an n-process
// execution, sums its wire bits and records whether its targets ascend.
// Both engines run it off the serial barrier — the default engine on the
// sender's own goroutine, the sharded engine on the shard worker — and the
// barrier then returns the smallest offending pid's error: the error an
// ascending-pid scan of the merged outbox would have met first.
func checkOutbox(pid, n int, msgs []Message) submission {
	sub := submission{msgs: msgs}
	prev := 0
	for _, m := range msgs {
		if m.From != pid {
			return submission{err: fmt.Errorf("sim: process %d forged sender %d", pid, m.From)}
		}
		if m.To < 0 || m.To >= n {
			return submission{err: fmt.Errorf("sim: process %d sent to invalid target %d", pid, m.To)}
		}
		if m.To < prev {
			sub.outOfOrder = true
		}
		prev = m.To
		sub.bits += m.Bits()
	}
	return sub
}

// Engine executes one configuration. Engines are single-use.
type Engine struct {
	cfg      Config
	counters *metrics.Counters
	sources  []*rng.Source

	events  chan event
	deliver []chan []Message
	quit    chan struct{}

	snapshots []any
	legality  *Legality
	obs       *observer // nil when untraced
	lastRound int

	// fast short-circuits the communication phase when the adversary is
	// NoFaults and the run is untraced: no canonical sort, no View, no
	// legality bookkeeping — straight to delivery.
	fast bool

	// Hot-path buffers, reused across rounds (see docs/PERFORMANCE.md).
	// outbox, droppedBuf and the View backing slices are engine-owned and
	// overwritten every round; only the adversary observes them, and only
	// during Step (the View aliasing contract in adversary.go). The inbox
	// arena is reused too: delivered slices are valid only until the
	// receiving process's next Exchange call (the Env.Exchange contract),
	// which is safe because the arena is overwritten only at the next
	// barrier, after every active process has submitted its next outbox —
	// i.e. after every receiver has moved past the previous inbox. This is
	// what makes a steady-state round allocation-free.
	outbox     []Message
	orderer    Orderer[Message]
	droppedBuf []bool
	inCounts   []int
	inStarts   []int
	inboxArena []Message
	view       View // backing slices allocated lazily on first makeView
}

// syncRandom folds the per-source randomness totals into the shared
// counters. Sound only at barriers (and after the final wg.Wait), where
// every process is blocked in exchange or has sent its done event — the
// same happens-before edge makeView relies on to read the sources.
func (e *Engine) syncRandom() {
	rng.SyncTotals(e.counters, e.sources...)
}

// normalize validates cfg and applies the defaults both execution modes
// share, so the goroutine-per-process and sharded paths cannot drift on
// what a legal configuration is.
func (c Config) normalize() (Config, error) {
	if c.N <= 0 {
		return c, fmt.Errorf("sim: invalid N=%d", c.N)
	}
	if len(c.Inputs) != c.N {
		return c, fmt.Errorf("sim: got %d inputs for N=%d", len(c.Inputs), c.N)
	}
	if c.T < 0 || c.T >= c.N {
		return c, fmt.Errorf("sim: invalid T=%d for N=%d", c.T, c.N)
	}
	if c.Adversary == nil {
		c.Adversary = NoFaults{}
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 60*c.N + 4096
	}
	return c, nil
}

// newResult builds the pre-execution Result shell shared by both engines.
func newResult(cfg Config) *Result {
	res := &Result{
		Adversary:    cfg.Adversary.Name(),
		Inputs:       append([]int(nil), cfg.Inputs...),
		Decisions:    make([]int, cfg.N),
		TerminatedAt: make([]int, cfg.N),
	}
	for p := 0; p < cfg.N; p++ {
		res.Decisions[p] = -1
		res.TerminatedAt[p] = -1
	}
	return res
}

// Run executes proto under cfg and returns the outcome. The returned error
// reports engine- or protocol-level failures (illegal adversary actions,
// protocol bugs, runaway executions); consensus-property violations are
// checked on the Result, not here.
func Run(cfg Config, proto Protocol) (*Result, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if cfg.Shards != 0 {
		return runSharded(cfg, proto)
	}

	e := &Engine{
		cfg:       cfg,
		counters:  &metrics.Counters{},
		sources:   make([]*rng.Source, cfg.N),
		events:    make(chan event, cfg.N),
		deliver:   make([]chan []Message, cfg.N),
		quit:      make(chan struct{}),
		snapshots: make([]any, cfg.N),
		legality:  NewLegality(cfg.N, cfg.T),
		inCounts:  make([]int, cfg.N),
		inStarts:  make([]int, cfg.N),
	}
	if _, benign := cfg.Adversary.(NoFaults); benign && !cfg.Trace.Enabled() {
		e.fast = true
	}
	res := newResult(cfg)
	// One contiguous allocation for all n sources (the per-process setup
	// constant is what the large-n sparse benchmark amortizes); streams are
	// identical to rng.New(seed, p).
	srcBacking := rng.NewSources(cfg.Seed, cfg.N)
	for p := 0; p < cfg.N; p++ {
		e.sources[p] = &srcBacking[p]
		e.deliver[p] = make(chan []Message, 1)
	}
	if cfg.Trace.Enabled() {
		e.obs = newObserver(cfg.Trace, e.counters, e.sources)
		cfg.Trace.ExecStart(fmt.Sprintf("sim n=%d t=%d adversary=%s", cfg.N, cfg.T, cfg.Adversary.Name()), cfg.Seed)
	}

	var wg sync.WaitGroup
	for p := 0; p < cfg.N; p++ {
		wg.Add(1)
		go e.runProcess(&wg, p, proto)
	}

	err = e.loop(res)
	if err != nil {
		close(e.quit) // unwind blocked protocol goroutines
	}
	wg.Wait()
	e.syncRandom() // all processes have quiesced; fold in sharded totals
	res.Corrupted = e.legality.Mask()
	res.Metrics = e.counters.Snapshot()
	if e.obs != nil {
		e.obs.finish(e.lastRound, res.Metrics)
		res.Series = e.obs.series
	}
	if err != nil {
		return res, err
	}
	if res.protocolErr != nil {
		return res, res.protocolErr
	}
	return res, nil
}

func (e *Engine) runProcess(wg *sync.WaitGroup, pid int, proto Protocol) {
	defer wg.Done()
	defer func() {
		// INVARIANT: only the errAborted sentinel is recovered; a
		// protocol bug's panic must surface, not be swallowed.
		if r := recover(); r != nil && r != any(errAborted) {
			panic(r)
		}
	}()
	env := &procEnv{id: pid, engine: e, rand: e.sources[pid]}
	decision, err := proto(env, e.cfg.Inputs[pid])
	ev := event{pid: pid, done: true, decision: decision, err: err}
	select {
	case e.events <- ev:
	case <-e.quit:
	}
}

// loop is the engine's barrier scheduler. It returns on completion or on the
// first engine-level error.
func (e *Engine) loop(res *Result) error {
	n := e.cfg.N
	active := n
	submitted := make([]bool, n)
	outs := make([]submission, n)
	numSubmitted := 0
	round := 0
	defer func() { e.lastRound = round }()

	for active > 0 {
		ev := <-e.events
		if ev.done {
			active--
			res.Decisions[ev.pid] = ev.decision
			res.TerminatedAt[ev.pid] = round
			if ev.err != nil && res.protocolErr == nil {
				res.protocolErr = fmt.Errorf("sim: process %d: %w", ev.pid, ev.err)
			}
			if e.obs != nil {
				e.obs.decide(round, ev.pid, ev.decision)
			}
		} else {
			submitted[ev.pid] = true
			outs[ev.pid] = ev.sub
			numSubmitted++
		}
		if active == 0 || numSubmitted < active {
			continue
		}

		// Communication phase: all still-active processes are at the
		// barrier.
		round++
		if round > e.cfg.MaxRounds {
			return fmt.Errorf("%w (%d)", ErrMaxRounds, e.cfg.MaxRounds)
		}
		e.counters.AddRounds(1)
		if err := e.communicate(res, round, submitted, outs); err != nil {
			return err
		}
		for p := 0; p < n; p++ {
			if submitted[p] {
				submitted[p] = false
				outs[p] = submission{}
			}
		}
		numSubmitted = 0
	}
	return nil
}

// communicate runs one communication phase: account sent bits, consult the
// adversary, enforce legality, deliver survivors. Everything here —
// including the inbox arena delivered slices alias — runs on reused
// engine-owned buffers; a steady-state round allocates nothing.
func (e *Engine) communicate(res *Result, round int, submitted []bool, outs []submission) error {
	n := e.cfg.N
	// Size the outbox once to the round's exact total: growing it by
	// append re-copies the whole round at every 1.25x step.
	total := 0
	for p := 0; p < n; p++ {
		total += len(outs[p].msgs)
	}
	if cap(e.outbox) < total {
		e.outbox = make([]Message, 0, total)
	}
	outbox := e.outbox[:0]
	var sentBits int64
	sorted := true
	for p := 0; p < n; p++ {
		sub := &outs[p]
		if sub.err != nil {
			return sub.err
		}
		outbox = append(outbox, sub.msgs...)
		sentBits += sub.bits
		sorted = sorted && !sub.outOfOrder
	}
	e.outbox = outbox
	e.counters.AddMessages(int64(len(outbox)), sentBits)

	if e.fast {
		// NoFaults, untraced: nothing observes the canonical order, no
		// message can be dropped, and no View is ever read. The outbox is
		// already grouped by sender in ascending order, so each receiver's
		// inbox comes out From-sorted with ties in send order — exactly
		// the order the canonical path delivers.
		e.deliverAll(submitted, outbox, nil)
		return nil
	}

	// Canonical by construction: blocks concatenate in ascending From
	// order, so the stable (From, To) sort only reorders a block whose
	// targets do not ascend. Every protocol here sends in ascending To
	// order; the counting sort is the fallback.
	if !sorted {
		e.orderer.Sort(outbox, n)
	}

	view := e.makeView(res, round, outbox)
	action := e.cfg.Adversary.Step(view)

	if cap(e.droppedBuf) < len(outbox) {
		e.droppedBuf = make([]bool, len(outbox))
	}
	dropped := e.droppedBuf[:len(outbox)]
	ndrop, err := e.legality.CheckInto(round, outbox, action, dropped)
	if err != nil {
		return err
	}
	if e.obs != nil {
		e.syncRandom() // barrier: make the shared counters exact for the snapshot
		e.obs.corruptions(round, action.Corrupt)
		e.obs.roundEnd(round, outbox, int64(ndrop), submitted)
	}
	if ndrop == 0 {
		dropped = nil
	}
	e.deliverAll(submitted, outbox, dropped)
	return nil
}

// deliverAll partitions the surviving outbox into per-receiver inboxes and
// delivers them. The backing comes from the reused inbox arena: by the time
// the arena is overwritten (the next barrier) every receiver has submitted
// its next outbox, so no process can still be reading the previous round's
// inbox — the Env.Exchange validity window. With outbox in canonical
// (From, To) order — or sender-grouped ascending on the fast path — each
// receiver's subsequence is already sorted by From, so no per-receiver sort
// is needed. Each inbox is capacity-clamped so a protocol appending to it
// cannot clobber a neighbour's messages.
func (e *Engine) deliverAll(submitted []bool, outbox []Message, dropped []bool) {
	n := e.cfg.N
	counts := e.inCounts
	for p := 0; p < n; p++ {
		counts[p] = 0
	}
	total := 0
	for idx, m := range outbox {
		if dropped != nil && dropped[idx] {
			continue
		}
		if submitted[m.To] { // terminated receivers discard silently
			counts[m.To]++
			total++
		}
	}
	var backing []Message
	if total > 0 {
		if cap(e.inboxArena) < total {
			e.inboxArena = make([]Message, max(total, 2*cap(e.inboxArena)))
		}
		backing = e.inboxArena[:total]
		starts := e.inStarts
		off := 0
		for p := 0; p < n; p++ {
			starts[p] = off
			off += counts[p]
			counts[p] = starts[p] // reuse counts as the fill cursor
		}
		for idx, m := range outbox {
			if dropped != nil && dropped[idx] {
				continue
			}
			if submitted[m.To] {
				backing[counts[m.To]] = m
				counts[m.To]++
			}
		}
	}
	for p := 0; p < n; p++ {
		if !submitted[p] {
			continue
		}
		var in []Message
		if total > 0 && counts[p] > e.inStarts[p] {
			in = backing[e.inStarts[p]:counts[p]:counts[p]]
		}
		e.deliver[p] <- in
	}
}

// makeView refreshes the engine's reused View for this round's Step call.
// The backing slices are allocated once, on the first traced or adversarial
// round (the NoFaults fast path never gets here), and overwritten each
// round — the aliasing contract documented on View.
func (e *Engine) makeView(res *Result, round int, outbox []Message) *View {
	n := e.cfg.N
	v := &e.view
	if v.Terminated == nil {
		v.N = n
		v.T = e.cfg.T
		v.Inputs = res.Inputs
		v.Corrupted = make([]bool, n)
		v.Terminated = make([]bool, n)
		v.Decisions = make([]int, n)
		v.Snapshots = make([]any, n)
		v.RandomCalls = make([]int64, n)
		v.RandomBits = make([]int64, n)
	}
	v.Round = round
	v.Outbox = outbox
	copy(v.Corrupted, e.legality.corrupted)
	copy(v.Decisions, res.Decisions)
	copy(v.Snapshots, e.snapshots)
	for p := 0; p < n; p++ {
		v.Terminated[p] = res.TerminatedAt[p] >= 0
		v.RandomCalls[p] = e.sources[p].Calls()
		v.RandomBits[p] = e.sources[p].BitsDrawn()
	}
	return v
}

func (e *Engine) exchange(pid int, out []Message) []Message {
	// Validate on the sender's goroutine: senders run in parallel, the
	// barrier does not.
	sub := checkOutbox(pid, e.cfg.N, out)
	select {
	case e.events <- event{pid: pid, sub: sub}:
	case <-e.quit:
		panic(errAborted)
	}
	select {
	case in := <-e.deliver[pid]:
		return in
	case <-e.quit:
		panic(errAborted)
	}
}

func (e *Engine) setSnapshot(pid int, s any) {
	e.snapshots[pid] = s
}
