package sim

import (
	"fmt"
	"runtime"
	"sync"

	"omicon/internal/metrics"
	"omicon/internal/partition"
	"omicon/internal/rng"
)

// The sharded engine executes the same model as Engine with a fixed worker
// pool instead of n free-running goroutines: the process set is split into
// contiguous index shards (partition.Blocks, the same ±1-balanced blocks
// Algorithm 1 uses), each owned by one worker. Protocols still need a
// goroutine each — Env.Exchange is a blocking call holding a stack — but
// the workers step them cooperatively, one live process per shard at a
// time, so at most `shards` goroutines are runnable at any instant and the
// per-round scheduling cost is spread over the pool instead of being
// serialized on one engine goroutine.
//
// DETERMINISM CONTRACT: every observable output — Result, metrics,
// transcripts, traces, torture ring dumps — is byte-identical to the
// goroutine-per-process engine at any shard count. The contract holds
// because every merge runs in shard-index order (which, shards being
// contiguous ascending pid ranges, is ascending pid order — exactly the
// order the default engine's ascending-pid collection produces):
//
//   - per-shard outboxes concatenate in shard order, before the fallback
//     canonical sort when one runs, so drop indices and delivery order
//     cannot shift;
//   - per-shard done-event lists fold into the Result in shard order at
//     the barrier, so decisions, termination rounds and queued trace
//     events land as if pid-ordered;
//   - per-shard randomness partials (rng.Sum over each shard's sources)
//     fold into the shared counters only at traced barriers, the same
//     points the default engine calls rng.SyncTotals;
//   - trace events from process goroutines queue in per-pid slots and
//     flush pid-major at barriers, the observer's existing discipline.
//
// The one documented divergence: when several processes return protocol
// errors in the same round, Result.protocolErr keeps the smallest pid's
// error here, while the default engine keeps whichever done event arrived
// first (scheduler-dependent there, so no test may rely on it).
//
// The communication phase is chunked across the pool too: View
// construction and the drop-buffer clear run per shard, and inbox carving
// runs as a parallel two-pass counting pass (per-shard count arrays merged
// into absolute cursors in shard order), keeping per-receiver inboxes
// carved From-sorted from one reused backing arena — the same zero
// steady-state allocation and the same aliasing contract as the default
// path (delivered slices are valid until the receiver's next Exchange).

// procYield is one process's phase contribution: either its outbox for the
// round or its final decision.
type procYield struct {
	out      []Message
	done     bool
	decision int
	err      error
}

// doneEvent records a termination observed by a shard worker, folded into
// the Result at the next barrier in pid order.
type doneEvent struct {
	pid      int
	decision int
	err      error
}

// shardTask names the parallel phases a worker can be asked to run.
type shardTask uint8

const (
	taskStep  shardTask = iota // resume processes, collect outboxes/dones
	taskView                   // fill View ranges, clear drop chunks, fold rng
	taskCount                  // count surviving messages per receiver (chunk)
	taskFill                   // place survivors, publish own pids' inboxes
)

// shardState is one worker's scratch, touched by that worker during phases
// and by the coordinator between them.
type shardState struct {
	lo, hi   int // contiguous pid range [lo, hi)
	outbox   []Message
	sentBits int64
	sorted   bool // every pid's targets ascend: the block needs no sort
	dones    []doneEvent
	err      error // first validation error, in pid order
	counts   []int // per-receiver counts, then absolute fill cursors
	// randomness partials folded at traced barriers
	randCalls, randBits int64
}

type shardedEngine struct {
	cfg      Config
	proto    Protocol
	counters *metrics.Counters
	sources  []*rng.Source
	res      *Result

	legality  *Legality
	obs       *observer // nil when untraced
	fast      bool      // NoFaults + untraced: skip sort/View/legality
	round     int
	lastRound int

	shards   []shardState
	tasks    []chan shardTask
	phase    sync.WaitGroup
	workerWG sync.WaitGroup
	procWG   sync.WaitGroup

	resume  []chan []Message // coordinator/worker -> process: next inbox
	yield   []chan procYield // process -> worker: outbox or done
	quit    chan struct{}
	alive   []bool
	started []bool

	snapshots []any

	// Hot-path buffers mirroring Engine's (docs/PERFORMANCE.md): the inbox
	// backing comes from a reused arena (delivered slices are valid only
	// until the receiver's next Exchange, see Engine), so a steady-state
	// round allocates nothing. chunks holds the outbox split for the
	// chunk-parallel phases; inStarts (n+1 entries) the receiver-major
	// carve offsets.
	outbox     []Message
	orderer    Orderer[Message]
	droppedBuf []bool
	dropped    []bool // this round's drop mask; nil when nothing dropped
	chunks     []int
	inStarts   []int
	arena      []Message
	backing    []Message
	inboxes    [][]Message
	view       View
}

// runSharded executes one configuration on the sharded engine. cfg has
// been normalized by Run.
func runSharded(cfg Config, proto Protocol) (*Result, error) {
	n := cfg.N
	k := cfg.Shards
	if k < 0 {
		k = runtime.GOMAXPROCS(0)
	}
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	blocks := partition.Blocks(n, k)
	k = blocks.NumGroups()

	s := &shardedEngine{
		cfg:       cfg,
		proto:     proto,
		counters:  &metrics.Counters{},
		sources:   make([]*rng.Source, n),
		res:       newResult(cfg),
		legality:  NewLegality(n, cfg.T),
		shards:    make([]shardState, k),
		tasks:     make([]chan shardTask, k),
		resume:    make([]chan []Message, n),
		yield:     make([]chan procYield, n),
		quit:      make(chan struct{}),
		alive:     make([]bool, n),
		started:   make([]bool, n),
		snapshots: make([]any, n),
		chunks:    make([]int, k+1),
		inStarts:  make([]int, n+1),
		inboxes:   make([][]Message, n),
	}
	if _, benign := cfg.Adversary.(NoFaults); benign && !cfg.Trace.Enabled() {
		s.fast = true
	}
	srcBacking := rng.NewSources(cfg.Seed, n)
	for p := 0; p < n; p++ {
		s.sources[p] = &srcBacking[p]
		s.resume[p] = make(chan []Message, 1)
		s.yield[p] = make(chan procYield, 1)
		s.alive[p] = true
	}
	for w := 0; w < k; w++ {
		g := blocks.Group(w)
		s.shards[w] = shardState{lo: g[0], hi: g[0] + len(g), counts: make([]int, n)}
		s.tasks[w] = make(chan shardTask)
	}
	if cfg.Trace.Enabled() {
		s.obs = newObserver(cfg.Trace, s.counters, s.sources)
		cfg.Trace.ExecStart(fmt.Sprintf("sim n=%d t=%d adversary=%s", cfg.N, cfg.T, cfg.Adversary.Name()), cfg.Seed)
	}
	for w := 0; w < k; w++ {
		s.workerWG.Add(1)
		go s.worker(w)
	}

	err := s.loop()
	if err != nil {
		close(s.quit) // unwind process goroutines parked at the barrier
	}
	s.procWG.Wait()
	for w := range s.tasks {
		close(s.tasks[w])
	}
	s.workerWG.Wait()
	rng.SyncTotals(s.counters, s.sources...) // quiesced: fold final totals
	s.res.Corrupted = s.legality.Mask()
	s.res.Metrics = s.counters.Snapshot()
	if s.obs != nil {
		s.obs.finish(s.lastRound, s.res.Metrics)
		s.res.Series = s.obs.series
	}
	if err != nil {
		return s.res, err
	}
	if s.res.protocolErr != nil {
		return s.res, s.res.protocolErr
	}
	return s.res, nil
}

// loop is the coordinator: it drives the step phases and runs one
// communication phase per barrier, mirroring Engine.loop exactly.
func (s *shardedEngine) loop() error {
	active := s.cfg.N
	defer func() { s.lastRound = s.round }()

	for active > 0 {
		s.runPhase(taskStep)
		// Fold terminations in shard order (= pid order): decisions,
		// termination rounds and queued decide events land exactly as the
		// default engine records them.
		for w := range s.shards {
			for _, de := range s.shards[w].dones {
				active--
				s.res.Decisions[de.pid] = de.decision
				s.res.TerminatedAt[de.pid] = s.round
				if de.err != nil && s.res.protocolErr == nil {
					s.res.protocolErr = fmt.Errorf("sim: process %d: %w", de.pid, de.err)
				}
				if s.obs != nil {
					s.obs.decide(s.round, de.pid, de.decision)
				}
			}
		}
		if active == 0 {
			return nil
		}
		s.round++
		if s.round > s.cfg.MaxRounds {
			return fmt.Errorf("%w (%d)", ErrMaxRounds, s.cfg.MaxRounds)
		}
		s.counters.AddRounds(1)
		if err := s.communicate(); err != nil {
			return err
		}
	}
	return nil
}

// communicate runs one communication phase: merge shard outboxes, account
// sent bits, consult the adversary, enforce legality, carve inboxes. The
// statement order matches Engine.communicate so aborted executions account
// (and trace) identically.
func (s *shardedEngine) communicate() error {
	// Size the merged outbox once to the round's exact total, as
	// Engine.communicate does, instead of growing it by append.
	total := 0
	for w := range s.shards {
		total += len(s.shards[w].outbox)
	}
	if cap(s.outbox) < total {
		s.outbox = make([]Message, 0, total)
	}
	out := s.outbox[:0]
	var bits int64
	sorted := true
	for w := range s.shards {
		st := &s.shards[w]
		if st.err != nil {
			// Validation failures surface in pid order: shards are checked
			// ascending and each worker recorded its first offender.
			return st.err
		}
		out = append(out, st.outbox...)
		bits += st.sentBits
		sorted = sorted && st.sorted
	}
	s.outbox = out
	s.counters.AddMessages(int64(len(out)), bits)

	if s.fast {
		// Shard outboxes concatenate sender-grouped ascending, so each
		// receiver's inbox carves out From-sorted — the default fast path's
		// order — with no canonical sort needed.
		s.carve(nil)
		return nil
	}

	if !sorted { // canonical by construction otherwise, as in Engine.communicate
		s.orderer.Sort(out, s.cfg.N)
	}

	s.setChunks(len(out))
	if cap(s.droppedBuf) < len(out) {
		s.droppedBuf = make([]bool, len(out))
	}
	s.dropped = s.droppedBuf[:len(out)]
	s.ensureView()
	s.view.Round = s.round
	s.view.Outbox = out
	s.runPhase(taskView)

	action := s.cfg.Adversary.Step(&s.view)
	ndrop, err := s.legality.checkIntoCleared(s.round, out, action, s.dropped)
	if err != nil {
		return err
	}
	if s.obs != nil {
		// Barrier: fold the per-shard randomness partials (computed during
		// taskView; every source has been quiescent since) so the shared
		// counters are exact for the snapshot.
		var calls, rbits int64
		for w := range s.shards {
			calls += s.shards[w].randCalls
			rbits += s.shards[w].randBits
		}
		s.counters.SetRandom(calls, rbits)
		s.obs.corruptions(s.round, action.Corrupt)
		s.obs.roundEnd(s.round, out, int64(ndrop), s.alive)
	}
	if ndrop == 0 {
		s.carve(nil)
	} else {
		s.carve(s.dropped)
	}
	return nil
}

// carve partitions the surviving outbox into per-receiver inboxes with a
// chunk-parallel two-pass counting carve: workers count survivors per
// receiver over outbox chunks, the coordinator turns the per-(shard,
// receiver) counts into absolute cursors in shard order, and workers place
// survivors and publish their own pids' inbox slices. The backing comes
// from a reused arena — safe because the arena is only rewritten at the
// next barrier, after every live process has submitted its next outbox, so
// each delivered slice stays intact until its receiver's next Exchange;
// layout and per-receiver order are identical to Engine.deliverAll.
func (s *shardedEngine) carve(dropped []bool) {
	s.dropped = dropped
	s.setChunks(len(s.outbox))
	s.runPhase(taskCount)

	n := s.cfg.N
	off := 0
	for p := 0; p < n; p++ {
		s.inStarts[p] = off
		for w := range s.shards {
			c := s.shards[w].counts[p]
			s.shards[w].counts[p] = off
			off += c
		}
	}
	s.inStarts[n] = off
	if off > 0 {
		if cap(s.arena) < off {
			s.arena = make([]Message, max(off, 2*cap(s.arena)))
		}
		s.backing = s.arena[:off]
	} else {
		s.backing = nil
	}
	s.runPhase(taskFill)
}

// ensureView allocates the reused View backing on the first adversarial or
// traced round, mirroring Engine.makeView's lazy allocation.
func (s *shardedEngine) ensureView() {
	v := &s.view
	if v.Terminated != nil {
		return
	}
	n := s.cfg.N
	v.N = n
	v.T = s.cfg.T
	v.Inputs = s.res.Inputs
	v.Corrupted = make([]bool, n)
	v.Terminated = make([]bool, n)
	v.Decisions = make([]int, n)
	v.Snapshots = make([]any, n)
	v.RandomCalls = make([]int64, n)
	v.RandomBits = make([]int64, n)
}

// setChunks splits the current outbox into one contiguous chunk per shard
// for the chunk-parallel phases (drop-clear, count, fill).
func (s *shardedEngine) setChunks(m int) {
	k := len(s.shards)
	for w := 0; w <= k; w++ {
		s.chunks[w] = w * m / k
	}
}

// runPhase broadcasts one task to every worker and waits for all of them —
// the only synchronization between coordinator and pool, a handful of
// channel operations per phase instead of two per process per round.
func (s *shardedEngine) runPhase(t shardTask) {
	s.phase.Add(len(s.shards))
	for w := range s.tasks {
		s.tasks[w] <- t
	}
	s.phase.Wait()
}

func (s *shardedEngine) worker(w int) {
	defer s.workerWG.Done()
	for t := range s.tasks[w] {
		switch t {
		case taskStep:
			s.stepShard(w)
		case taskView:
			s.viewShard(w)
		case taskCount:
			s.countShard(w)
		case taskFill:
			s.fillShard(w)
		}
		s.phase.Done()
	}
}

// stepShard advances every live process of shard w by one local
// computation phase, strictly in pid order: deliver the carved inbox (or
// spawn the goroutine on first step), then block for the process's yield.
// At most one process per shard is ever runnable, and its outbox is
// validated and accumulated into the shard scratch exactly as the default
// engine's ascending-pid collection would.
func (s *shardedEngine) stepShard(w int) {
	st := &s.shards[w]
	st.outbox = st.outbox[:0]
	st.sentBits = 0
	st.sorted = true
	st.dones = st.dones[:0]
	st.err = nil
	n := s.cfg.N
	for p := st.lo; p < st.hi; p++ {
		if !s.alive[p] {
			continue
		}
		if !s.started[p] {
			s.started[p] = true
			s.procWG.Add(1)
			go s.runProc(p)
		} else {
			s.resume[p] <- s.inboxes[p]
		}
		y := <-s.yield[p]
		if y.done {
			s.alive[p] = false
			st.dones = append(st.dones, doneEvent{pid: p, decision: y.decision, err: y.err})
			continue
		}
		if st.err != nil {
			continue // round is aborting; keep stepping so the barrier completes
		}
		sub := checkOutbox(p, n, y.out)
		if sub.err != nil {
			st.err = sub.err
			continue
		}
		st.outbox = append(st.outbox, sub.msgs...)
		st.sentBits += sub.bits
		st.sorted = st.sorted && !sub.outOfOrder
	}
}

// viewShard fills shard w's pid range of the reused View, clears its chunk
// of the drop buffer, and (traced) folds its randomness partial. Reads of
// snapshots and sources are safe: every process handed its yield to a
// worker before the phase barrier that scheduled this task.
func (s *shardedEngine) viewShard(w int) {
	st := &s.shards[w]
	v := &s.view
	lo, hi := st.lo, st.hi
	copy(v.Corrupted[lo:hi], s.legality.corrupted[lo:hi])
	copy(v.Decisions[lo:hi], s.res.Decisions[lo:hi])
	copy(v.Snapshots[lo:hi], s.snapshots[lo:hi])
	for p := lo; p < hi; p++ {
		v.Terminated[p] = s.res.TerminatedAt[p] >= 0
		v.RandomCalls[p] = s.sources[p].Calls()
		v.RandomBits[p] = s.sources[p].BitsDrawn()
	}
	d := s.dropped[s.chunks[w]:s.chunks[w+1]]
	for i := range d {
		d[i] = false
	}
	if s.obs != nil {
		st.randCalls, st.randBits = rng.Sum(s.sources[lo:hi]...)
	}
}

// countShard counts this shard's outbox chunk's surviving messages per
// receiver into the shard's count array.
func (s *shardedEngine) countShard(w int) {
	st := &s.shards[w]
	counts := st.counts
	for i := range counts {
		counts[i] = 0
	}
	dropped := s.dropped
	for idx := s.chunks[w]; idx < s.chunks[w+1]; idx++ {
		if dropped != nil && dropped[idx] {
			continue
		}
		if m := s.outbox[idx]; s.alive[m.To] {
			counts[m.To]++
		}
	}
}

// fillShard places this chunk's survivors at the shard's absolute cursors
// (disjoint across shards by construction) and publishes the inbox slices
// of the shard's own pids, capacity-clamped exactly like the default path.
func (s *shardedEngine) fillShard(w int) {
	st := &s.shards[w]
	counts := st.counts
	dropped := s.dropped
	backing := s.backing
	for idx := s.chunks[w]; idx < s.chunks[w+1]; idx++ {
		if dropped != nil && dropped[idx] {
			continue
		}
		if m := s.outbox[idx]; s.alive[m.To] {
			backing[counts[m.To]] = m
			counts[m.To]++
		}
	}
	for p := st.lo; p < st.hi; p++ {
		if a, b := s.inStarts[p], s.inStarts[p+1]; s.alive[p] && b > a {
			s.inboxes[p] = backing[a:b:b]
		} else {
			s.inboxes[p] = nil
		}
	}
}

func (s *shardedEngine) runProc(pid int) {
	defer s.procWG.Done()
	defer func() {
		// INVARIANT: only the errAborted sentinel is recovered; a protocol
		// bug's panic must surface, not be swallowed.
		if r := recover(); r != nil && r != any(errAborted) {
			panic(r)
		}
	}()
	env := &shardEnv{id: pid, engine: s, rand: s.sources[pid]}
	decision, err := s.proto(env, s.cfg.Inputs[pid])
	select {
	case s.yield[pid] <- procYield{done: true, decision: decision, err: err}:
	case <-s.quit:
	}
}

// exchange hands the process's outbox to its shard worker and parks until
// the next step phase delivers an inbox (or the engine aborts).
func (s *shardedEngine) exchange(pid int, out []Message) []Message {
	select {
	case s.yield[pid] <- procYield{out: out}:
	case <-s.quit:
		panic(errAborted)
	}
	select {
	case in := <-s.resume[pid]:
		return in
	case <-s.quit:
		panic(errAborted)
	}
}

// shardEnv is the sharded engine's Env, the exact analogue of procEnv.
type shardEnv struct {
	id     int
	engine *shardedEngine
	rand   *rng.Source
	round  int
}

var _ Env = (*shardEnv)(nil)

func (e *shardEnv) ID() int           { return e.id }
func (e *shardEnv) N() int            { return e.engine.cfg.N }
func (e *shardEnv) T() int            { return e.engine.cfg.T }
func (e *shardEnv) Round() int        { return e.round }
func (e *shardEnv) Rand() *rng.Source { return e.rand }

func (e *shardEnv) Exchange(out []Message) []Message {
	in := e.engine.exchange(e.id, out)
	e.round++
	return in
}

func (e *shardEnv) SetSnapshot(snap any) {
	e.engine.snapshots[e.id] = snap
}

func (e *shardEnv) Span(name string) func() {
	if e.engine.obs == nil {
		return func() {}
	}
	return e.engine.obs.openSpan(e.id, e.round, name)
}
