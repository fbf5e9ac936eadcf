package main

import (
	"context"
	"fmt"
	"regexp"
	"strconv"
	"sync"
	"time"

	"omicon"
	"omicon/internal/core"
	"omicon/internal/phaseking"
	"omicon/internal/sim"
	"omicon/internal/torture"
)

// workload is one named set of inputs the benchmark runs. setup prepares
// everything before the first timed unit; it is what setup_s times.
type workload interface {
	name() string
	why() string
	// rate names the throughput the end-to-end table prints beside the
	// metrics: unitOut.work per wall second.
	rate() metricDef
	setup(seed uint64) (runner, error)
}

// runner performs a workload's unit of work: one trial, or one campaign.
type runner interface {
	// unit runs one unit with nothing but the program's own code.
	unit() (unitOut, error)
	// traced runs the same unit through the benchmark's wrappers. Its
	// layers are derived after the unit's timing has stopped.
	traced() (unitOut, tracedUnit, error)
}

// tracedUnit turns a traced unit's records into per-layer metrics, given
// the unit's wall seconds.
type tracedUnit interface {
	layers(wall float64) (map[string]float64, error)
}

// unitOut is what a unit produced: trials attempted and failed, the work
// its workload's rate counts, and the execution's counts, which must repeat
// exactly in every unit of a run (the determinism guard).
type unitOut struct {
	trials, failed int
	work           int64
	problem        string // first failure, for the report
	counts         string
}

var workloads = []workload{
	trialWorkload{
		id:   "thm1-sparse-adv",
		doc:  "Algorithm 1 (Theorem 1), n=1024, t=34, half-ones inputs, split-vote adversary: sparse gossip, group relay and the full adversarial engine path",
		algo: omicon.OptimalOmissions, n: 1024, t: 34, adversary: "split-vote",
	},
	trialWorkload{
		id:   "king-dense-clean",
		doc:  "phase-king, n=1024, t=33, half-ones inputs, fault-free: dense all-to-all rounds on the engine's NoFaults fast path",
		algo: omicon.PhaseKing, n: 1024, t: 33, adversary: "none",
	},
	campaignWorkload{
		id:   "campaign-torture",
		doc:  "torture.Run over the default protocol x adversary portfolio (n <= 64), 2 workers, every 10th trial re-run for determinism",
		laps: 4, workers: 2, determinismEvery: 10,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name() == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// trialWorkload repeats one consensus trial, built through the public API.
type trialWorkload struct {
	id, doc   string
	algo      omicon.Algorithm
	n, t      int
	adversary string // an omicon.ParseAdversary name
}

func (w trialWorkload) name() string    { return w.id }
func (w trialWorkload) why() string     { return w.doc }
func (w trialWorkload) rate() metricDef { return metricDef{"msgs_per_s", "1/s"} }

type trialRunner struct {
	w      trialWorkload
	seed   uint64
	inst   *omicon.Instance
	inputs []int
	// proto and maxRounds drive the traced path, which has to call
	// sim.Run itself to wrap the protocol; set on first use.
	proto     sim.Protocol
	maxRounds int
}

func (w trialWorkload) setup(seed uint64) (runner, error) {
	inst, err := omicon.NewInstance(omicon.Config{N: w.n, T: w.t, Algorithm: w.algo})
	if err != nil {
		return nil, err
	}
	r := &trialRunner{w: w, seed: seed, inst: inst, inputs: omicon.MixedInputs(w.n, w.n/2)}
	if _, err := r.adversary(); err != nil {
		return nil, err
	}
	return r, nil
}

// adversary builds a fresh adversary: strategies keep state across rounds,
// so every trial needs its own.
func (r *trialRunner) adversary() (sim.Adversary, error) {
	return omicon.ParseAdversary(r.w.adversary, r.w.n, r.w.t, r.seed)
}

func (r *trialRunner) unit() (unitOut, error) {
	adv, err := r.adversary()
	if err != nil {
		return unitOut{}, err
	}
	res, err := r.inst.Run(r.inputs, r.seed, adv)
	return trialResult(res, err), nil
}

// trialResult checks one trial and records its counts.
func trialResult(res *sim.Result, err error) unitOut {
	out := unitOut{trials: 1}
	if res != nil {
		m := res.Metrics
		out.work = m.Messages
		out.counts = fmt.Sprintf("rounds=%d messages=%d bits=%d random_bits=%d random_calls=%d",
			m.Rounds, m.Messages, m.CommBits, m.RandomBits, m.RandomCalls)
	}
	if err == nil {
		err = checkTrial(res)
	}
	if err != nil {
		out.failed = 1
		out.problem = err.Error()
	}
	return out
}

// checkTrial verifies the consensus properties over non-faulty processes:
// every one decided (termination), all on the same value (agreement), and
// the value is a bit some non-faulty process started with (validity).
func checkTrial(res *sim.Result) error {
	if err := res.CheckConsensus(); err != nil {
		return err
	}
	d, err := res.Decision()
	if err != nil {
		return err
	}
	for p, in := range res.Inputs {
		if res.NonFaulty(p) && in == d {
			return nil
		}
	}
	return fmt.Errorf("decision %d is no non-faulty process's input", d)
}

var maxRoundsRE = regexp.MustCompile(`maxRounds=(\d+)`)

// tracedProtocol returns the protocol function the instance runs and the
// round bound it derives, for the traced path's own sim.Run call.
func (r *trialRunner) tracedProtocol() (sim.Protocol, int, error) {
	m := maxRoundsRE.FindStringSubmatch(r.inst.Describe())
	if m == nil {
		return nil, 0, fmt.Errorf("no maxRounds in %q", r.inst.Describe())
	}
	maxRounds, err := strconv.Atoi(m[1])
	if err != nil {
		return nil, 0, err
	}
	switch r.w.algo {
	case omicon.OptimalOmissions:
		p, err := core.Prepare(r.w.n, r.w.t)
		if err != nil {
			return nil, 0, err
		}
		return core.Protocol(p), maxRounds, nil
	case omicon.PhaseKing:
		return func(env sim.Env, input int) (int, error) { return phaseking.Consensus(env, input) }, maxRounds, nil
	}
	return nil, 0, fmt.Errorf("no traced protocol for %v", r.w.algo)
}

// tracedTrial is a finished traced trial.
type tracedTrial struct {
	tr  *trialTracer
	res *sim.Result
}

func (r *trialRunner) traced() (unitOut, tracedUnit, error) {
	if r.proto == nil {
		proto, maxRounds, err := r.tracedProtocol()
		if err != nil {
			return unitOut{}, nil, err
		}
		r.proto, r.maxRounds = proto, maxRounds
	}
	adv, err := r.adversary()
	if err != nil {
		return unitOut{}, nil, err
	}
	tr := newTrialTracer(r.w.n, r.maxRounds)
	// A fault-free adversary stays unwrapped: the engine's NoFaults fast
	// path keys on its type. Config.Trace stays nil for the same reason.
	if _, benign := adv.(sim.NoFaults); !benign {
		tr.adv = &timedAdversary{inner: adv}
		adv = tr.adv
	}
	res, err := sim.Run(sim.Config{
		N: r.w.n, T: r.w.t, Inputs: r.inputs, Seed: r.seed,
		Adversary: adv, MaxRounds: r.maxRounds,
	}, tr.protocol(r.proto))
	out := trialResult(res, err)
	if res == nil {
		return out, nil, fmt.Errorf("traced trial: %w", err)
	}
	return out, tracedTrial{tr: tr, res: res}, nil
}

func (t tracedTrial) layers(wall float64) (map[string]float64, error) {
	lv, err := t.tr.layers(t.res)
	if err != nil {
		return nil, err
	}
	lv["bench.layer_wall_frac"] = lv["bench.layer_sum_s"] / wall
	return lv, nil
}

// campaignWorkload runs whole torture campaigns through torture.Run.
type campaignWorkload struct {
	id, doc                         string
	laps, workers, determinismEvery int
	// inject is torture's built-in sabotage mode; the tests set it to
	// prove the failure count is live.
	inject string
}

func (w campaignWorkload) name() string    { return w.id }
func (w campaignWorkload) why() string     { return w.doc }
func (w campaignWorkload) rate() metricDef { return metricDef{"trials_per_s", "1/s"} }

type campaignRunner struct {
	w    campaignWorkload
	opts torture.Options
}

// setup resolves the default portfolio to size the campaign. Everything
// else a trial needs is prepared inside torture.Run, in trial time.
func (w campaignWorkload) setup(seed uint64) (runner, error) {
	cells := len(torture.DefaultProtocols()) * len(torture.DefaultAdversaries())
	if cells == 0 {
		return nil, fmt.Errorf("empty torture portfolio")
	}
	return &campaignRunner{w: w, opts: torture.Options{
		Trials: w.laps * cells, Seed: seed, Workers: w.workers,
		DeterminismEvery: w.determinismEvery, Inject: w.inject,
	}}, nil
}

// jobLog collects what the traced run's Remote hook sees of each executed
// trial.
type jobLog struct {
	mu     sync.Mutex
	rounds int64
	exec   map[string]time.Duration
	execMs []float64
}

// remote is the torture.Options.Remote hook: it executes the job exactly as
// torture.Run does without a hook, through torture.ExecuteJob, times the
// call and counts the rounds the job's transcript records.
func (l *jobLog) remote(_ context.Context, job torture.Job) (*torture.Outcome, error) {
	t0 := time.Now()
	oc, err := torture.ExecuteJob(job)
	d := time.Since(t0)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rounds += int64(len(oc.Transcript.Rounds))
	l.exec[job.Protocol] += d
	l.execMs = append(l.execMs, float64(d.Nanoseconds())/1e6)
	return oc, nil
}

// run executes one campaign. A nil hook leaves Options.Remote unset, so
// torture.Run executes every trial in-process, its default path.
func (r *campaignRunner) run(hook func(context.Context, torture.Job) (*torture.Outcome, error)) unitOut {
	o := r.opts
	o.Remote = hook
	rep, err := torture.Run(o)
	out := unitOut{trials: o.Trials}
	if err != nil {
		out.failed = o.Trials
		out.problem = err.Error()
		return out
	}
	out.trials = rep.Trials
	out.work = int64(rep.Trials)
	out.failed = len(rep.Failures)
	if out.failed > 0 {
		out.problem = fmt.Sprintf("%d of %d trials broke a property: %s", out.failed, rep.Trials, rep.Failures[0].Violations)
	}
	out.counts = rep.Summary()
	return out
}

func (r *campaignRunner) unit() (unitOut, error) {
	return r.run(nil), nil
}

// tracedCampaign is a finished traced campaign.
type tracedCampaign struct {
	log     *jobLog
	workers int
}

func (r *campaignRunner) traced() (unitOut, tracedUnit, error) {
	log := &jobLog{exec: map[string]time.Duration{}}
	return r.run(log.remote), tracedCampaign{log: log, workers: r.w.workers}, nil
}
func (t tracedCampaign) layers(wall float64) (map[string]float64, error) {
	lv := map[string]float64{"sim.rounds": float64(t.log.rounds)}
	var total time.Duration
	for p, d := range t.log.exec {
		known := false
		for _, q := range tortureProtocols {
			known = known || p == q
		}
		if !known {
			return nil, fmt.Errorf("protocol %q is not in the benchmark's layer map", p)
		}
		lv["torture.exec_s."+p] = d.Seconds()
		total += d
	}
	lv["torture.exec_s"] = total.Seconds()
	lv["torture.trial_ms.p50"] = summarize(t.log.execMs).median
	lv["torture.trial_ms.ptail_pct"], lv["torture.trial_ms.ptail"] = tail(t.log.execMs)
	lv["partrial.worker_util"] = total.Seconds() / (float64(t.workers) * wall)
	lv["bench.layer_sum_s"] = total.Seconds()
	lv["bench.layer_wall_frac"] = lv["partrial.worker_util"]
	return lv, nil
}
