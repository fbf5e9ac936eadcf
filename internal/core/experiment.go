package core

import (
	"fmt"

	"omicon/internal/metrics"
	"omicon/internal/partition"
	"omicon/internal/sim"
)

// This file provides isolated harnesses for the two communication
// subroutines, used by the Lemma 1/2 and Lemma 6/8 tests and by the
// Figure-2 benchmarks: they run exactly one GroupBitsAggregation (over a
// single group spanning all processes) or one GroupBitsSpreading and report
// every process's outcome.

// AggregationReport is the outcome of one single-group aggregation run.
type AggregationReport struct {
	// Ones and Zeros are the per-process root counts
	// b_ones(top, 0) / b_zeros(top, 0).
	Ones, Zeros []int
	// Operative is the per-process operative status at the end.
	Operative []bool
	// Metrics aggregates the run's cost (Lemma 2's bit bound).
	Metrics metrics.Snapshot
}

// RunAggregationExperiment executes GroupBitsAggregation once on a single
// group containing all len(inputs) processes, against the given adversary.
func RunAggregationExperiment(inputs []int, adv sim.Adversary, seed uint64) (*AggregationReport, error) {
	n := len(inputs)
	if n < 1 {
		return nil, fmt.Errorf("core: empty experiment")
	}
	p := Params{
		N:      n,
		Decomp: partition.Blocks(n, 1),
		Tree:   partition.NewTree(n),
	}
	rep := &AggregationReport{
		Ones:      make([]int, n),
		Zeros:     make([]int, n),
		Operative: make([]bool, n),
	}
	res, err := sim.Run(sim.Config{N: n, T: budgetOf(adv, n), Inputs: inputs, Seed: seed, Adversary: adv},
		func(env sim.Env, input int) (int, error) {
			rs := newRelayState(p, env.ID())
			ones, zeros, op := groupBitsAggregation(env, p, rs, true, input)
			rep.Ones[env.ID()] = ones
			rep.Zeros[env.ID()] = zeros
			rep.Operative[env.ID()] = op
			return 0, nil
		})
	if err != nil {
		return nil, err
	}
	rep.Metrics = res.Metrics
	return rep, nil
}

// SpreadingReport is the outcome of one GroupBitsSpreading run.
type SpreadingReport struct {
	// Ones and Zeros are the per-process summed counts over all groups
	// the process learned about.
	Ones, Zeros []int
	// Operative is the per-process operative status at the end.
	Operative []bool
	// Metrics aggregates the run's cost.
	Metrics metrics.Snapshot
}

// RunSpreadingExperiment executes GroupBitsSpreading once under params p:
// process q of group g starts with that group's (ones[g], zeros[g]) pair,
// exactly as if GroupBitsAggregation had just completed uniformly.
func RunSpreadingExperiment(p Params, groupOnes, groupZeros []int, adv sim.Adversary, seed uint64) (*SpreadingReport, error) {
	n := p.N
	if len(groupOnes) != p.Decomp.NumGroups() || len(groupZeros) != p.Decomp.NumGroups() {
		return nil, fmt.Errorf("core: need one count pair per group")
	}
	rep := &SpreadingReport{
		Ones:      make([]int, n),
		Zeros:     make([]int, n),
		Operative: make([]bool, n),
	}
	res, err := sim.Run(sim.Config{N: n, T: budgetOf(adv, n), Inputs: make([]int, n), Seed: seed, Adversary: adv},
		func(env sim.Env, _ int) (int, error) {
			id := env.ID()
			g := p.Decomp.GroupOf(id)
			ls := newLinkState(p, id)
			ones, zeros, op := groupBitsSpreading(env, p, ls, g, groupOnes[g], groupZeros[g])
			rep.Ones[id] = ones
			rep.Zeros[id] = zeros
			rep.Operative[id] = op
			return 0, nil
		})
	if err != nil {
		return nil, err
	}
	rep.Metrics = res.Metrics
	return rep, nil
}

// budgetOf gives experiments a permissive corruption budget: these
// harnesses study subroutine behaviour, not the t < n/30 regime.
func budgetOf(adv sim.Adversary, n int) int {
	if adv == nil {
		return 0
	}
	return n - 1
}

// EpochReport is the outcome of a fixed number of biased-majority epochs.
type EpochReport struct {
	// B is the per-process candidate value after the epochs.
	B []int
	// Decided and Operative are the per-process flags.
	Decided   []bool
	Operative []bool
	// Metrics aggregates the run's cost.
	Metrics metrics.Snapshot
}

// Unified reports whether all operative processes hold the same candidate
// value (Lemma 10's success event).
func (r *EpochReport) Unified() bool {
	v := -1
	for p, op := range r.Operative {
		if !op {
			continue
		}
		if v == -1 {
			v = r.B[p]
		} else if r.B[p] != v {
			return false
		}
	}
	return true
}

// RunEpochExperiment executes exactly `epochs` iterations of Algorithm 1's
// main loop (lines 5-13) from the given candidate-value vector and reports
// the resulting per-process state — the unit Lemma 10 and Figure 3 reason
// about. p must come from Prepare.
func RunEpochExperiment(p Params, bits []int, numEpochs int, adv sim.Adversary, seed uint64) (*EpochReport, error) {
	if len(bits) != p.N {
		return nil, fmt.Errorf("core: %d bits for n=%d", len(bits), p.N)
	}
	ep := p
	ep.Epochs = numEpochs
	rep := &EpochReport{
		B:         make([]int, p.N),
		Decided:   make([]bool, p.N),
		Operative: make([]bool, p.N),
	}
	res, err := sim.Run(sim.Config{
		N: p.N, T: p.T, Inputs: bits, Seed: seed, Adversary: adv,
		MaxRounds: ep.TotalRoundsBound() + 64,
	}, func(env sim.Env, input int) (int, error) {
		b, decided, operative := epochs(env, input, ep)
		rep.B[env.ID()] = b
		rep.Decided[env.ID()] = decided
		rep.Operative[env.ID()] = operative
		return 0, nil
	})
	if err != nil {
		return nil, err
	}
	rep.Metrics = res.Metrics
	return rep, nil
}
