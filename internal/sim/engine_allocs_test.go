//go:build !race

package sim

import (
	"math"
	"os"
	"runtime"
	"testing"
	"unsafe"
)

// TestEngineRoundAllocationBudget gates the hot-path allocation work: with
// processes resending a pre-built outbox, the engine's own per-round cost
// is amortized setup only — the inbox backing comes from the reused arena.
// The budget of 8 per round is far below what any reintroduced per-round
// View/sort/map allocation would cost (tens per round at n=64); the
// steady-state tests below pin the exact zero. Excluded under -race: the
// detector's instrumentation allocates on its own behalf.
func TestEngineRoundAllocationBudget(t *testing.T) {
	const n, rounds = 64, 300
	for _, tc := range []struct {
		name string
		adv  Adversary
	}{{"fast", nil}, {"full", passThrough{}}} {
		proto := func(env Env, input int) (int, error) {
			targets := make([]int, 0, n-1)
			for i := 0; i < n; i++ {
				if i != env.ID() {
					targets = append(targets, i)
				}
			}
			out := Broadcast(env.ID(), bitPayload{1}, targets)
			for r := 0; r < rounds; r++ {
				env.Exchange(out)
			}
			return 0, nil
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := Run(Config{N: n, T: 0, Inputs: make([]int, n), Seed: 1, MaxRounds: rounds + 8, Adversary: tc.adv}, proto); err != nil {
				t.Fatal(err)
			}
		})
		if perRound := allocs / rounds; perRound > 8 {
			t.Errorf("%s path: %.1f allocs per round (%.0f per run), budget is 8",
				tc.name, perRound, allocs)
		}
	}
}

// sparseRunAllocs measures whole-run heap allocations for the sparse
// workload of cmd/bench: every process resends a prebuilt ⌊√n⌋-target
// outbox each round. Differencing two round counts isolates the
// steady-state marginal cost of a round from the O(n) engine setup
// (goroutines, channels, rng sources) that a whole-run count amortizes —
// the very effect behind the historical n=4096 "allocation cliff", where
// setup divided by few benchmark iterations read as thousands of
// allocs/op.
func sparseRunAllocs(t *testing.T, n, shards, rounds int, adv Adversary) float64 {
	t.Helper()
	deg := int(math.Sqrt(float64(n)))
	proto := func(env Env, input int) (int, error) {
		id := env.ID()
		targets := make([]int, deg)
		for i := range targets {
			targets[i] = (id + 1 + i) % n
		}
		out := Broadcast(id, bitPayload{1}, targets)
		for r := 0; r < rounds; r++ {
			env.Exchange(out)
		}
		return 0, nil
	}
	return testing.AllocsPerRun(1, func() {
		if _, err := Run(Config{N: n, T: 0, Inputs: make([]int, n), Seed: 1,
			MaxRounds: rounds + 8, Adversary: adv, Shards: shards}, proto); err != nil {
			t.Fatal(err)
		}
	})
}

// steadyAllocTolerance is the pass threshold for steady-state marginal
// allocations per round: pure noise allowance around zero — any real
// regression costs at least one allocation per round (typically n).
const steadyAllocTolerance = 0.25

// steadyStateRoundAllocs returns the best marginal allocations per round
// observed over a few paired-run trials: each trial differences a 2x-round
// and a 1x-round execution of the identical configuration, so setup costs
// cancel exactly. The minimum is the right statistic — the engine's true
// marginal cost lower-bounds every trial, while the one nondeterministic
// contribution (the runtime's sudog pool ratcheting toward its high-water
// mark as n parked-in-select goroutines interleave differently each round)
// only ever adds, and converges to zero once the pool has seen enough
// rounds at this n.
func steadyStateRoundAllocs(t *testing.T, n, shards, base int, adv Adversary) float64 {
	t.Helper()
	best := math.Inf(1)
	for trial := 0; trial < 4; trial++ {
		short := sparseRunAllocs(t, n, shards, base, adv)
		long := sparseRunAllocs(t, n, shards, 2*base, adv)
		if d := (long - short) / float64(base); d < best {
			best = d
		}
		if best <= steadyAllocTolerance {
			break
		}
	}
	return best
}

// largeNSizes appends 4096 to sizes when OMICON_LARGEN is set; the large-n
// legs cost seconds each, so they run only on the opt-in CI leg.
func largeNSizes(sizes []int) []int {
	if os.Getenv("OMICON_LARGEN") != "" {
		sizes = append(sizes, 4096)
	}
	return sizes
}

// TestEngineSteadyStateZeroAllocs asserts the tentpole property of the
// arena work: a warm engine round allocates NOTHING — the inbox backing,
// outbox merge, View, drop mask and rng sources are all reused. The 0.25
// threshold is pure noise allowance; any real regression costs at least
// one allocation per round (and typically n).
func TestEngineSteadyStateZeroAllocs(t *testing.T) {
	for _, n := range largeNSizes([]int{64, 1024}) {
		base := 30
		if n >= 4096 {
			base = 10
		}
		for _, tc := range []struct {
			name string
			adv  Adversary
		}{{"fast", nil}, {"full", passThrough{}}} {
			if perRound := steadyStateRoundAllocs(t, n, 0, base, tc.adv); perRound > steadyAllocTolerance {
				t.Errorf("n=%d %s path: %.2f allocs per steady-state round, want 0",
					n, tc.name, perRound)
			}
		}
	}
}

// TestSparseRoundAllocsFlatInN is the allocation-cliff regression test:
// steady-state allocs per round must be O(1) in n — in fact zero — for
// both engines across a 16x range of n. Before the arena work the inbox
// backing alone cost one allocation (and O(n·√n) bytes) per round, and
// benchmark setup amortization made n=4096 sparse rounds read as thousands
// of allocs/op. The n=4096 leg runs only without -short (`make check`
// stays fast; plain `go test ./...` covers it).
func TestSparseRoundAllocsFlatInN(t *testing.T) {
	for _, shards := range []int{0, 8} {
		for _, n := range []int{256, 1024, 4096} {
			if n == 4096 && testing.Short() {
				continue
			}
			base := 30
			if n >= 4096 {
				base = 10
			}
			if perRound := steadyStateRoundAllocs(t, n, shards, base, nil); perRound > steadyAllocTolerance {
				t.Errorf("n=%d shards=%d: %.2f allocs per steady-state round, want O(1) in n (0)",
					n, shards, perRound)
			}
		}
	}
}

// oneRoundBytes returns the heap bytes one all-to-all round at n allocates
// end to end under adv, in the engine shards selects.
func oneRoundBytes(t *testing.T, n, shards int, adv Adversary) uint64 {
	t.Helper()
	proto := func(env Env, input int) (int, error) {
		targets := make([]int, 0, n-1)
		for i := 0; i < n; i++ {
			if i != env.ID() {
				targets = append(targets, i)
			}
		}
		env.Exchange(Broadcast(env.ID(), bitPayload{1}, targets))
		return 0, nil
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(Config{N: n, T: 0, Inputs: make([]int, n), Seed: 1,
		Adversary: adv, Shards: shards}, proto); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestAdversarialRoundByteGuard guards the canonical-by-construction
// outbox: protocols send in ascending To order, so the adversarial path
// must not sort, and its bytes beyond the NoFaults fast path's are the View
// and the drop mask only. A sort that runs again costs its scratch copy of
// the outbox, about 1.0x the round's outbox bytes; the limit is 0.5x. The
// guard counts bytes, not allocations, so the runtime's own
// goroutine-parking churn cannot make it flaky; it keeps the smallest
// difference over three runs. Excluded under -race like the tests above.
func TestAdversarialRoundByteGuard(t *testing.T) {
	const n = 256
	outboxBytes := float64(n*(n-1)) * float64(unsafe.Sizeof(Message{}))
	for _, shards := range []int{0, 2} {
		best := math.Inf(1)
		for trial := 0; trial < 3; trial++ {
			full := float64(oneRoundBytes(t, n, shards, passThrough{}))
			fast := float64(oneRoundBytes(t, n, shards, NoFaults{}))
			best = min(best, (full-fast)/outboxBytes)
		}
		if best >= 0.5 {
			t.Errorf("shards=%d: the adversarial round allocated %.2fx its outbox bytes beyond the fast path, limit 0.5x",
				shards, best)
		}
	}
}
