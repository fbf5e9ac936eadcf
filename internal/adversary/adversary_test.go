package adversary

import (
	"math/rand/v2"
	"testing"

	"omicon/internal/graph"
	"omicon/internal/sim"
	"omicon/internal/wire"
)

type bit struct{ b int }

func (p bit) AppendWire(buf []byte) []byte { return wire.AppendUvarint(buf, uint64(p.b)) }

// snap is a minimal stateObserver for synthetic views.
type snap struct {
	b       int
	op, dec bool
	flipped bool
}

func (s snap) CandidateBit() int { return s.b }
func (s snap) IsOperative() bool { return s.op }
func (s snap) HasDecided() bool  { return s.dec }
func (s snap) FlippedCoin() bool { return s.flipped }

// makeView builds a synthetic full-information view with an all-to-all
// outbox.
func makeView(n, t, round int, bits []int, corrupted []bool) *sim.View {
	v := &sim.View{
		Round:       round,
		N:           n,
		T:           t,
		Inputs:      make([]int, n),
		Corrupted:   make([]bool, n),
		Terminated:  make([]bool, n),
		Decisions:   make([]int, n),
		Snapshots:   make([]any, n),
		RandomCalls: make([]int64, n),
		RandomBits:  make([]int64, n),
	}
	if corrupted != nil {
		copy(v.Corrupted, corrupted)
	}
	for p := 0; p < n; p++ {
		v.Decisions[p] = -1
		v.Snapshots[p] = snap{b: bits[p], op: true}
		for q := 0; q < n; q++ {
			if p != q {
				v.Outbox = append(v.Outbox, sim.Msg(p, q, bit{bits[p]}))
			}
		}
	}
	return v
}

func legalAction(t *testing.T, v *sim.View, act sim.Action) {
	t.Helper()
	bad := make(map[int]bool)
	for p, c := range v.Corrupted {
		if c {
			bad[p] = true
		}
	}
	budget := len(bad)
	for _, p := range act.Corrupt {
		if p < 0 || p >= v.N {
			t.Fatalf("corrupt out of range: %d", p)
		}
		if !bad[p] {
			bad[p] = true
			budget++
		}
	}
	if budget > v.T {
		t.Fatalf("budget exceeded: %d > %d", budget, v.T)
	}
	for _, idx := range act.Drop {
		if idx < 0 || idx >= len(v.Outbox) {
			t.Fatalf("drop index out of range: %d", idx)
		}
		m := v.Outbox[idx]
		if !bad[m.From] && !bad[m.To] {
			t.Fatalf("illegal drop %v", m)
		}
	}
}

func bitsHalf(n int) []int {
	bits := make([]int, n)
	for i := range bits {
		bits[i] = i % 2
	}
	return bits
}

// TestAllStrategiesEmitLegalActions feeds every portfolio strategy a
// synthetic view and verifies legality (the engine enforces it too; this
// pins the contract at unit level).
func TestAllStrategiesEmitLegalActions(t *testing.T) {
	n, tf := 24, 5
	for _, adv := range Registry(n, tf, 3) {
		adv := adv
		t.Run(adv.Name(), func(t *testing.T) {
			var corrupted []bool
			for round := 1; round <= 4; round++ {
				v := makeView(n, tf, round, bitsHalf(n), corrupted)
				act := adv.Step(v)
				legalAction(t, v, act)
				corrupted = v.Corrupted
				for _, p := range act.Corrupt {
					corrupted[p] = true
				}
			}
		})
	}
}

func TestStaticCrashRespectsBudget(t *testing.T) {
	adv := NewStaticCrash([]int{0, 1, 2, 3, 4, 5, 6, 7})
	v := makeView(10, 3, 1, bitsHalf(10), nil)
	act := adv.Step(v)
	if len(act.Corrupt) != 3 {
		t.Fatalf("corrupted %d, want clamped 3", len(act.Corrupt))
	}
	legalAction(t, v, act)
}

func TestDelayedStrikeWaitsForDeciders(t *testing.T) {
	n := 10
	adv := NewDelayedStrike(2)
	v := makeView(n, 2, 1, bitsHalf(n), nil)
	act := adv.Step(v)
	if len(act.Corrupt) != 0 {
		t.Fatal("must not corrupt before any decider exists")
	}
	// Mark process 4 decided.
	v.Snapshots[4] = snap{b: 1, op: true, dec: true}
	act = adv.Step(v)
	if len(act.Corrupt) != 1 || act.Corrupt[0] != 4 {
		t.Fatalf("corrupt = %v, want [4]", act.Corrupt)
	}
	legalAction(t, v, act)
}

func TestCoinHiderRestoresBalance(t *testing.T) {
	n := 16
	bits := make([]int, n)
	for i := 0; i < 10; i++ {
		bits[i] = 1 // margin 4 toward 1
	}
	adv := NewCoinHider(1)
	v := makeView(n, 8, 1, bits, nil)
	// Simulate that every process flipped this round.
	for p := range v.RandomCalls {
		v.RandomCalls[p] = 1
		v.Snapshots[p] = snap{b: bits[p], op: true, flipped: true}
	}
	act := adv.Step(v)
	legalAction(t, v, act)
	if len(act.Corrupt) != 4 {
		t.Fatalf("killed %d, want margin 4", len(act.Corrupt))
	}
	for _, p := range act.Corrupt {
		if bits[p] != 1 {
			t.Fatalf("killed a non-winning holder %d", p)
		}
	}
	// All outgoing messages of the killed must be dropped.
	bad := map[int]bool{}
	for _, p := range act.Corrupt {
		bad[p] = true
	}
	dropped := map[int]bool{}
	for _, idx := range act.Drop {
		dropped[idx] = true
	}
	for idx, m := range v.Outbox {
		if bad[m.From] && !dropped[idx] {
			t.Fatalf("crashed process %d message survived", m.From)
		}
	}
}

func TestCoinHiderKeepsCrashedSilent(t *testing.T) {
	n := 8
	bits := bitsHalf(n) // balanced
	corrupted := make([]bool, n)
	corrupted[0] = true
	adv := NewCoinHider(1)
	v := makeView(n, 4, 2, bits, corrupted)
	act := adv.Step(v)
	legalAction(t, v, act)
	found := false
	for _, idx := range act.Drop {
		if v.Outbox[idx].From == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("crashed process 0 must stay silent on balanced rounds")
	}
}

func TestEclipseTargetsVictimLinks(t *testing.T) {
	g := graph.Random(30, 0.3, 2)
	adv := NewEclipse(g, 3, 5)
	v := makeView(30, 3, 1, bitsHalf(30), nil)
	act := adv.Step(v)
	legalAction(t, v, act)
	if len(act.Corrupt) != 3 {
		t.Fatalf("corrupted %d, want 3", len(act.Corrupt))
	}
	bad := map[int]bool{}
	for _, p := range act.Corrupt {
		bad[p] = true
	}
	for _, idx := range act.Drop {
		m := v.Outbox[idx]
		victim := m.From >= 25 || m.To >= 25
		if !victim {
			t.Fatalf("drop %v does not touch the victim set", m)
		}
		if !bad[m.From] && !bad[m.To] {
			t.Fatalf("drop %v does not touch a corrupted process", m)
		}
	}
}

func TestHalfVisibilityDropsOnlyLowerHalf(t *testing.T) {
	n := 12
	adv := NewHalfVisibility(3)
	v := makeView(n, 3, 1, bitsHalf(n), nil)
	act := adv.Step(v)
	legalAction(t, v, act)
	for _, idx := range act.Drop {
		if v.Outbox[idx].To >= n/2 {
			t.Fatalf("dropped message to upper half: %v", v.Outbox[idx])
		}
	}
}

func TestSplitVoteCorruptsBothCamps(t *testing.T) {
	n := 12
	adv := NewSplitVote(4, 1)
	v := makeView(n, 4, 1, bitsHalf(n), nil)
	// Inputs mirror the bits.
	copy(v.Inputs, bitsHalf(n))
	act := adv.Step(v)
	legalAction(t, v, act)
	ones, zeros := 0, 0
	for _, p := range act.Corrupt {
		if v.Inputs[p] == 1 {
			ones++
		} else {
			zeros++
		}
	}
	if ones == 0 || zeros == 0 {
		t.Fatalf("corruptions one-sided: ones=%d zeros=%d", ones, zeros)
	}
}

// TestCorruptedSetUnion pins the dense corrupted set every strategy indexes
// per message: pid p is in it exactly when the view already marks p
// corrupted or p is in the pending batch; the view itself is left alone;
// and a pending pid outside [0, n) is ignored without a panic (legality,
// not the strategy, rejects it).
func TestCorruptedSetUnion(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.IntN(40)
		v := &sim.View{N: n, Corrupted: make([]bool, n)}
		want := make([]bool, n)
		for p := range v.Corrupted {
			v.Corrupted[p] = r.IntN(4) == 0
			want[p] = v.Corrupted[p]
		}
		before := append([]bool(nil), v.Corrupted...)
		var pending []int
		for i := r.IntN(6); i > 0; i-- {
			p := r.IntN(n+4) - 2 // includes -2, -1, n and n+1
			pending = append(pending, p)
			if p >= 0 && p < n {
				want[p] = true
			}
		}
		got := corruptedSet(v, pending)
		if len(got) != n {
			t.Fatalf("n=%d: corrupted set has %d entries", n, len(got))
		}
		for p := 0; p < n; p++ {
			if got[p] != want[p] {
				t.Fatalf("n=%d view=%v pending=%v: pid %d in set = %v, want %v",
					n, before, pending, p, got[p], want[p])
			}
			if v.Corrupted[p] != before[p] {
				t.Fatalf("n=%d pending=%v: corruptedSet wrote pid %d into the view", n, pending, p)
			}
		}
	}
}
