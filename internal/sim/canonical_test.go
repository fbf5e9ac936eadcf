package sim

import (
	"fmt"
	"slices"
	"sort"
	"testing"
)

// unorderedOutbox is process id's outbox, every round, in an n-process run:
// one message to every other process, tagged with its send position. Even
// pids send in ascending To order; odd pids send in descending order and
// repeat one target, so their blocks are out of canonical order and carry
// a duplicate (From, To) pair whose tie order is observable.
func unorderedOutbox(id, n int) []Message {
	var targets []int
	for to := 0; to < n; to++ {
		if to != id {
			targets = append(targets, to)
		}
	}
	if id%2 == 1 {
		sort.Sort(sort.Reverse(sort.IntSlice(targets)))
		mid := len(targets) / 2
		targets = slices.Insert(targets, mid, targets[mid])
	}
	out := make([]Message, len(targets))
	for k, to := range targets {
		out[k] = Msg(id, to, indexPayload{k})
	}
	return out
}

// outboxRecorder copies every round's View.Outbox and omits nothing.
type outboxRecorder struct{ rounds [][]Message }

func (r *outboxRecorder) Name() string { return "outbox-recorder" }

func (r *outboxRecorder) Step(v *View) Action {
	r.rounds = append(r.rounds, append([]Message(nil), v.Outbox...))
	return Action{}
}

// TestUnorderedOutboxFallsBackToCanonicalSort covers the one branch no
// protocol in this codebase reaches: an outbox block whose targets do not
// ascend. The adversary must still see the stable (From, To) sort of the
// pid-order concatenation, and every inbox must come out From-sorted with
// ties in send order, in both engines.
func TestUnorderedOutboxFallsBackToCanonicalSort(t *testing.T) {
	const n, rounds = 8, 3
	var want []Message
	for p := 0; p < n; p++ {
		want = append(want, unorderedOutbox(p, n)...)
	}
	sort.SliceStable(want, func(i, j int) bool {
		if want[i].From != want[j].From {
			return want[i].From < want[j].From
		}
		return want[i].To < want[j].To
	})
	proto := func(env Env, input int) (int, error) {
		for r := 0; r < rounds; r++ {
			in := env.Exchange(unorderedOutbox(env.ID(), env.N()))
			for i := 1; i < len(in); i++ {
				a, b := in[i-1], in[i]
				if a.From > b.From || (a.From == b.From &&
					a.Payload.(indexPayload).i > b.Payload.(indexPayload).i) {
					return -1, fmt.Errorf("round %d: inbox position %d: %v (sent %d) before %v (sent %d)",
						r+1, i, a, a.Payload.(indexPayload).i, b, b.Payload.(indexPayload).i)
				}
			}
		}
		return input, nil
	}
	for _, shards := range []int{0, 1, 3} {
		rec := &outboxRecorder{}
		if _, err := Run(Config{N: n, T: 1, Inputs: make([]int, n), Seed: 1,
			Adversary: rec, Shards: shards}, proto); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if len(rec.rounds) != rounds {
			t.Fatalf("shards=%d: adversary saw %d rounds, want %d", shards, len(rec.rounds), rounds)
		}
		for r, got := range rec.rounds {
			if len(got) != len(want) {
				t.Fatalf("shards=%d round %d: outbox has %d messages, want %d", shards, r+1, len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if g.From != w.From || g.To != w.To || g.Payload != w.Payload {
					t.Fatalf("shards=%d round %d: outbox[%d] = %v (sent %d), want %v (sent %d)",
						shards, r+1, i, g, g.Payload.(indexPayload).i, w, w.Payload.(indexPayload).i)
				}
			}
		}
	}
}

// TestValidationErrorPrecedence pins which error a round with several
// malformed outboxes reports now that senders validate their own outboxes
// concurrently: the smallest offending pid's, in both engines, whatever
// order the checks finish in.
func TestValidationErrorPrecedence(t *testing.T) {
	const n = 8
	proto := func(env Env, input int) (int, error) {
		switch env.ID() {
		case 5:
			env.Exchange([]Message{Msg(5, 0, bitPayload{0}), Msg(4, 1, bitPayload{0})})
		case 2:
			env.Exchange([]Message{Msg(2, 1, bitPayload{0}), Msg(2, n, bitPayload{0})})
		default:
			env.Exchange(nil)
		}
		return input, nil
	}
	const want = "sim: process 2 sent to invalid target 8"
	for _, shards := range []int{0, 1, 3, ShardsAuto} {
		_, err := Run(Config{N: n, T: 0, Inputs: make([]int, n), Seed: 1, Shards: shards}, proto)
		if err == nil || err.Error() != want {
			t.Fatalf("shards=%d: err = %v, want %q", shards, err, want)
		}
	}
}
