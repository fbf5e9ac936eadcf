package core

import (
	"omicon/internal/bitset"
	"omicon/internal/sim"
)

// linkState is the cross-epoch gossip bookkeeping of Algorithm 3: the
// neighbor set V_p in the Theorem-4 graph, split into the links still live
// and the permanently disregarded ones ("refutes to accept messages from
// them in any future round of the algorithm GroupBitsSpreading"). It also
// owns the per-epoch gossip scratch, packed as bit-vectors and reused
// across epochs. Payloads are immutable once sent (the Exchange contract),
// so instead of being pooled each round's one payload is shared by every
// live link: a steady-state gossip round allocates one exact-fit entry
// slice, not one per link.
type linkState struct {
	live        []int       // V_p minus disregarded, in neighbor order
	disregarded *bitset.Set // pids whose links are permanently cut

	// Per-epoch scratch, cleared at the top of groupBitsSpreading.
	present *bitset.Set   // groups whose counts are known this epoch
	entries []GroupCount  // entries[g] valid iff present.Contains(g)
	sent    *bitset.Set   // groups present at the previous send
	heard   *bitset.Set   // pids heard this round
	out     []sim.Message // reused outbox (backing reusable after Exchange)
}

func newLinkState(p Params, id int) *linkState {
	// live is pruned in place, so it must not alias the graph's adjacency.
	live := append([]int(nil), p.Graph.Neighbors(id)...)
	return &linkState{
		live:        live,
		disregarded: bitset.New(p.N),
		present:     bitset.New(p.Decomp.NumGroups()),
		entries:     make([]GroupCount, p.Decomp.NumGroups()),
		sent:        bitset.New(p.Decomp.NumGroups()),
		heard:       bitset.New(p.N),
		out:         make([]sim.Message, 0, len(live)),
	}
}

// groupBitsSpreading implements Algorithm 3: GossipRounds rounds of
// deduplicated flooding of the per-group operative counts along the
// Theorem-4 graph. A process that receives fewer than OperativeThreshold
// messages from non-disregarded neighbors in some round becomes inoperative
// and idles through the remaining rounds (staying in lockstep). It returns
// the summed ones/zeros across all known groups and the operative status.
func groupBitsSpreading(env sim.Env, p Params, ls *linkState, myGroup, gOnes, gZeros int) (ones, zeros int, operative bool) {
	id := env.ID()
	numGroups := p.Decomp.NumGroups()

	present := ls.present
	present.Clear()
	present.Add(myGroup)
	ls.entries[myGroup] = GroupCount{Group: myGroup, Ones: gOnes, Zeros: gZeros}

	// Each group's counts travel over each edge at most once per epoch.
	// One set serves every link: a disregarded link is never used again,
	// and every live link was sent everything present at the previous
	// send, so the fresh entries are present \ sent for all of them.
	sent := ls.sent
	sent.Clear()

	operative = true
	for r := 0; r < p.GossipRounds; r++ {
		if !operative {
			env.Exchange(nil)
			continue
		}
		// The difference popcount sizes the payload exactly before a
		// single ascending-order fill (the order the wire format pins).
		var fresh []GroupCount
		nf := present.DifferenceCount(sent)
		if p.NoGossipDedup {
			nf = present.Count()
		}
		if nf > 0 {
			fresh = make([]GroupCount, 0, nf)
			present.ForEach(func(g int) bool {
				if p.NoGossipDedup || !sent.Contains(g) {
					fresh = append(fresh, ls.entries[g])
					sent.Add(g)
				}
				return true
			})
		}
		// One immutable payload, referenced by the message to every live
		// neighbor. An empty SpreadMsg is the heartbeat the disregard
		// rule needs: silence means omission, not idleness.
		ls.out = sim.AppendBroadcast(ls.out[:0], id, SpreadMsg{Entries: fresh}, ls.live)
		in := env.Exchange(ls.out)

		heard := ls.heard
		heard.Clear()
		for _, m := range in {
			sm, ok := m.Payload.(SpreadMsg)
			if !ok || ls.disregarded.Contains(m.From) {
				continue
			}
			heard.Add(m.From)
			for _, e := range sm.Entries {
				if e.Group < 0 || e.Group >= numGroups || present.Contains(e.Group) {
					continue
				}
				present.Add(e.Group)
				ls.entries[e.Group] = e
			}
		}
		// The received tally is a popcount: every neighbor sends at most
		// one SpreadMsg per round, so distinct heard senders = messages
		// received from non-disregarded neighbors.
		received := heard.Count()
		live := ls.live[:0]
		for _, q := range ls.live {
			if heard.Contains(q) {
				live = append(live, q)
			} else {
				ls.disregarded.Add(q)
			}
		}
		ls.live = live
		if received < p.OperativeThreshold {
			operative = false
		}
	}

	present.ForEach(func(g int) bool {
		ones += ls.entries[g].Ones
		zeros += ls.entries[g].Zeros
		return true
	})
	return ones, zeros, operative
}
