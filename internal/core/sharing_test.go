package core

import (
	"fmt"
	"testing"
	"unsafe"

	"omicon/internal/adversary"
	"omicon/internal/sim"
)

// boxed returns the data word of an interface value: the address of the
// boxed payload. Two messages built from one boxing share it; two separate
// boxings of equal values do not.
func boxed(x any) unsafe.Pointer {
	return (*[2]unsafe.Pointer)(unsafe.Pointer(&x))[1]
}

// sharingSpy wraps one process's Env and checks every outbox it submits:
// a gossip round's messages must all reference one SpreadMsg (one boxing,
// one Entries backing), and a relay round-3 outbox must reference one
// MergedCountsMsg per recipient bag.
type sharingSpy struct {
	sim.Env
	p      Params
	base   int // first member of the process's group
	relay3 int // relay round-3 outboxes seen so far

	gossipShared int // gossip outboxes with >= 2 messages and entries
	bagsShared   int // bags with >= 2 recipients in a round-3 outbox
	err          error
}

func (s *sharingSpy) Exchange(out []sim.Message) []sim.Message {
	if s.err == nil {
		s.err = s.check(out)
	}
	return s.Env.Exchange(out)
}

func (s *sharingSpy) check(out []sim.Message) error {
	if len(out) == 0 {
		return nil
	}
	switch first := out[0].Payload.(type) {
	case SpreadMsg:
		for _, m := range out[1:] {
			sm, ok := m.Payload.(SpreadMsg)
			if !ok {
				return fmt.Errorf("gossip outbox mixes %T into SpreadMsg", m.Payload)
			}
			if boxed(m.Payload) != boxed(out[0].Payload) {
				return fmt.Errorf("gossip message to %d boxes its own SpreadMsg", m.To)
			}
			if len(sm.Entries) != len(first.Entries) || unsafe.SliceData(sm.Entries) != unsafe.SliceData(first.Entries) {
				return fmt.Errorf("gossip message to %d has its own Entries backing", m.To)
			}
		}
		if len(out) >= 2 && len(first.Entries) > 0 {
			s.gossipShared++
		}
	case MergedCountsMsg:
		// Every process runs Layers-1 relay layers per epoch, each ending
		// in one round-3 outbox, so the count of round-3 outboxes so far
		// names the layer.
		layers := s.p.Tree.Layers()
		j := 2 + s.relay3%(layers-1)
		s.relay3++
		byBag := make(map[int]unsafe.Pointer)
		recipients := make(map[int]int)
		for _, m := range out {
			if _, ok := m.Payload.(MergedCountsMsg); !ok {
				return fmt.Errorf("relay round-3 outbox mixes %T into MergedCountsMsg", m.Payload)
			}
			bag := s.p.Tree.BagOf(j, m.To-s.base)
			if ptr, seen := byBag[bag]; seen && ptr != boxed(m.Payload) {
				return fmt.Errorf("layer %d: message to %d boxes its own payload for bag %d", j, m.To, bag)
			}
			byBag[bag] = boxed(m.Payload)
			recipients[bag]++
		}
		for _, c := range recipients {
			if c >= 2 {
				s.bagsShared++
			}
		}
	}
	return nil
}

// TestPayloadsSharedAcrossRecipients pins the zero-copy send pattern of the
// hot rounds: one immutable payload per distinct content, referenced by
// every message that carries it.
func TestPayloadsSharedAcrossRecipients(t *testing.T) {
	const n, tf = 256, 8
	cases := []struct {
		name    string
		adv     func() sim.Adversary
		noDedup bool
	}{
		{"split-vote", func() sim.Adversary { return adversary.NewSplitVote(tf, 1) }, false},
		{"tree-cut", func() sim.Adversary { return adversary.NewTreeCut(n, tf) }, false},
		{"split-vote-no-dedup", func() sim.Adversary { return adversary.NewSplitVote(tf, 1) }, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := Prepare(n, tf)
			if err != nil {
				t.Fatal(err)
			}
			p.NoGossipDedup = c.noDedup
			spies := make([]*sharingSpy, n)
			proto := Protocol(p)
			_, err = sim.Run(sim.Config{N: n, T: tf, Inputs: mixedInputs(n, n/2), Seed: 1, Adversary: c.adv()},
				func(env sim.Env, input int) (int, error) {
					g := p.Decomp.GroupOf(env.ID())
					s := &sharingSpy{Env: env, p: p, base: p.Decomp.Group(g)[0]}
					spies[env.ID()] = s
					return proto(s, input)
				})
			if err != nil {
				t.Fatal(err)
			}
			gossip, bags := 0, 0
			for pid, s := range spies {
				if s.err != nil {
					t.Fatalf("process %d: %v", pid, s.err)
				}
				gossip += s.gossipShared
				bags += s.bagsShared
			}
			// Guard against a vacuous pass: sharing must actually occur.
			if gossip == 0 || bags == 0 {
				t.Fatalf("nothing checked: %d shared gossip outboxes, %d shared bags", gossip, bags)
			}
		})
	}
}

// TestGoldenCountsSplitVote pins one trial's complexity counts to the
// figures measured before payload sharing: sharing a payload in memory must
// not change rounds, messages, charged bits or randomness.
func TestGoldenCountsSplitVote(t *testing.T) {
	const n, tf = 256, 8
	res, _ := runOnce(t, n, tf, mixedInputs(n, n/2), 1, adversary.NewSplitVote(tf, 1))
	m := res.Metrics
	if m.Rounds != 241 || m.Messages != 2126770 || m.CommBits != 75165456 || m.RandomBits != 252 {
		t.Fatalf("rounds=%d messages=%d bits=%d random=%d, want 241, 2126770, 75165456, 252",
			m.Rounds, m.Messages, m.CommBits, m.RandomBits)
	}
}
