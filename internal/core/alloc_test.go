//go:build !race

package core

import (
	"runtime"
	"testing"

	"omicon/internal/adversary"
)

// TestTrialAllocationGuard bounds the bytes one whole Theorem-1 trial
// allocates. Gossip and group-relay rounds share one immutable payload
// across recipients and the engine sizes its outbox exactly; a return to
// per-link payload slices, per-message boxing or per-message encoding
// roughly quintuples the figure (about 104 MB against about 18 MB here).
// The guard counts bytes, not allocations, so the runtime's own
// goroutine-parking churn cannot make it flaky. Excluded under -race: the
// detector's instrumentation allocates on its own behalf.
func TestTrialAllocationGuard(t *testing.T) {
	const n, tf = 256, 8
	const limitMB = 40
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runOnce(t, n, tf, mixedInputs(n, n/2), 1, adversary.NewSplitVote(tf, 1))
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6; mb > limitMB {
		t.Fatalf("one n=%d t=%d split-vote trial allocated %.1f MB, limit %d MB", n, tf, mb, limitMB)
	}
}
