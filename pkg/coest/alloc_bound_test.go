package coest_test

import (
	"context"
	"runtime"
	"testing"

	"repro/pkg/coest"
)

// Bounds of one warm all-SW estimate. The SW reaction path reuses its
// jobs, bus requests, transfer and fetch buffers and sizes its reaction
// traces up front; before it did, an estimate made 15,166 allocations and
// 989 KB.
const (
	warmSWMaxAllocs = 3000
	warmSWMaxBytes  = 450_000
)

// TestWarmSWEstimateAllocBound keeps the warm SW reaction path lean: the
// mean allocations and bytes of one warm all-SW estimate (48 packets,
// DMA 16) on a compiled Session, auditing and tracing off.
func TestWarmSWEstimateAllocBound(t *testing.T) {
	const runs = 20
	ctx := context.Background()
	sess, err := coest.NewSession(allSWSystem(16))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Estimate(ctx); err != nil { // warm up
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := sess.Estimate(ctx); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("warm all-SW estimate: %.0f allocs, %.0f bytes", allocs, bytes)
	if allocs > warmSWMaxAllocs || bytes > warmSWMaxBytes {
		t.Fatalf("warm all-SW estimate makes %.0f allocs and %.0f bytes, want at most %d and %d",
			allocs, bytes, warmSWMaxAllocs, warmSWMaxBytes)
	}
}
