package core

import (
	"math/rand"
	"testing"

	"repro/internal/cfsm"
)

// TestGroupMemOpsReusedBuffers checks the coalescing of a reaction's memory
// accesses into bus groups when the group and data buffers are reused from
// reaction to reaction, as the SW path does: every call must produce the
// runs of same-direction consecutive words, each carrying its own words,
// whatever the buffers held before.
func TestGroupMemOpsReusedBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var groups []busGroup
	var data []uint32
	for trial := 0; trial < 200; trial++ {
		ops := make([]cfsm.MemAccess, rng.Intn(12))
		addr := uint32(rng.Intn(8))
		for i := range ops {
			if rng.Intn(3) == 0 {
				addr = uint32(rng.Intn(8)) // break the run
			}
			ops[i] = cfsm.MemAccess{Addr: addr, Data: cfsm.Value(rng.Int31()), Write: rng.Intn(4) == 0}
			addr++
		}
		groups, data = groupMemOps(groups, data, ops)

		i := 0
		for gi, g := range groups {
			if gi > 0 {
				prev := groups[gi-1]
				if prev.write == g.write && prev.addr+uint32(len(prev.data)) == g.addr {
					t.Fatalf("trial %d: groups %d and %d should have coalesced", trial, gi-1, gi)
				}
			}
			for k, w := range g.data {
				op := ops[i]
				if op.Addr != g.addr+uint32(k) || op.Write != g.write || uint32(op.Data) != w {
					t.Fatalf("trial %d: group %d word %d = (%d, %v, %#x), op %d is %+v",
						trial, gi, k, g.addr+uint32(k), g.write, w, i, op)
				}
				i++
			}
		}
		if i != len(ops) {
			t.Fatalf("trial %d: groups carry %d words, want %d", trial, i, len(ops))
		}
	}
}
