package gate

import "testing"

// TestCycleZeroAlloc is the alloc-guard for the gate simulator: on a
// warmed-up netlist, Cycle must run the launch/settle/capture path without
// allocating, whatever the input activity, and so must quiet cycles and
// Hold.
func TestCycleZeroAlloc(t *testing.T) {
	n := NewNetlist("alloc")
	a := n.Input("a")
	b := n.Input("b")
	x := n.Xor2(a, b)
	y := n.And2(a, b)
	q := n.Flop(n.Or2(x, y), false, "q")
	n.Inv(q)
	s := sim(t, n)

	in := InputVector{false, false}
	s.Cycle(in) // warm up
	i := 0
	avg := testing.AllocsPerRun(1000, func() {
		in[0] = i&1 == 1
		in[1] = i&2 == 2
		i++
		s.Cycle(in)
	})
	if avg != 0 {
		t.Fatalf("gate.Sim.Cycle allocates %v allocs/op, want 0", avg)
	}

	// Held inputs: after the flop settles every cycle is quiet, and quiet
	// cycles and Hold must not allocate either.
	in[0], in[1] = true, false
	s.Cycle(in)
	s.Cycle(in)
	s.Cycle(in)
	if !s.Quiet() {
		t.Fatal("held-input cycle is not quiet")
	}
	avg = testing.AllocsPerRun(1000, func() {
		s.Cycle(in)
		s.Hold(100)
	})
	if avg != 0 {
		t.Fatalf("quiet gate.Sim.Cycle + Hold allocates %v allocs/op, want 0", avg)
	}
	if !s.Quiet() {
		t.Fatal("held-input cycle is not quiet")
	}
}
