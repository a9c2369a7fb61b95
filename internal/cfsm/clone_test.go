package cfsm

import (
	"reflect"
	"testing"
)

// cloneTestMachine builds a two-state machine with one input, one output and
// one variable, mirroring the shape the builders produce.
func cloneTestMachine(t *testing.T, name string) *CFSM {
	t.Helper()
	b := NewBuilder(name)
	idle := b.State("idle")
	busy := b.State("busy")
	in := b.Input("go")
	out := b.Output("done")
	v := b.Var("count", 1)
	b.On(idle, in).Named("start").
		Do(Set(v, Add(b.V(v), Const(1))), Emit(out, b.V(v))).
		Goto(busy)
	b.On(busy, in).Named("stop").
		Do(Emit(out, Const(0))).
		Goto(idle)
	m, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return m
}

func TestCFSMCloneIsolatesRuntimeState(t *testing.T) {
	m := cloneTestMachine(t, "m")
	m.Post(0, 7)

	c := m.Clone()
	if c.State() != m.State() || !c.Pending(0) || c.InputVal(0) != 7 {
		t.Fatalf("clone did not capture runtime state")
	}

	// Advancing the clone must not disturb the original.
	if _, ok := c.React(NullEnv{}); !ok {
		t.Fatalf("clone did not react")
	}
	if c.State() == m.State() {
		t.Fatalf("clone state did not advance independently")
	}
	if m.VarValue(0) != 1 {
		t.Fatalf("original variable mutated by clone reaction: %d", m.VarValue(0))
	}
	if c.VarValue(0) != 2 {
		t.Fatalf("clone variable = %d, want 2", c.VarValue(0))
	}
	if !m.Pending(0) {
		t.Fatalf("original lost its pending event")
	}
}

func TestNetCloneSharesWiringClonesMachines(t *testing.T) {
	n := NewNet()
	ai := n.Add(cloneTestMachine(t, "m1"))
	bi := n.Add(cloneTestMachine(t, "m2"))
	n.Connect(ai, 0, bi, 0)
	n.EnvInput("kick", ai, 0)
	n.EnvOutput("obs", bi, 0)
	n.Reset()

	c := n.Clone()
	if len(c.Machines) != 2 || c.Machines[0] == n.Machines[0] {
		t.Fatalf("machines not cloned")
	}
	if got := c.Fanout(ai, 0); len(got) != 1 || got[0] != (Dest{Machine: bi, Port: 0}) {
		t.Fatalf("wiring lost in clone: %v", got)
	}
	if got := c.EnvDest("kick"); len(got) != 1 {
		t.Fatalf("env input lost in clone: %v", got)
	}
	if got := c.EnvNames(bi, 0); len(got) != 1 || got[0] != "obs" {
		t.Fatalf("env output lost in clone: %v", got)
	}

	// Mutating the clone's machine state leaves the original untouched.
	c.Machines[0].Post(0, 3)
	if n.Machines[0].Pending(0) {
		t.Fatalf("posting to clone leaked into original")
	}
}

// loopMachine reacts to "n" by running a loop of n iterations, each with a
// shared-memory store, and emits only when n is odd: its traces vary in
// length from path to path, and its emissions are sometimes empty.
func loopMachine(t *testing.T) *CFSM {
	t.Helper()
	b := NewBuilder("loop")
	s := b.State("s")
	in := b.Input("n")
	out := b.Output("odd")
	i := b.Var("i", 0)
	b.On(s, in).Named("run").Do(
		Set(i, Const(0)),
		Repeat(b.EvVal(in),
			MemWrite(b.V(i), b.EvVal(in)),
			Set(i, Add(b.V(i), Const(1)))),
		If(Ne(And(b.EvVal(in), Const(1)), Const(0)), Block(Emit(out, b.V(i))), nil),
	).Goto(s)
	m, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	m.Reset()
	return m
}

// TestReactPresizedTracesKeepContents checks that sizing a reaction's traces
// from earlier reactions changes capacities only: a machine warmed by a
// long path yields the same reactions (nil where nothing was appended) as a
// fresh one, and a repeated path gets exactly sized traces.
func TestReactPresizedTracesKeepContents(t *testing.T) {
	warm := loopMachine(t)
	warm.Post(0, 9)
	if _, ok := warm.React(fakeMem{}); !ok {
		t.Fatal("warm-up did not react")
	}
	for _, n := range []Value{2, 9, 0, 3} {
		fresh := loopMachine(t)
		fresh.Post(0, n)
		warm.Post(0, n)
		want, _ := fresh.React(fakeMem{})
		got, ok := warm.React(fakeMem{})
		if !ok {
			t.Fatalf("n=%d: warm machine did not react", n)
		}
		want.Machine, got.Machine = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: presized reaction differs:\nhave %+v\nwant %+v", n, got, want)
		}
		if n == 9 && (cap(got.Ops) != len(got.Ops) || cap(got.MemOps) != len(got.MemOps) ||
			cap(got.Decisions) != len(got.Decisions) || cap(got.Emits) != len(got.Emits)) {
			t.Fatalf("repeated longest path not exactly sized: ops %d/%d memops %d/%d decisions %d/%d emits %d/%d",
				len(got.Ops), cap(got.Ops), len(got.MemOps), cap(got.MemOps),
				len(got.Decisions), cap(got.Decisions), len(got.Emits), cap(got.Emits))
		}
	}
}

// TestCloneCopiesTraceSizes guards concurrent sessions: the per-transition
// trace sizes are runtime state, so a clone must own its copy — growing
// them on the clone must not write into the original's.
func TestCloneCopiesTraceSizes(t *testing.T) {
	m := loopMachine(t)
	m.Post(0, 1)
	if _, ok := m.React(fakeMem{}); !ok {
		t.Fatal("original did not react")
	}
	before := m.sizes[0]

	c := m.Clone()
	if c.sizes[0] != before {
		t.Fatalf("clone sizes %+v, want the original's %+v", c.sizes[0], before)
	}
	c.Post(0, 7)
	if _, ok := c.React(fakeMem{}); !ok {
		t.Fatal("clone did not react")
	}
	if c.sizes[0] == before {
		t.Fatal("longer path did not grow the clone's sizes")
	}
	if m.sizes[0] != before {
		t.Fatalf("clone reaction changed the original's sizes: %+v, want %+v", m.sizes[0], before)
	}
}
