package swsyn

import (
	"math/rand"
	"testing"

	"repro/internal/cfsm"
	"repro/internal/iss"
)

// harness compiles machines, loads them into an ISS, and provides a replay
// step that runs one behavioral reaction and its generated code side by
// side, failing on any divergence.
type harness struct {
	t    *testing.T
	c    *Compiled
	cpu  *iss.CPU
	env  cfsm.Env
	mem  *iss.Mem
	shm  sharedMem
	seen []uint32 // fetch trace of the last replay
}

type sharedMem map[uint32]cfsm.Value

func (m sharedMem) MemRead(a uint32) cfsm.Value     { return m[a] }
func (m sharedMem) MemWrite(a uint32, v cfsm.Value) { m[a] = v }

func newHarness(t *testing.T, machines ...*cfsm.CFSM) *harness {
	t.Helper()
	c, err := Compile(machines)
	if err != nil {
		t.Fatal(err)
	}
	mem := iss.NewMem()
	cpu := iss.New(iss.SPARCliteTiming(), iss.SPARCliteModel(), mem)
	cpu.Reset(StackTop)
	cpu.LoadProgram(c.Prog)
	c.InitMemory(mem)
	return &harness{t: t, c: c, cpu: cpu, mem: mem, shm: sharedMem{}}
}

// replay posts the given events, reacts behaviorally, then replays the
// reaction on the ISS and cross-checks everything.
func (h *harness) replay(mi int, post map[int]cfsm.Value) *cfsm.Reaction {
	h.t.Helper()
	mc := h.c.Machines[mi]
	m := mc.M
	for p, v := range post {
		m.Post(p, v)
	}
	r, ok := m.React(h.shm)
	if !ok {
		h.t.Fatalf("machine %s did not react", m.Name)
	}

	mc.BindReaction(h.mem, r)
	h.seen = h.seen[:0]
	h.cpu.FetchHook = func(a uint32) { h.seen = append(h.seen, a) }
	_, _, err := h.cpu.Call(mc.Entries[r.TransIdx])
	h.cpu.FetchHook = nil
	if err != nil {
		h.t.Fatalf("generated code for %s t%d: %v", m.Name, r.TransIdx, err)
	}

	// Variables must agree.
	got := mc.VarValues(h.mem)
	for vi, name := range m.VarNames {
		if got[vi] != m.VarValue(vi) {
			h.t.Fatalf("%s var %s: generated %d, behavioral %d (path %x)",
				m.Name, name, got[vi], m.VarValue(vi), r.Path)
		}
	}

	// Emissions: outbox must hold the last emission per port.
	want := map[int]cfsm.Value{}
	for _, e := range r.Emits {
		want[e.Port] = e.Value
	}
	outs := mc.ReadOutbox(h.mem, nil)
	if len(outs) != len(want) {
		h.t.Fatalf("%s: outbox %v, want %v", m.Name, outs, want)
	}
	for _, e := range outs {
		if wv, ok := want[e.Port]; !ok || wv != e.Value {
			h.t.Fatalf("%s: outbox %v, want %v", m.Name, outs, want)
		}
	}

	// Shared-memory writes must agree.
	for _, op := range r.MemOps {
		if op.Write {
			if gv := cfsm.Value(h.mem.Read32(SharedBase + op.Addr*4)); gv != op.Data {
				h.t.Fatalf("%s: shared[%d] generated %d, behavioral %d", m.Name, op.Addr, gv, op.Data)
			}
		}
	}

	// The statically reconstructed fetch trace must match the ISS exactly.
	ranges, err := mc.FetchTrace(r, nil)
	if err != nil {
		h.t.Fatalf("FetchTrace: %v", err)
	}
	wantTrace := TraceAddrs(ranges)
	if len(wantTrace) != len(h.seen) {
		h.t.Fatalf("%s t%d path %x: static trace %d fetches, ISS %d",
			m.Name, r.TransIdx, r.Path, len(wantTrace), len(h.seen))
	}
	for i := range wantTrace {
		if wantTrace[i] != h.seen[i] {
			h.t.Fatalf("%s t%d fetch %d: static %#x, ISS %#x",
				m.Name, r.TransIdx, i, wantTrace[i], h.seen[i])
		}
	}
	return r
}

// exprMachine wires a single-transition machine computing V = f(EV, V).
func exprMachine(name string, build func(b *cfsm.Builder, in, v int) cfsm.Stmt) *cfsm.CFSM {
	b := cfsm.NewBuilder(name)
	s := b.State("s")
	in := b.Input("IN")
	v := b.Var("V", 7)
	b.On(s, in).Do(build(b, in, v))
	return b.MustBuild()
}

func TestAllExpressionOpsMatchBehavioral(t *testing.T) {
	type tc struct {
		name  string
		build func(b *cfsm.Builder, in, v int) *cfsm.Expr
	}
	cases := []tc{
		{"add", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Add(b.EvVal(in), b.V(v)) }},
		{"sub", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Sub(b.EvVal(in), b.V(v)) }},
		{"mul", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Mul(b.EvVal(in), b.V(v)) }},
		{"div", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Fn(cfsm.ADIV, b.EvVal(in), b.V(v)) }},
		{"mod", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Fn(cfsm.AMOD, b.EvVal(in), b.V(v)) }},
		{"neg", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Fn(cfsm.ANEG, b.EvVal(in)) }},
		{"abs", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Fn(cfsm.AABS, b.EvVal(in)) }},
		{"min", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Fn(cfsm.AMIN, b.EvVal(in), b.V(v)) }},
		{"max", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Fn(cfsm.AMAX, b.EvVal(in), b.V(v)) }},
		{"and", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.And(b.EvVal(in), b.V(v)) }},
		{"or", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Or(b.EvVal(in), b.V(v)) }},
		{"xor", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Xor(b.EvVal(in), b.V(v)) }},
		{"not", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Fn(cfsm.ANOT, b.EvVal(in)) }},
		{"shl", func(b *cfsm.Builder, in, v int) *cfsm.Expr {
			return cfsm.Fn(cfsm.ASHL, b.EvVal(in), cfsm.Const(3))
		}},
		{"shr", func(b *cfsm.Builder, in, v int) *cfsm.Expr {
			return cfsm.Fn(cfsm.ASHR, b.EvVal(in), cfsm.Const(2))
		}},
		{"eq", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Eq(b.EvVal(in), b.V(v)) }},
		{"ne", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Ne(b.EvVal(in), b.V(v)) }},
		{"lt", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Lt(b.EvVal(in), b.V(v)) }},
		{"le", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Le(b.EvVal(in), b.V(v)) }},
		{"gt", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Gt(b.EvVal(in), b.V(v)) }},
		{"ge", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Ge(b.EvVal(in), b.V(v)) }},
		{"land", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Fn(cfsm.ALAND, b.EvVal(in), b.V(v)) }},
		{"lor", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Fn(cfsm.ALOR, b.EvVal(in), b.V(v)) }},
		{"lnot", func(b *cfsm.Builder, in, v int) *cfsm.Expr { return cfsm.Fn(cfsm.ALNOT, b.EvVal(in)) }},
		{"mux", func(b *cfsm.Builder, in, v int) *cfsm.Expr {
			return cfsm.Fn(cfsm.AMUX, b.EvVal(in), b.V(v), cfsm.Const(-3))
		}},
		{"nested", func(b *cfsm.Builder, in, v int) *cfsm.Expr {
			return cfsm.Add(cfsm.Mul(b.EvVal(in), cfsm.Const(3)),
				cfsm.Fn(cfsm.AMIN, b.V(v), cfsm.Sub(b.EvVal(in), cfsm.Const(100))))
		}},
		{"bigconst", func(b *cfsm.Builder, in, v int) *cfsm.Expr {
			return cfsm.Add(b.EvVal(in), cfsm.Const(123456))
		}},
	}
	inputs := []cfsm.Value{0, 1, -1, 7, -7, 100, -4096, 4095, 123456, -123456, 1 << 30}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := exprMachine(c.name, func(b *cfsm.Builder, in, v int) cfsm.Stmt {
				return cfsm.Set(v, c.build(b, in, v))
			})
			h := newHarness(t, m)
			for _, x := range inputs {
				h.replay(0, map[int]cfsm.Value{0: x})
			}
		})
	}
}

func TestBranchesAndLoops(t *testing.T) {
	b := cfsm.NewBuilder("ctl")
	s := b.State("s")
	in := b.Input("IN")
	out := b.Output("OUT")
	acc := b.Var("ACC", 0)
	n := b.Var("N", 0)
	b.On(s, in).Do(
		cfsm.Set(n, b.EvVal(in)),
		cfsm.If(cfsm.Gt(b.V(n), cfsm.Const(10)),
			cfsm.Block(
				cfsm.Set(acc, cfsm.Const(0)),
				cfsm.Repeat(b.V(n),
					cfsm.Set(acc, cfsm.Add(b.V(acc), cfsm.Const(2))),
				),
			),
			cfsm.Block(
				cfsm.If(cfsm.Eq(b.V(n), cfsm.Const(5)),
					cfsm.Block(cfsm.Emit(out, b.V(acc))),
					nil,
				),
			),
		),
	)
	m := b.MustBuild()
	h := newHarness(t, m)
	for _, x := range []cfsm.Value{0, 5, 11, 20, 5, 3, 100} {
		h.replay(0, map[int]cfsm.Value{0: x})
	}
	if got := m.VarValue(0); got != 200 {
		t.Fatalf("ACC = %d, want 200", got)
	}
}

func TestNestedLoops(t *testing.T) {
	b := cfsm.NewBuilder("nest")
	s := b.State("s")
	in := b.Input("GO")
	acc := b.Var("ACC", 0)
	b.On(s, in).Do(
		cfsm.Set(acc, cfsm.Const(0)),
		cfsm.Repeat(b.EvVal(in),
			cfsm.Repeat(cfsm.Const(3),
				cfsm.Set(acc, cfsm.Add(b.V(acc), cfsm.Const(1))),
			),
			cfsm.Set(acc, cfsm.Add(b.V(acc), cfsm.Const(10))),
		),
	)
	m := b.MustBuild()
	h := newHarness(t, m)
	for _, x := range []cfsm.Value{0, 1, 2, 4} {
		r := h.replay(0, map[int]cfsm.Value{0: x})
		want := x * 13
		if got := m.VarValue(0); got != want {
			t.Fatalf("n=%d: ACC = %d, want %d (path %x)", x, got, want, r.Path)
		}
	}
}

func TestGuardedTransitions(t *testing.T) {
	b := cfsm.NewBuilder("guard")
	s := b.State("s")
	in := b.Input("IN")
	v := b.Var("V", 0)
	b.On(s, in).When(cfsm.Ge(b.EvVal(in), cfsm.Const(10))).Do(
		cfsm.Set(v, cfsm.Const(1)))
	b.On(s, in).Do(cfsm.Set(v, cfsm.Const(2)))
	m := b.MustBuild()
	h := newHarness(t, m)
	r := h.replay(0, map[int]cfsm.Value{0: 50})
	if r.TransIdx != 0 || m.VarValue(0) != 1 {
		t.Fatal("guarded transition mismatch")
	}
	r = h.replay(0, map[int]cfsm.Value{0: 5})
	if r.TransIdx != 1 || m.VarValue(0) != 2 {
		t.Fatal("fallback transition mismatch")
	}
}

func TestSharedMemoryRoundTrip(t *testing.T) {
	b := cfsm.NewBuilder("shm")
	s := b.State("s")
	in := b.Input("GO")
	v := b.Var("V", 0)
	b.On(s, in).Do(
		cfsm.MemWrite(cfsm.Const(8), cfsm.Mul(b.EvVal(in), cfsm.Const(3))),
		cfsm.MemRead(v, cfsm.Const(8)),
		cfsm.Set(v, cfsm.Add(b.V(v), cfsm.Const(1))),
	)
	m := b.MustBuild()
	h := newHarness(t, m)
	h.replay(0, map[int]cfsm.Value{0: 14})
	if got := m.VarValue(0); got != 43 {
		t.Fatalf("V = %d, want 43", got)
	}
}

func TestSharedMemoryReadSeeding(t *testing.T) {
	// A read of a location the generated code never wrote must still see
	// the behavioral value (BindReaction seeds it).
	b := cfsm.NewBuilder("seed")
	s := b.State("s")
	in := b.Input("GO")
	v := b.Var("V", 0)
	b.On(s, in).Do(cfsm.MemRead(v, cfsm.Const(3)))
	m := b.MustBuild()
	h := newHarness(t, m)
	h.shm[3] = 777
	h.replay(0, map[int]cfsm.Value{0: 0})
	if got := m.VarValue(0); got != 777 {
		t.Fatalf("V = %d, want 777", got)
	}
}

func TestMultiMachineImage(t *testing.T) {
	m1 := exprMachine("m1", func(b *cfsm.Builder, in, v int) cfsm.Stmt {
		return cfsm.Set(v, cfsm.Add(b.EvVal(in), cfsm.Const(1)))
	})
	m2 := exprMachine("m2", func(b *cfsm.Builder, in, v int) cfsm.Stmt {
		return cfsm.Set(v, cfsm.Mul(b.EvVal(in), cfsm.Const(2)))
	})
	h := newHarness(t, m1, m2)
	h.replay(0, map[int]cfsm.Value{0: 5})
	h.replay(1, map[int]cfsm.Value{0: 5})
	if m1.VarValue(0) != 6 || m2.VarValue(0) != 10 {
		t.Fatal("multi-machine image cross-talk")
	}
	// Data regions must not overlap.
	a, b := h.c.Machines[0], h.c.Machines[1]
	if a.VarsBase == b.VarsBase {
		t.Fatal("machines share a data region")
	}
}

func TestEmitEnergyCostlierThanAssign(t *testing.T) {
	mAssign := exprMachine("assign", func(b *cfsm.Builder, in, v int) cfsm.Stmt {
		return cfsm.Set(v, b.EvVal(in))
	})
	bld := cfsm.NewBuilder("emit")
	s := bld.State("s")
	in := bld.Input("IN")
	out := bld.Output("OUT")
	bld.On(s, in).Do(cfsm.Emit(out, bld.EvVal(in)))
	mEmit := bld.MustBuild()

	measure := func(m *cfsm.CFSM) float64 {
		h := newHarness(t, m)
		mc := h.c.Machines[0]
		m.Post(0, 1)
		r, _ := m.React(h.shm)
		mc.BindReaction(h.mem, r)
		_, st, err := h.cpu.Call(mc.Entries[r.TransIdx])
		if err != nil {
			t.Fatal(err)
		}
		return float64(st.Energy)
	}
	ea, ee := measure(mAssign), measure(mEmit)
	if ee <= ea {
		t.Fatalf("AEMIT (%g) must cost more than AVV (%g)", ee, ea)
	}
}

func TestStateMachineSequence(t *testing.T) {
	// Two states with different reactions; replay follows the behavioral
	// state, which is what the master does.
	b := cfsm.NewBuilder("fsm")
	sA := b.State("A")
	sB := b.State("B")
	in := b.Input("T")
	v := b.Var("V", 0)
	b.On(sA, in).Do(cfsm.Set(v, cfsm.Add(b.V(v), cfsm.Const(1)))).Goto(sB)
	b.On(sB, in).Do(cfsm.Set(v, cfsm.Mul(b.V(v), cfsm.Const(10)))).Goto(sA)
	m := b.MustBuild()
	h := newHarness(t, m)
	for i := 0; i < 6; i++ {
		h.replay(0, map[int]cfsm.Value{0: 0})
	}
	// ((0+1)*10+1)*10+1)*10 = 1110
	if got := m.VarValue(0); got != 1110 {
		t.Fatalf("V = %d, want 1110", got)
	}
}

// Property-style fuzz: a randomized machine exercising mixed control flow
// replayed over many random inputs never diverges.
func TestFuzzReplayEquivalence(t *testing.T) {
	b := cfsm.NewBuilder("fuzz")
	s := b.State("s")
	in := b.Input("IN")
	out := b.Output("OUT")
	v1 := b.Var("V1", 3)
	v2 := b.Var("V2", -5)
	b.On(s, in).Do(
		cfsm.Set(v1, cfsm.Xor(b.V(v1), b.EvVal(in))),
		cfsm.If(cfsm.Lt(b.V(v1), cfsm.Const(0)),
			cfsm.Block(cfsm.Set(v1, cfsm.Fn(cfsm.AABS, b.V(v1)))),
			cfsm.Block(cfsm.Set(v2, cfsm.Add(b.V(v2), cfsm.Const(1)))),
		),
		cfsm.Repeat(cfsm.Fn(cfsm.AMOD, b.V(v1), cfsm.Const(5)),
			cfsm.Set(v2, cfsm.Add(b.V(v2), b.V(v1))),
		),
		cfsm.If(cfsm.Gt(b.V(v2), cfsm.Const(100)),
			cfsm.Block(cfsm.Emit(out, b.V(v2)), cfsm.Set(v2, cfsm.Const(0))),
			nil,
		),
	)
	m := b.MustBuild()
	h := newHarness(t, m)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		h.replay(0, map[int]cfsm.Value{0: cfsm.Value(rng.Int31() - 1<<30)})
	}
}

func TestFetchTraceErrors(t *testing.T) {
	m := exprMachine("m", func(b *cfsm.Builder, in, v int) cfsm.Stmt {
		return cfsm.Set(v, b.EvVal(in))
	})
	c, err := Compile([]*cfsm.CFSM{m})
	if err != nil {
		t.Fatal(err)
	}
	mc := c.Machines[0]
	if _, err := mc.FetchTrace(&cfsm.Reaction{TransIdx: 99}, nil); err == nil {
		t.Error("out-of-range transition must error")
	}
	// Stale decisions (too many) must be rejected.
	m.Post(0, 1)
	r, _ := m.React(cfsm.NullEnv{})
	r.Decisions = append(r.Decisions, 1)
	if _, err := mc.FetchTrace(r, nil); err == nil {
		t.Error("unconsumed decisions must error")
	}
}

func TestCompileLimits(t *testing.T) {
	b := cfsm.NewBuilder("big")
	b.State("s")
	for i := 0; i < 129; i++ {
		b.Var(fmt_v(i), 0)
	}
	m := b.MustBuild()
	if _, err := Compile([]*cfsm.CFSM{m}); err == nil {
		t.Error("too many variables must fail compilation")
	}
}

func fmt_v(i int) string { return "v" + string(rune('a'+i/26)) + string(rune('a'+i%26)) }

func TestStaticOpCount(t *testing.T) {
	m := exprMachine("m", func(b *cfsm.Builder, in, v int) cfsm.Stmt {
		return cfsm.Set(v, b.EvVal(in))
	})
	c, err := Compile([]*cfsm.CFSM{m})
	if err != nil {
		t.Fatal(err)
	}
	if c.Machines[0].StaticOpCount() <= 0 {
		t.Error("zero static op count")
	}
	if c.EmitRange.Len() <= 0 {
		t.Error("rt_emit has no body")
	}
}
