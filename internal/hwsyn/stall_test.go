package hwsyn

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/cfsm"
	"repro/internal/gate"
	"repro/internal/units"
)

// steppedStall is the reference Stall: every wait cycle through Sim.Cycle.
func steppedStall(e *Exec, n uint64) {
	e.d.set(e.d.Mod.MemAck, false)
	for i := uint64(0); i < n; i++ {
		e.cycle()
	}
	e.stats.StallCycles += n
}

// steppedIdle is the reference IdleCycles: every cycle through Sim.Cycle.
func steppedIdle(d *Driver, n uint64) units.Energy {
	d.set(d.Mod.Go, false)
	var e units.Energy
	for i := uint64(0); i < n; i++ {
		e += d.Sim.Cycle(d.in)
	}
	return e
}

// sameRun fails unless two runs are indistinguishable: the same stats, to
// the energy bit, and the same simulator totals and history.
func sameRun(t *testing.T, label string, got, want ExecStats, dg, dw *Driver) {
	t.Helper()
	if math.Float64bits(float64(got.Energy)) != math.Float64bits(float64(want.Energy)) ||
		got.Cycles != want.Cycles || got.StallCycles != want.StallCycles ||
		got.MemOps != want.MemOps || !reflect.DeepEqual(got.Emits, want.Emits) {
		t.Fatalf("%s: energy/cycles/stalls/memops/emits %v/%d/%d/%d/%d, stepped %v/%d/%d/%d/%d", label,
			got.Energy, got.Cycles, got.StallCycles, got.MemOps, len(got.Emits),
			want.Energy, want.Cycles, want.StallCycles, want.MemOps, len(want.Emits))
	}
	gs, ws := dg.Sim, dw.Sim
	if math.Float64bits(float64(gs.Energy())) != math.Float64bits(float64(ws.Energy())) ||
		gs.Cycles() != ws.Cycles() || gs.Evals() != ws.Evals() {
		t.Fatalf("%s: sim energy/cycles/evals %v/%d/%d, stepped %v/%d/%d", label,
			gs.Energy(), gs.Cycles(), gs.Evals(), ws.Energy(), ws.Cycles(), ws.Evals())
	}
	gh, wh := gs.History(), ws.History()
	if len(gh) != len(wh) {
		t.Fatalf("%s: history %d cycles, stepped %d", label, len(gh), len(wh))
	}
	for i := range gh {
		if math.Float64bits(float64(gh[i])) != math.Float64bits(float64(wh[i])) {
			t.Fatalf("%s: history[%d] %v, stepped %v", label, i, gh[i], wh[i])
		}
	}
}

// twin returns two recording drivers over one module.
func twin(t *testing.T, mod *Module) (*Driver, *Driver) {
	t.Helper()
	var ds [2]*Driver
	for i := range ds {
		d, err := NewDriver(mod, 3.3)
		if err != nil {
			t.Fatal(err)
		}
		d.Sim.Record(true)
		ds[i] = d
	}
	return ds[0], ds[1]
}

// execStalled runs one transition through the Begin/Run/Credit protocol,
// stalling every memory access for wait cycles with stall. With sync set,
// the variable registers are forced to 7 just before each stall.
func execStalled(t *testing.T, d *Driver, r *cfsm.Reaction, shm sharedMem, wait uint64, sync bool, stall func(*Exec, uint64)) ExecStats {
	t.Helper()
	e, err := d.Begin(r)
	if err != nil {
		t.Fatal(err)
	}
	for {
		req, needMem, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !needMem {
			return e.Stats()
		}
		if sync {
			d.SyncVars([]uint32{7})
		}
		stall(e, wait)
		if req.Write {
			e.CreditWrite(req.Addr)
		} else {
			e.CreditRead(req.Addr, uint32(shm[req.Addr]))
		}
	}
}

// TestStallMatchesStepping checks that fast-forwarded bus stalls and idle
// cycles leave exactly the stats, simulator totals and history of stepping
// every cycle, including when the registers were re-synchronized just
// before the stall.
func TestStallMatchesStepping(t *testing.T) {
	b := cfsm.NewBuilder("shm")
	s := b.State("s")
	in := b.Input("GO")
	out := b.Output("DONE")
	v := b.Var("V", 0)
	b.On(s, in).Do(
		cfsm.MemRead(v, cfsm.Const(5)),
		cfsm.Set(v, cfsm.Add(b.V(v), cfsm.Const(1))),
		cfsm.MemWrite(cfsm.Const(6), b.V(v)),
		cfsm.Emit(out, b.V(v)),
	)
	m := b.MustBuild()
	mod, err := Synthesize(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	shm := sharedMem{5: 41}
	for _, sync := range []bool{false, true} {
		for _, n := range []uint64{0, 1, 2, 1000} {
			label := fmt.Sprintf("sync=%v wait=%d", sync, n)
			fast, ref := twin(t, mod)
			for rep := 0; rep < 2; rep++ {
				m.Post(0, 0)
				r, _ := m.React(shm)
				got := execStalled(t, fast, r, shm, n, sync, (*Exec).Stall)
				want := execStalled(t, ref, r, shm, n, sync, steppedStall)
				sameRun(t, label, got, want, fast, ref)
				if len(got.Emits) != 1 || got.StallCycles != 2*n {
					t.Fatalf("%s: %d emits, %d stall cycles; want 1, %d", label, len(got.Emits), got.StallCycles, 2*n)
				}
			}
			e, want := fast.IdleCycles(n), steppedIdle(ref, n)
			sameRun(t, label+" idle", ExecStats{Energy: e}, ExecStats{Energy: want}, fast, ref)
		}
	}
}

// handModule wraps a hand-built netlist as a module with the driver's
// control inputs, so stalls can hold states no synthesized engine reaches.
func handModule(n *gate.Netlist, goNet, ack gate.NetID, out gate.NetID, vars ...gate.Word) *Module {
	mod := &Module{N: n, Width: 1, Go: goNet, MemAck: ack, VarRegs: vars}
	if out >= 0 {
		mod.OutPresent = []gate.NetID{out}
		mod.OutVals = []gate.Word{{out}}
	}
	return mod
}

// stallBoth stalls fast and ref n cycles each, after prep has run on both
// drivers, and checks the outcomes match.
func stallBoth(t *testing.T, label string, mod *Module, n uint64, prep func(*Driver)) (*Driver, ExecStats) {
	t.Helper()
	fast, ref := twin(t, mod)
	prep(fast)
	prep(ref)
	ef, er := &Exec{d: fast}, &Exec{d: ref}
	ef.Stall(n)
	steppedStall(er, n)
	sameRun(t, label, ef.stats, er.stats, fast, ref)
	e, want := fast.IdleCycles(n), steppedIdle(ref, n)
	sameRun(t, label+" idle", ExecStats{Energy: e}, ExecStats{Energy: want}, fast, ref)
	return fast, ef.stats
}

// TestStallHoldsOnlyAtFixpoint covers the held cycles that must not be
// fast-forwarded: one that is not quiet, one that emits, and one right after
// a register synchronization that forced a flop away from its D value.
// Crediting any of them in bulk would change the result.
func TestStallHoldsOnlyAtFixpoint(t *testing.T) {
	const n = 1000

	t.Run("not quiet", func(t *testing.T) {
		nl := gate.NewNetlist("toggle")
		goNet, ack := nl.Input("go"), nl.Input("ack")
		d := nl.Net("d")
		q := nl.Flop(d, false, "q")
		nl.GateInto(gate.Not, d, q)
		fast, _ := stallBoth(t, "toggle", handModule(nl, goNet, ack, -1), n, func(*Driver) {})
		if fast.Sim.Toggles(q) != 2*n {
			t.Fatalf("toggle flop switched %d times, want %d", fast.Sim.Toggles(q), 2*n)
		}
	})

	t.Run("emits", func(t *testing.T) {
		nl := gate.NewNetlist("emit")
		goNet, ack := nl.Input("go"), nl.Input("ack")
		_, st := stallBoth(t, "emit", handModule(nl, goNet, ack, nl.Inv(goNet)), n, func(*Driver) {})
		if len(st.Emits) != n {
			t.Fatalf("%d emits, want one per stall cycle (%d)", len(st.Emits), n)
		}
	})

	t.Run("forced", func(t *testing.T) {
		nl := gate.NewNetlist("forced")
		goNet, ack, x := nl.Input("go"), nl.Input("ack"), nl.Input("x")
		q := nl.Flop(x, false, "q")
		mod := handModule(nl, goNet, ack, -1, gate.Word{q})
		fast, _ := stallBoth(t, "forced", mod, n, func(d *Driver) {
			d.set(x, true)
			d.IdleCycles(3) // q settles to 1
			d.SyncVars([]uint32{0})
		})
		if fast.VarValue(0) != 1 {
			t.Fatal("the flop forced to 0 did not relaunch its D value")
		}
	})
}

// TestStallZeroAlloc guards the fast-forwarded bus stall: with recording
// off, holding a quiet engine must not allocate.
func TestStallZeroAlloc(t *testing.T) {
	b := cfsm.NewBuilder("stall")
	s := b.State("s")
	in := b.Input("GO")
	v := b.Var("V", 0)
	b.On(s, in).Do(cfsm.MemRead(v, cfsm.Const(0)))
	d := hw(t, b.MustBuild())
	m := d.Mod.M
	m.Post(0, 0)
	r, _ := m.React(sharedMem{})
	e, err := d.Begin(r)
	if err != nil {
		t.Fatal(err)
	}
	if _, needMem, err := e.Run(); err != nil || !needMem {
		t.Fatalf("engine did not stall on memory (err %v)", err)
	}
	e.Stall(2)
	if !d.Sim.Quiet() {
		t.Fatal("stalled engine is not quiet")
	}
	avg := testing.AllocsPerRun(100, func() { e.Stall(1000) })
	if avg != 0 {
		t.Fatalf("fast-forwarded Exec.Stall allocates %v allocs/op, want 0", avg)
	}
}
