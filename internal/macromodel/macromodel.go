// Package macromodel implements the software power macro-modeling
// acceleration of §4.1 of the paper: every POLIS macro-operation is
// pre-characterized for delay, code size and energy by compiling a template
// program down to target instructions and measuring it on the ISS (the flow
// of Fig 3); at co-simulation time a reaction is costed by summing the
// per-operation table entries over its macro-op trace, never invoking the
// ISS.
//
// The model is additive and therefore conservative (paper §5.2): a
// characterized operation includes its own operand fetches, while real
// compiled code keeps intermediate results of compound expressions in
// registers. The over-estimate grows with expression depth — exactly the
// structural pessimism the paper reports (~20-33%), with high relative
// accuracy ("tracking fidelity").
package macromodel

import (
	"fmt"

	"repro/internal/cfsm"
	"repro/internal/iss"
	"repro/internal/paramfile"
	"repro/internal/swsyn"
	"repro/internal/units"
)

// Table is the characterized macro-operation cost model.
type Table struct {
	Clock  units.Frequency
	Cycles [cfsm.NumOps]float64      // per executed op
	Energy [cfsm.NumOps]units.Energy // per executed op
	Size   [cfsm.NumOps]float64      // code bytes per static op
}

// Cost sums the table over a macro-op trace.
func (t *Table) Cost(ops []cfsm.OpKind) (cycles float64, energy units.Energy) {
	for _, op := range ops {
		cycles += t.Cycles[op]
		energy += t.Energy[op]
	}
	return cycles, energy
}

// CostOfReaction costs one behavioral reaction.
func (t *Table) CostOfReaction(r *cfsm.Reaction) (cycles uint64, energy units.Energy) {
	c, e := t.Cost(r.Ops)
	return uint64(c + 0.5), e
}

// ToParamFile renders the table in the POLIS parameter-file format of Fig 3
// (time in cycles, size in bytes, energy in nJ).
func (t *Table) ToParamFile() *paramfile.File {
	f := paramfile.New()
	for _, op := range cfsm.AllOps() {
		f.Set(op.String(), t.Cycles[op], t.Size[op], t.Energy[op].Nanojoules())
	}
	return f
}

// FromParamFile reconstructs a table from a parameter file.
func FromParamFile(f *paramfile.File, clock units.Frequency) (*Table, error) {
	if f.UnitEnergy != "nJ" || f.UnitTime != "cycle" {
		return nil, fmt.Errorf("macromodel: unsupported units %s/%s", f.UnitTime, f.UnitEnergy)
	}
	t := &Table{Clock: clock}
	for _, op := range cfsm.AllOps() {
		name := op.String()
		t.Cycles[op] = f.Time[name]
		t.Size[op] = f.Size[name]
		t.Energy[op] = units.Energy(f.Energy[name]) * units.Nanojoule
	}
	return t, nil
}

// measurement is one template-program run.
type measurement struct {
	cycles float64
	energy units.Energy
	size   float64
}

// charBench compiles and measures one template machine: the reaction is run
// three times and the last (steady-state) invocation is reported.
func charBench(m *cfsm.CFSM, timing *iss.TimingModel, power *iss.PowerModel, post []cfsm.Value) (measurement, error) {
	comp, err := swsyn.Compile([]*cfsm.CFSM{m})
	if err != nil {
		return measurement{}, err
	}
	mem := iss.NewMem()
	cpu := iss.New(timing, power, mem)
	cpu.Reset(swsyn.StackTop)
	cpu.LoadProgram(comp.Prog)
	comp.InitMemory(mem)
	mc := comp.Machines[0]

	var st iss.RunStats
	for i := 0; i < 3; i++ {
		m.Reset()
		for p, v := range post {
			m.Post(p, v)
		}
		r, ok := m.React(cfsm.NullEnv{})
		if !ok {
			return measurement{}, fmt.Errorf("macromodel: template %s did not react", m.Name)
		}
		mc.BindReaction(mem, r)
		_, s, err := cpu.Call(mc.Entries[r.TransIdx])
		if err != nil {
			return measurement{}, fmt.Errorf("macromodel: template %s: %w", m.Name, err)
		}
		mc.ReadOutbox(mem, nil)
		st = s
	}
	return measurement{
		cycles: float64(st.Cycles),
		energy: st.Energy,
		size:   float64(mc.CodeSize),
	}, nil
}

func sub(a, b measurement) measurement {
	m := measurement{cycles: a.cycles - b.cycles, energy: a.energy - b.energy, size: a.size - b.size}
	if m.cycles < 0 {
		m.cycles = 0
	}
	if m.energy < 0 {
		m.energy = 0
	}
	if m.size < 0 {
		m.size = 0
	}
	return m
}

func scale(a measurement, k float64) measurement {
	return measurement{cycles: a.cycles * k, energy: units.Energy(float64(a.energy) * k), size: a.size * k}
}

// templates builds the characterization machine for an op appearing once on
// top of the assign baseline (function ops), or a dedicated structure
// (control ops). The bool result reports whether AVV must be subtracted.
func fnTemplate(op cfsm.OpKind) (*cfsm.CFSM, []cfsm.Value) {
	b := cfsm.NewBuilder("tmpl_" + op.String())
	s := b.State("s")
	in := b.Input("IN")
	v := b.Var("V", 0)
	w := b.Var("W", 3)
	u := b.Var("U", 5)
	x := b.Var("X", 7)
	var e *cfsm.Expr
	switch op {
	case cfsm.ANEG, cfsm.AABS, cfsm.ANOT, cfsm.ALNOT:
		e = cfsm.Fn(op, b.V(w))
	case cfsm.AMUX:
		e = cfsm.Fn(op, b.V(w), b.V(u), b.V(x))
	default:
		e = cfsm.Fn(op, b.V(w), b.V(u))
	}
	b.On(s, in).Do(cfsm.Set(v, e))
	return b.MustBuild(), []cfsm.Value{1}
}

// Characterize runs the full Fig 3 flow: every macro-operation is measured
// on the ISS via generated template programs, by differential measurement
// against a baseline reaction.
func Characterize(timing *iss.TimingModel, power *iss.PowerModel) (*Table, error) {
	t := &Table{Clock: timing.Clock}
	meas := func(m *cfsm.CFSM, post ...cfsm.Value) (measurement, error) {
		return charBench(m, timing, power, post)
	}

	mkBase := func(name string, triggers int) *cfsm.CFSM {
		b := cfsm.NewBuilder(name)
		s := b.State("s")
		ins := make([]int, triggers)
		for i := range ins {
			ins[i] = b.Input(fmt.Sprintf("IN%d", i))
		}
		b.On(s, ins...).Do()
		return b.MustBuild()
	}
	base, err := meas(mkBase("base1", 1), 1)
	if err != nil {
		return nil, err
	}
	base2, err := meas(mkBase("base2", 2), 1, 1)
	if err != nil {
		return nil, err
	}
	detect := sub(base2, base)
	t.set(cfsm.ADETECT, detect)
	t.set(cfsm.ARET, sub(base, detect))

	simple := func(name string, build func(b *cfsm.Builder, in int) []cfsm.Stmt, post cfsm.Value) (measurement, error) {
		b := cfsm.NewBuilder(name)
		s := b.State("s")
		in := b.Input("IN")
		stmts := build(b, in)
		b.On(s, in).Do(stmts...)
		return meas(b.MustBuild(), post)
	}

	// AVV / AVC: variable and constant assignment.
	avv, err := simple("avv", func(b *cfsm.Builder, in int) []cfsm.Stmt {
		v := b.Var("V", 0)
		w := b.Var("W", 3)
		return cfsm.Block(cfsm.Set(v, b.V(w)))
	}, 1)
	if err != nil {
		return nil, err
	}
	avvCost := sub(avv, base)
	t.set(cfsm.AVV, avvCost)

	avc, err := simple("avc", func(b *cfsm.Builder, in int) []cfsm.Stmt {
		v := b.Var("V", 0)
		return cfsm.Block(cfsm.Set(v, cfsm.Const(1)))
	}, 1)
	if err != nil {
		return nil, err
	}
	t.set(cfsm.AVC, sub(avc, base))

	// AEMIT.
	aemit, err := simple("aemit", func(b *cfsm.Builder, in int) []cfsm.Stmt {
		w := b.Var("W", 3)
		out := b.Output("OUT")
		return cfsm.Block(cfsm.Emit(out, b.V(w)))
	}, 1)
	if err != nil {
		return nil, err
	}
	t.set(cfsm.AEMIT, sub(aemit, base))

	// TIVART / TIVARF: test on a variable, taken / fallthrough.
	tiv := func(name string, init cfsm.Value) (measurement, error) {
		return simple(name, func(b *cfsm.Builder, in int) []cfsm.Stmt {
			w := b.Var("W", init)
			return cfsm.Block(cfsm.If(b.V(w), nil, nil))
		}, 1)
	}
	tt, err := tiv("tivart", 1)
	if err != nil {
		return nil, err
	}
	t.set(cfsm.TIVART, sub(tt, base))
	tf, err := tiv("tivarf", 0)
	if err != nil {
		return nil, err
	}
	t.set(cfsm.TIVARF, sub(tf, base))

	// AREPEAT: two empty iterations, halved.
	rep, err := simple("arepeat", func(b *cfsm.Builder, in int) []cfsm.Stmt {
		return cfsm.Block(cfsm.Repeat(cfsm.Const(2)))
	}, 1)
	if err != nil {
		return nil, err
	}
	t.set(cfsm.AREPEAT, scale(sub(rep, base), 0.5))

	// ALOAD / ASTORE: shared-memory access.
	ald, err := simple("aload", func(b *cfsm.Builder, in int) []cfsm.Stmt {
		v := b.Var("V", 0)
		return cfsm.Block(cfsm.MemRead(v, cfsm.Const(0)))
	}, 1)
	if err != nil {
		return nil, err
	}
	t.set(cfsm.ALOAD, sub(ald, base))
	ast, err := simple("astore", func(b *cfsm.Builder, in int) []cfsm.Stmt {
		w := b.Var("W", 3)
		return cfsm.Block(cfsm.MemWrite(cfsm.Const(0), b.V(w)))
	}, 1)
	if err != nil {
		return nil, err
	}
	t.set(cfsm.ASTORE, sub(ast, base))

	// Function ops: each is characterized standalone as Set(v, op(w,u[,x]))
	// minus the baseline — the cost INCLUDES the operation's own operand
	// loads and result store, exactly as the paper's flow compiles "each
	// macro-operation down to a sequence of assembly-level instructions"
	// and measures it in isolation. This is the source of the additive
	// model's conservatism (§5.2): in real compiled reactions, compound
	// expressions keep intermediates in registers and assignments share the
	// store, but the summed table charges each op's staging again.
	fnOps := []cfsm.OpKind{
		cfsm.AADD, cfsm.ASUB, cfsm.AMUL, cfsm.ADIV, cfsm.AMOD, cfsm.ANEG,
		cfsm.AABS, cfsm.AMIN, cfsm.AMAX, cfsm.AAND, cfsm.AOR, cfsm.AXOR,
		cfsm.ANOT, cfsm.ASHL, cfsm.ASHR, cfsm.AEQ, cfsm.ANE, cfsm.ALT,
		cfsm.ALE, cfsm.AGT, cfsm.AGE, cfsm.ALAND, cfsm.ALOR, cfsm.ALNOT,
		cfsm.AMUX,
	}
	for _, op := range fnOps {
		m, post := fnTemplate(op)
		got, err := charBench(m, timing, power, post)
		if err != nil {
			return nil, err
		}
		// The template is Set(v, op(...)): attribute the result store (the
		// store half of AVV) to the consuming assignment, keeping the
		// operand loads in the operation's own cost.
		t.set(op, sub(sub(got, base), scale(avvCost, 0.5)))
	}
	return t, nil
}

func (t *Table) set(op cfsm.OpKind, m measurement) {
	t.Cycles[op] = m.cycles
	t.Energy[op] = m.energy
	t.Size[op] = m.size
}
