package gate

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/units"
)

// oracle is the reference the simulator is checked against: each cycle it
// evaluates every gate in one levelized topological order and captures
// every flop. Energy is charged in the simulator's order (launches, clock,
// inputs, then gate outputs by level and Kahn position), so per-cycle and
// total energies compare bit for bit. It also derives the activity-driven
// evaluation count: a gate counts when any of its input nets changed.
type oracle struct {
	n       *Netlist
	order   []int // gates by level, ties in Kahn (FIFO) order
	val     []bool
	nextQ   []bool
	swE     []units.Energy
	clockE  units.Energy
	toggles []uint64
	changed []bool // nets changed this cycle, or flipped by ForceFlop since the last one
	forced  bool   // ForceFlop called since the last cycle

	cycles, evals uint64
	energy        units.Energy
	history       []units.Energy
	quiet         bool
}

func newOracle(n *Netlist, vdd units.Voltage) *oracle {
	o := &oracle{
		n:       n,
		val:     make([]bool, n.NumNets()),
		nextQ:   make([]bool, len(n.DFFs)),
		swE:     make([]units.Energy, n.NumNets()),
		toggles: make([]uint64, n.NumNets()),
		changed: make([]bool, n.NumNets()),
		clockE:  units.SwitchEnergy(DefaultClockCap, vdd, uint64(len(n.DFFs))),
	}
	driver := make([]int, n.NumNets())
	for i := range driver {
		driver[i] = -1
	}
	for gi, g := range n.Gates {
		driver[g.Out] = gi
	}
	indeg := make([]int, len(n.Gates))
	succ := make([][]int, len(n.Gates))
	for gi, g := range n.Gates {
		for _, in := range g.Ins {
			if d := driver[in]; d >= 0 {
				indeg[gi]++
				succ[d] = append(succ[d], gi)
			}
		}
	}
	var queue []int
	for gi, d := range indeg {
		if d == 0 {
			queue = append(queue, gi)
		}
	}
	for len(queue) > 0 {
		gi := queue[0]
		queue = queue[1:]
		o.order = append(o.order, gi)
		for _, nx := range succ[gi] {
			if indeg[nx]--; indeg[nx] == 0 {
				queue = append(queue, nx)
			}
		}
	}
	level := make([]int, len(n.Gates))
	for _, gi := range o.order {
		for _, in := range n.Gates[gi].Ins {
			if d := driver[in]; d >= 0 && level[d]+1 > level[gi] {
				level[gi] = level[d] + 1
			}
		}
	}
	sort.SliceStable(o.order, func(i, j int) bool { return level[o.order[i]] < level[o.order[j]] })

	caps := make([]units.Capacitance, n.NumNets())
	for i := range caps {
		caps[i] = DefaultWireCap
	}
	for _, g := range n.Gates {
		for _, in := range g.Ins {
			caps[in] += DefaultInputCap
		}
	}
	for _, ff := range n.DFFs {
		caps[ff.D] += DefaultInputCap
	}
	for i := range o.swE {
		o.swE[i] = units.SwitchEnergy(caps[i], vdd, 1)
	}
	o.reset()
	return o
}

func (o *oracle) reset() {
	for i := range o.val {
		o.val[i], o.toggles[i], o.changed[i] = false, 0, false
	}
	for _, ff := range o.n.DFFs {
		o.val[ff.Q] = ff.Init
	}
	for _, gi := range o.order {
		g := o.n.Gates[gi]
		o.val[g.Out] = g.Eval(o.val)
	}
	for i, ff := range o.n.DFFs {
		o.nextQ[i] = o.val[ff.D]
	}
	o.cycles, o.evals, o.energy, o.history = 0, 0, 0, o.history[:0]
	o.forced, o.quiet = false, false
}

func (o *oracle) forceFlop(i int, v bool) {
	o.forced = true
	q := o.n.DFFs[i].Q
	if o.val[q] != v {
		o.val[q] = v
		o.changed[q] = true
	}
	o.nextQ[i] = v
}

func (o *oracle) cycle(t *testing.T, in InputVector) units.Energy {
	var e units.Energy
	quiet := !o.forced
	for i, ff := range o.n.DFFs {
		if o.val[ff.Q] != o.nextQ[i] {
			quiet = false
			o.flip(ff.Q, &e)
		}
	}
	e += o.clockE
	for i, id := range o.n.Inputs {
		if o.val[id] != in[i] {
			quiet = false
			o.flip(id, &e)
		}
	}
	for _, gi := range o.order {
		g := o.n.Gates[gi]
		dirty := false
		for _, in := range g.Ins {
			dirty = dirty || o.changed[in]
		}
		if dirty {
			o.evals++
			quiet = false
		}
		if g.Eval(o.val) != o.val[g.Out] {
			if !dirty {
				t.Fatalf("oracle: gate %d changed with no input change", gi)
			}
			o.flip(g.Out, &e)
		}
	}
	for i, ff := range o.n.DFFs {
		o.nextQ[i] = o.val[ff.D]
	}
	for i := range o.changed {
		o.changed[i] = false
	}
	o.forced, o.quiet = false, quiet
	o.cycles++
	o.energy += e
	o.history = append(o.history, e)
	return e
}

func (o *oracle) flip(id NetID, e *units.Energy) {
	o.val[id] = !o.val[id]
	o.toggles[id]++
	o.changed[id] = true
	*e += o.swE[id]
}

// randomNetlist builds a layered random netlist: every gate in layer L
// reads at least one net of layer L-1, so layer L is level L. Layers are up
// to 200 gates wide, gates take 1-6 inputs of every kind, and every flop
// loads through an enable mux driven by the "en" input (its first input),
// so holding en low freezes the state. With freeRun, a few flops bypass
// the enable and may keep the netlist from ever settling.
func randomNetlist(rng *rand.Rand, layers int, freeRun bool) *Netlist {
	n := NewNetlist("diff")
	en := n.Input("en")
	var prev []NetID
	for i := 0; i < 24; i++ {
		prev = append(prev, n.Input(fmt.Sprintf("in%d", i)))
	}
	const nFF = 90
	dNets := make([]NetID, nFF)
	qs := make([]NetID, nFF)
	for i := range dNets {
		dNets[i] = n.Net(fmt.Sprintf("d%d", i))
		qs[i] = n.Flop(dNets[i], rng.Intn(2) == 0, fmt.Sprintf("q%d", i))
	}
	all := append(append([]NetID{en}, prev...), qs...)
	prev = append(prev, qs...)
	for l := 0; l < layers; l++ {
		width := 1 + rng.Intn(200)
		if l == 1 {
			width = 150 // at least one level spans three words
		}
		var cur []NetID
		for g := 0; g < width; g++ {
			k := Kind(rng.Intn(int(NumKinds)))
			nIns := 1
			if k != Not && k != Buf {
				nIns = 2 + rng.Intn(5)
				if rng.Intn(2) == 0 {
					nIns = 2
				}
			}
			ins := []NetID{prev[rng.Intn(len(prev))]}
			for len(ins) < nIns {
				ins = append(ins, all[rng.Intn(len(all))])
			}
			cur = append(cur, n.NewGate(k, ins...))
		}
		all = append(all, cur...)
		prev = cur
	}
	for i, d := range dNets {
		src := all[rng.Intn(len(all))]
		if freeRun && i%15 == 0 {
			n.GateInto(Buf, d, src)
			continue
		}
		n.GateInto(Buf, d, n.Mux(en, src, qs[i]))
	}
	for _, q := range qs {
		n.MarkOutput(q)
	}
	return n
}

// TestSimMatchesOracle drives random netlists whose dirty bitset spans more
// than 64 words with random inputs, long held-input runs (fast-forwarded
// with Hold whenever the simulator reports a quiet cycle) and interleaved
// ForceFlop calls, and checks every counter, energy bit and net value
// against the full-evaluation oracle after every step.
func TestSimMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			n := randomNetlist(rng, 40, seed%2 == 0)
			s := sim(t, n)
			s.Record(true)
			if len(s.dirtySum) < 2 {
				t.Fatalf("dirty bitset has %d words, want > 64", len(s.dirtyBits))
			}
			o := newOracle(n, 3.3)
			check := func(step string) {
				t.Helper()
				if s.Cycles() != o.cycles || s.Evals() != o.evals || s.Quiet() != o.quiet {
					t.Fatalf("%s: cycles/evals/quiet %d/%d/%v, oracle %d/%d/%v",
						step, s.Cycles(), s.Evals(), s.Quiet(), o.cycles, o.evals, o.quiet)
				}
				if math.Float64bits(float64(s.Energy())) != math.Float64bits(float64(o.energy)) {
					t.Fatalf("%s: energy %v, oracle %v", step, s.Energy(), o.energy)
				}
				for id := NetID(0); int(id) < n.NumNets(); id++ {
					if s.Value(id) != o.val[id] || s.Toggles(id) != o.toggles[id] {
						t.Fatalf("%s: net %s value/toggles %v/%d, oracle %v/%d", step,
							n.NetName(id), s.Value(id), s.Toggles(id), o.val[id], o.toggles[id])
					}
				}
			}

			in := make(InputVector, len(n.Inputs))
			held, holds := 0, 0
			for step := 0; step < 1500; step++ {
				if step == 700 {
					s.Reset()
					o.reset()
					check("reset")
				}
				if rng.Intn(12) == 0 {
					i, v := rng.Intn(len(n.DFFs)), rng.Intn(2) == 0
					s.ForceFlop(i, v)
					o.forceFlop(i, v)
				}
				switch {
				case held == 0:
					for i := range in {
						in[i] = rng.Intn(2) == 0
					}
					if rng.Intn(3) == 0 {
						in[0] = rng.Intn(4) == 0 // mostly frozen state
						held = 20 + rng.Intn(300)
					}
				case s.Quiet() && rng.Intn(2) == 0:
					// The last cycle ran with these inputs: hold them.
					k := 1 + rng.Intn(held)
					s.Hold(uint64(k))
					for i := 0; i < k; i++ {
						o.cycle(t, in)
						if !o.quiet {
							t.Fatalf("step %d: held cycle %d is not quiet in the oracle", step, i)
						}
					}
					held -= k
					holds++
					check(fmt.Sprintf("step %d: hold %d", step, k))
					continue
				default:
					held--
				}
				e, want := s.Cycle(in), o.cycle(t, in)
				if math.Float64bits(float64(e)) != math.Float64bits(float64(want)) {
					t.Fatalf("step %d: cycle energy %v, oracle %v", step, e, want)
				}
				check(fmt.Sprintf("step %d", step))
			}
			if holds == 0 {
				t.Fatal("no held-input run reached a quiet cycle")
			}
			h := s.History()
			if len(h) != len(o.history) {
				t.Fatalf("history has %d cycles, oracle %d", len(h), len(o.history))
			}
			for i := range h {
				if math.Float64bits(float64(h[i])) != math.Float64bits(float64(o.history[i])) {
					t.Fatalf("history[%d] = %v, oracle %v", i, h[i], o.history[i])
				}
			}
		})
	}
}

// TestForceFlopBreaksQuiet pins the one case where a cycle that launches
// nothing, flips no input and evaluates nothing is still not a fixpoint: a
// flop forced away from its D value, whose Q reads no gate. The capture
// after that cycle must run, so the next cycle launches D again.
func TestForceFlopBreaksQuiet(t *testing.T) {
	n := NewNetlist("forced")
	x := n.Input("x")
	q := n.Flop(x, false, "q")
	n.MarkOutput(q)
	s := sim(t, n)
	in := InputVector{true}
	s.Cycle(in)
	s.Cycle(in)
	s.Cycle(in)
	if !s.Quiet() || !s.Value(q) {
		t.Fatalf("settled: quiet %v, q %v; want true, true", s.Quiet(), s.Value(q))
	}
	s.ForceFlop(0, false)
	if s.Quiet() {
		t.Fatal("ForceFlop left the simulator quiet")
	}
	s.Cycle(in)
	if s.Quiet() {
		t.Fatal("cycle after ForceFlop reported quiet")
	}
	s.Cycle(in)
	if !s.Value(q) || s.Toggles(q) != 2 {
		t.Fatalf("q = %v with %d toggles, want D relaunched (true, 2)", s.Value(q), s.Toggles(q))
	}
}
