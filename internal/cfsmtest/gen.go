// Package cfsmtest generates random CFSM specifications for differential
// fuzzing: the same machine is executed behaviorally, on the software
// synthesis + ISS path, and on the hardware synthesis + gate-simulator
// path, and all three must agree.
//
// Generated arithmetic is masked to 14 bits after every operation, which
// makes 32-bit behavioral semantics and W>=15-bit hardware datapaths agree
// exactly (masked values are non-negative, so signed comparisons coincide
// too). Trip counts are masked to 3 bits to keep runs short.
package cfsmtest

import (
	"fmt"
	"math/rand"

	"repro/internal/cfsm"
)

// Mask is the value mask applied after every generated arithmetic node.
const Mask = 0x3FFF

// Params controls generation.
type Params struct {
	// Vars is the number of machine variables.
	Vars int
	// Stmts is the number of top-level statements in the transition.
	Stmts int
	// Depth bounds expression nesting.
	Depth int
	// HWSafe restricts the op set to what hwsyn can synthesize (no
	// multiply/divide/modulus, constant shift amounts only).
	HWSafe bool
	// Mem allows shared-memory statements.
	Mem bool
}

// DefaultParams is a medium-size machine.
func DefaultParams() Params {
	return Params{Vars: 4, Stmts: 5, Depth: 3, HWSafe: true, Mem: true}
}

type gen struct {
	p   Params
	rng *rand.Rand
	b   *cfsm.Builder
	in  int
	out int
	nv  int
}

// Machine generates a single-state machine with one transition triggered by
// input "IN", emitting on output "OUT". The rng drives every choice, so a
// seed fully determines the machine.
func Machine(name string, p Params, rng *rand.Rand) *cfsm.CFSM {
	g := &gen{p: p, rng: rng, b: cfsm.NewBuilder(name)}
	s := g.b.State("s")
	g.in = g.b.Input("IN")
	g.out = g.b.Output("OUT")
	g.nv = p.Vars
	if g.nv < 1 {
		g.nv = 1
	}
	for i := 0; i < g.nv; i++ {
		g.b.Var(fmt.Sprintf("V%d", i), cfsm.Value(rng.Intn(Mask+1)))
	}
	stmts := g.block(p.Stmts, 0)
	g.b.On(s, g.in).Do(stmts...)
	return g.b.MustBuild()
}

func (g *gen) block(n, loopDepth int) []cfsm.Stmt {
	if n < 1 {
		n = 1
	}
	out := make([]cfsm.Stmt, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, g.stmt(loopDepth))
	}
	return out
}

func (g *gen) stmt(loopDepth int) cfsm.Stmt {
	max := 10
	if !g.p.Mem {
		max = 8
	}
	k := g.rng.Intn(max)
	switch {
	case k < 4: // assignment, the common case
		return cfsm.Set(g.rng.Intn(g.nv), g.expr(g.p.Depth))
	case k < 6: // branch
		return cfsm.If(g.cond(),
			g.block(1+g.rng.Intn(2), loopDepth),
			g.maybeElse(loopDepth))
	case k < 7 && loopDepth < 2: // bounded loop (<= 7 iterations)
		return cfsm.Repeat(cfsm.And(g.expr(1), cfsm.Const(7)),
			g.block(1+g.rng.Intn(2), loopDepth+1)...)
	case k < 8:
		return cfsm.Emit(g.out, g.expr(2))
	case k < 9: // memory read
		return cfsm.MemRead(g.rng.Intn(g.nv), cfsm.And(g.expr(1), cfsm.Const(0xFF)))
	default: // memory write
		return cfsm.MemWrite(cfsm.And(g.expr(1), cfsm.Const(0xFF)), g.expr(2))
	}
}

func (g *gen) maybeElse(loopDepth int) []cfsm.Stmt {
	if g.rng.Intn(2) == 0 {
		return nil
	}
	return g.block(1, loopDepth)
}

// cond yields a 0/1-valued expression.
func (g *gen) cond() *cfsm.Expr {
	ops := []cfsm.OpKind{cfsm.AEQ, cfsm.ANE, cfsm.ALT, cfsm.ALE, cfsm.AGT,
		cfsm.AGE, cfsm.ALAND, cfsm.ALOR}
	op := ops[g.rng.Intn(len(ops))]
	return cfsm.Fn(op, g.expr(1), g.expr(1))
}

func (g *gen) leaf() *cfsm.Expr {
	switch g.rng.Intn(3) {
	case 0:
		return cfsm.Const(cfsm.Value(g.rng.Intn(Mask + 1)))
	case 1:
		return g.b.V(g.rng.Intn(g.nv))
	default:
		// Event values arrive pre-masked by the fuzz driver.
		return g.b.EvVal(g.in)
	}
}

// expr yields a value in [0, Mask]: every arithmetic node is masked.
func (g *gen) expr(depth int) *cfsm.Expr {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		return g.leaf()
	}
	arith := []cfsm.OpKind{cfsm.AADD, cfsm.ASUB, cfsm.AAND, cfsm.AOR,
		cfsm.AXOR, cfsm.AMIN, cfsm.AMAX}
	if !g.p.HWSafe {
		arith = append(arith, cfsm.AMUL, cfsm.ADIV, cfsm.AMOD)
	}
	switch g.rng.Intn(6) {
	case 0: // unary
		op := []cfsm.OpKind{cfsm.ANEG, cfsm.ANOT, cfsm.AABS}[g.rng.Intn(3)]
		return mask(cfsm.Fn(op, g.expr(depth-1)))
	case 1: // constant shift
		op := []cfsm.OpKind{cfsm.ASHL, cfsm.ASHR}[g.rng.Intn(2)]
		return mask(cfsm.Fn(op, g.expr(depth-1), cfsm.Const(cfsm.Value(g.rng.Intn(4)))))
	case 2: // comparison as value
		return g.cond()
	case 3: // mux
		return cfsm.Fn(cfsm.AMUX, g.cond(), g.expr(depth-1), g.expr(depth-1))
	default:
		op := arith[g.rng.Intn(len(arith))]
		return mask(cfsm.Fn(op, g.expr(depth-1), g.expr(depth-1)))
	}
}

func mask(e *cfsm.Expr) *cfsm.Expr { return cfsm.And(e, cfsm.Const(Mask)) }
