package cfsm

import "fmt"

// Env gives a reacting CFSM access to system-level shared memory. Reads and
// writes are functional at this level; their timing and energy are accounted
// separately by the bus model from the MemOps trace in the Reaction, exactly
// as the paper's behavioral bus model consumes the transaction trace.
type Env interface {
	MemRead(addr uint32) Value
	MemWrite(addr uint32, v Value)
}

// NullEnv is an Env whose memory reads return zero and whose writes are
// dropped; useful for machines that never touch shared memory and for tests.
type NullEnv struct{}

func (NullEnv) MemRead(uint32) Value   { return 0 }
func (NullEnv) MemWrite(uint32, Value) {}

// Stmt is one statement of a transition's action program.
type Stmt interface{ isStmt() }

// AssignStmt assigns the value of E to variable Var.
type AssignStmt struct {
	Var int
	E   *Expr
}

// EmitStmt emits an event with the value of E on output port Port.
type EmitStmt struct {
	Port int
	E    *Expr
}

// IfStmt executes Then when Cond is nonzero, Else otherwise.
// The taken direction is recorded in the path key (TIVART/TIVARF).
type IfStmt struct {
	Cond *Expr
	Then []Stmt
	Else []Stmt
}

// RepeatStmt executes Body Count times (Count evaluated once, clamped at 0).
// The iteration count is folded into the path key: paths that loop a
// different number of times are different paths for the energy cache.
type RepeatStmt struct {
	Count *Expr
	Body  []Stmt
}

// MemReadStmt loads shared memory at Addr into variable Var.
type MemReadStmt struct {
	Var  int
	Addr *Expr
}

// MemWriteStmt stores the value of Val to shared memory at Addr.
type MemWriteStmt struct {
	Addr *Expr
	Val  *Expr
}

func (*AssignStmt) isStmt()   {}
func (*EmitStmt) isStmt()     {}
func (*IfStmt) isStmt()       {}
func (*RepeatStmt) isStmt()   {}
func (*MemReadStmt) isStmt()  {}
func (*MemWriteStmt) isStmt() {}

// Transition is one guarded, triggered reaction of a CFSM.
type Transition struct {
	Name    string
	From    int   // source state index
	To      int   // destination state index
	Trigger []int // input ports that must all hold a pending event
	Guard   *Expr // optional; nil means always enabled
	Action  []Stmt
}

// Emission is one output event produced by a reaction.
type Emission struct {
	Port  int
	Value Value
}

// MemAccess is one shared-memory access performed by a reaction, in program
// order. The bus model derives transaction timing and line switching
// activity from this trace.
type MemAccess struct {
	Addr  uint32
	Data  Value
	Write bool
}

// PathKey identifies an execution path through a transition's action: the
// transition index combined with every branch decision and loop trip count.
// It is the lookup key of the energy cache (§4.2 of the paper).
type PathKey uint64

// Reaction is the result of executing one CFSM transition — the paper's unit
// of synchronization between the simulation master and the component power
// estimators.
type Reaction struct {
	Machine   *CFSM
	TransIdx  int
	FromState int
	ToState   int
	Path      PathKey
	Ops       []OpKind // executed macro-operation trace, in order
	Emits     []Emission
	MemOps    []MemAccess

	// Decisions records every control-flow choice in structural order:
	// 1/0 per guard and If (taken/not), the trip count per Repeat. The
	// software synthesizer replays these to reconstruct the exact
	// instruction-fetch trace of the path without invoking the ISS.
	Decisions []int32
}

type inputState struct {
	present bool
	val     Value
}

// CFSM is one codesign finite state machine: the static specification
// (states, ports, variables, transitions) plus its runtime state (current
// state, variable values, pending input events).
type CFSM struct {
	Name        string
	StateNames  []string
	InputNames  []string
	OutputNames []string
	VarNames    []string
	VarInit     []Value
	Transitions []*Transition

	state  int
	vars   []Value
	inputs []inputState

	// sizes holds, per transition, the longest traces any of its reactions
	// has produced on this machine; React allocates a new reaction's
	// slices at these capacities so they do not grow while it executes.
	sizes []traceSizes
}

// traceSizes is the high-water mark of one transition's reaction traces.
type traceSizes struct {
	ops, emits, memops, decisions int
}

// Reset returns the machine to its initial state: state 0, variables at their
// initial values, no pending events.
func (c *CFSM) Reset() {
	c.state = 0
	c.vars = append(c.vars[:0], c.VarInit...)
	if c.inputs == nil {
		c.inputs = make([]inputState, len(c.InputNames))
	}
	for i := range c.inputs {
		c.inputs[i] = inputState{}
	}
}

// State returns the current state index.
func (c *CFSM) State() int { return c.state }

// VarValue returns the current value of variable v.
func (c *CFSM) VarValue(v int) Value { return c.vars[v] }

// VarSnapshot returns a copy of all variable values — the pre-reaction
// state the simulation master captures so estimators can be re-synchronized
// after acceleration techniques skip invocations. The copy is written into
// dst's storage when it is large enough (pass nil for a fresh slice).
func (c *CFSM) VarSnapshot(dst []Value) []Value {
	return append(dst[:0], c.vars...)
}

// SetVar overrides the current value of variable v (test hook).
func (c *CFSM) SetVar(v int, val Value) { c.vars[v] = val }

// Post delivers an event with the given value to input port p. A second
// event on the same port before the machine reacts overwrites the value —
// POLIS's single-place event buffers.
func (c *CFSM) Post(p int, v Value) {
	c.inputs[p] = inputState{present: true, val: v}
}

// Pending reports whether input port p holds an unconsumed event.
func (c *CFSM) Pending(p int) bool { return c.inputs[p].present }

// InputVal returns the most recent value latched on input port p (persists
// after the event is consumed — the simulation master reads it to bind the
// ISS input buffer before replaying a transition on generated code).
func (c *CFSM) InputVal(p int) Value { return c.inputs[p].val }

// InputIndex returns the index of the named input port, or -1.
func (c *CFSM) InputIndex(name string) int { return indexOf(c.InputNames, name) }

// OutputIndex returns the index of the named output port, or -1.
func (c *CFSM) OutputIndex(name string) int { return indexOf(c.OutputNames, name) }

// VarIndex returns the index of the named variable, or -1.
func (c *CFSM) VarIndex(name string) int { return indexOf(c.VarNames, name) }

// StateIndex returns the index of the named state, or -1.
func (c *CFSM) StateIndex(name string) int { return indexOf(c.StateNames, name) }

func indexOf(ss []string, name string) int {
	for i, s := range ss {
		if s == name {
			return i
		}
	}
	return -1
}

type execCtx struct {
	c         *CFSM
	vars      []Value
	env       Env
	ops       []OpKind
	emits     []Emission
	memops    []MemAccess
	decisions []int32
	hash      uint64 // running FNV-1a over path decisions
}

func (x *execCtx) decide(v int32) {
	x.decisions = append(x.decisions, v)
	x.mix32(uint32(v))
}

func (x *execCtx) trace(op OpKind) { x.ops = append(x.ops, op) }

func (x *execCtx) mix(b byte) {
	x.hash ^= uint64(b)
	x.hash *= 1099511628211
}

func (x *execCtx) mix32(v uint32) {
	x.mix(byte(v))
	x.mix(byte(v >> 8))
	x.mix(byte(v >> 16))
	x.mix(byte(v >> 24))
}

// Enabled returns the index of the first transition that can fire in the
// current state with the currently pending events, or -1. Guard evaluation
// here is side-effect free (it does not contribute to any trace).
func (c *CFSM) Enabled() int {
	for i, tr := range c.Transitions {
		if tr.From != c.state {
			continue
		}
		ok := true
		for _, p := range tr.Trigger {
			if !c.inputs[p].present {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if tr.Guard != nil {
			scratch := execCtx{c: c, vars: c.vars, env: NullEnv{}}
			if tr.Guard.eval(&scratch) == 0 {
				continue
			}
		}
		return i
	}
	return -1
}

// React executes at most one transition: the first enabled one in declaration
// order (the POLIS determinism rule). It returns the Reaction and true if a
// transition fired. Trigger events are consumed; non-trigger pending events
// remain pending. Guard ops of the fired transition are part of the trace
// (the generated code must evaluate them), prefixed by one ADETECT per
// trigger event and terminated by ARET.
func (c *CFSM) React(env Env) (*Reaction, bool) {
	ti := c.Enabled()
	if ti < 0 {
		return nil, false
	}
	tr := c.Transitions[ti]

	if c.sizes == nil {
		c.sizes = make([]traceSizes, len(c.Transitions))
	}
	sz := &c.sizes[ti]
	x := execCtx{
		c: c, vars: c.vars, env: env, hash: 14695981039346656037,
		ops:       sized[OpKind](sz.ops),
		emits:     sized[Emission](sz.emits),
		memops:    sized[MemAccess](sz.memops),
		decisions: sized[int32](sz.decisions),
	}
	x.mix32(uint32(ti))
	for range tr.Trigger {
		x.trace(ADETECT)
	}
	if tr.Guard != nil {
		v := tr.Guard.eval(&x)
		if v != 0 {
			x.trace(TIVART)
			x.decide(1)
		} else {
			// Enabled() said true; guards are over vars only, so this
			// cannot happen unless the model mutates vars concurrently.
			panic("cfsm: guard changed value between Enabled and React")
		}
	}
	execBlock(tr.Action, &x)
	x.trace(ARET)

	// Commit: consume trigger events, switch state.
	for _, p := range tr.Trigger {
		c.inputs[p].present = false
	}
	from := c.state
	c.state = tr.To

	sz.ops = max(sz.ops, len(x.ops))
	sz.emits = max(sz.emits, len(x.emits))
	sz.memops = max(sz.memops, len(x.memops))
	sz.decisions = max(sz.decisions, len(x.decisions))
	return &Reaction{
		Machine:   c,
		TransIdx:  ti,
		FromState: from,
		ToState:   tr.To,
		Path:      PathKey(x.hash),
		Ops:       x.ops,
		Emits:     nilIfEmpty(x.emits),
		MemOps:    nilIfEmpty(x.memops),
		Decisions: nilIfEmpty(x.decisions),
	}, true
}

// sized returns an empty slice with capacity n, or nil when n is 0.
func sized[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, 0, n)
}

// nilIfEmpty keeps a pre-sized trace that stayed empty as nil, as it reads
// when nothing was appended.
func nilIfEmpty[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

func execBlock(b []Stmt, x *execCtx) {
	for _, s := range b {
		execStmt(s, x)
	}
}

func execStmt(s Stmt, x *execCtx) {
	switch s := s.(type) {
	case *AssignStmt:
		v := s.E.eval(x)
		switch s.E.kind {
		case constExpr:
			x.trace(AVC)
		default:
			x.trace(AVV)
		}
		x.vars[s.Var] = v
	case *EmitStmt:
		var v Value
		if s.E != nil {
			v = s.E.eval(x)
		}
		x.trace(AEMIT)
		x.emits = append(x.emits, Emission{Port: s.Port, Value: v})
	case *IfStmt:
		cv := s.Cond.eval(x)
		if cv != 0 {
			x.trace(TIVART)
			x.decide(1)
			execBlock(s.Then, x)
		} else {
			x.trace(TIVARF)
			x.decide(0)
			execBlock(s.Else, x)
		}
	case *RepeatStmt:
		n := s.Count.eval(x)
		if n < 0 {
			n = 0
		}
		x.decide(int32(n))
		for i := Value(0); i < n; i++ {
			x.trace(AREPEAT)
			execBlock(s.Body, x)
		}
	case *MemReadStmt:
		a := uint32(s.Addr.eval(x))
		v := x.env.MemRead(a)
		x.trace(ALOAD)
		x.vars[s.Var] = v
		x.memops = append(x.memops, MemAccess{Addr: a, Data: v})
	case *MemWriteStmt:
		a := uint32(s.Addr.eval(x))
		v := s.Val.eval(x)
		x.trace(ASTORE)
		x.env.MemWrite(a, v)
		x.memops = append(x.memops, MemAccess{Addr: a, Data: v, Write: true})
	default:
		panic(fmt.Sprintf("cfsm: unknown statement %T", s))
	}
}
