package swsyn

import (
	"fmt"

	"repro/internal/cfsm"
)

// FetchTrace reconstructs the exact instruction-fetch address ranges of the
// generated code for reaction r, using only the behavioral reaction (its
// control-flow Decisions) — no ISS involvement. The simulation master feeds
// these ranges to the instruction-cache simulator (paper §3: "cache
// simulation ... is performed by a fast cache simulator attached directly to
// the PTOLEMY simulator"), which is why skipping ISS calls (caching,
// macro-modeling) does not perturb the cache reference stream.
//
// The ranges are appended to dst[:0], so a caller that feeds them to the
// cache right away can reuse one buffer across reactions.
func (mc *MachineCode) FetchTrace(r *cfsm.Reaction, dst []Range) ([]Range, error) {
	if r.TransIdx < 0 || r.TransIdx >= len(mc.layouts) {
		return dst[:0], fmt.Errorf("swsyn: reaction transition %d out of range", r.TransIdx)
	}
	lay := mc.layouts[r.TransIdx]
	w := traceWalker{dec: r.Decisions, emit: *mc.emitRange, out: dst[:0]}
	w.add(lay.pre)
	if lay.hasGuard {
		if _, err := w.next(); err != nil {
			return w.out, err
		}
	}
	if err := w.block(lay.body); err != nil {
		return w.out, err
	}
	w.add(lay.post)
	if w.i != len(w.dec) {
		return w.out, fmt.Errorf("swsyn: %d unconsumed control-flow decisions", len(w.dec)-w.i)
	}
	return w.out, nil
}

type traceWalker struct {
	dec  []int32
	i    int
	emit Range
	out  []Range
}

func (w *traceWalker) next() (int32, error) {
	if w.i >= len(w.dec) {
		return 0, fmt.Errorf("swsyn: reaction decisions exhausted (layout/trace mismatch)")
	}
	v := w.dec[w.i]
	w.i++
	return v, nil
}

// add appends a range, coalescing with the previous one when contiguous.
func (w *traceWalker) add(r Range) {
	if r.Start == r.End {
		return
	}
	if n := len(w.out); n > 0 && w.out[n-1].End == r.Start {
		w.out[n-1].End = r.End
		return
	}
	w.out = append(w.out, r)
}

func (w *traceWalker) block(stmts []stmtLayout) error {
	for _, s := range stmts {
		if err := w.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (w *traceWalker) stmt(s stmtLayout) error {
	switch s := s.(type) {
	case straightL:
		w.add(s.r)
		return nil
	case emitL:
		w.add(s.call)
		w.add(w.emit)
		return nil
	case ifL:
		w.add(s.cond)
		taken, err := w.next()
		if err != nil {
			return err
		}
		if taken != 0 {
			if err := w.block(s.thenB); err != nil {
				return err
			}
			w.add(s.thenJump)
			return nil
		}
		return w.block(s.elseB)
	case loopL:
		w.add(s.init)
		n, err := w.next()
		if err != nil {
			return err
		}
		for i := int32(0); i < n; i++ {
			w.add(s.header)
			if err := w.block(s.body); err != nil {
				return err
			}
			w.add(s.latch)
		}
		w.add(s.header) // final exit test
		return nil
	default:
		return fmt.Errorf("swsyn: unknown layout node %T", s)
	}
}

// TraceAddrs expands a range list into the flat per-word fetch sequence
// (test helper and input for the exact cache-simulation mode).
func TraceAddrs(ranges []Range) []uint32 {
	var n int
	for _, r := range ranges {
		n += r.Len()
	}
	out := make([]uint32, 0, n)
	for _, r := range ranges {
		for a := r.Start; a < r.End; a += 4 {
			out = append(out, a)
		}
	}
	return out
}

// StaticOpCount returns the total instruction words across all generated
// transitions of the machine (a code-size metric for the parameter file's
// .size entries and reports).
func (mc *MachineCode) StaticOpCount() int {
	return int(mc.CodeSize) / 4
}
