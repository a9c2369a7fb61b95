package engine

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// BuildFunc describes point i of a sweep: a fresh System (simulations
// mutate network state, so points cannot share one) and the point's Config
// (cloned by the engine before use).
type BuildFunc func(i int) (*core.System, core.Config, error)

// PointOutcome is one sweep point's result in a keep-going run: failures
// ride the outcome instead of aborting the batch.
type PointOutcome struct {
	Index  int
	Report *core.Report
	Err    error
}

// runPoints executes a sweep with one full co-simulation per point over the
// bounded worker pool. Outcomes are returned in index order.
//
// With failFast, the first (lowest-index) point error cancels the remaining
// points and is returned wrapped as "point %d: ..." alongside the outcomes
// that did complete (Sweep semantics). Without it, per-point errors ride
// the outcomes, every dispatched point yields an outcome, and only context
// cancellation produces a call-level error (EstimateBatch semantics).
func runPoints(ctx context.Context, n int, opts Options, failFast bool, build BuildFunc) ([]PointOutcome, error) {
	hook := opts.OnPoint
	inner := opts
	inner.OnPoint = nil // fired below with full estimator metrics instead
	var mu sync.Mutex
	results, err := Run(ctx, n, inner, func(ctx context.Context, i int) (PointOutcome, error) {
		start := time.Now()
		rep, perr := runPoint(ctx, i, opts, build)
		if perr != nil && failFast {
			perr = fmt.Errorf("point %d: %w", i, perr)
		}
		if hook != nil {
			m := PointMetrics{Index: i, Total: n, Wall: time.Since(start), Err: perr}
			if rep != nil {
				m.fill(rep)
			}
			mu.Lock()
			hook(m)
			mu.Unlock()
		}
		if failFast {
			return PointOutcome{Index: i, Report: rep}, perr
		}
		// Keep-going: the failure rides the outcome, not the batch.
		return PointOutcome{Index: i, Report: rep, Err: perr}, nil
	})
	outs := make([]PointOutcome, 0, len(results))
	for _, r := range results {
		outs = append(outs, r.Value)
	}
	return outs, err
}

func runPoint(ctx context.Context, i int, opts Options, build BuildFunc) (*core.Report, error) {
	ctx, span := telemetry.StartSpanWith(ctx, "point", "", int64(i))
	defer span.End()
	sys, cfg, err := build(i)
	if err != nil {
		return nil, err
	}
	cfg = cfg.Clone()
	// Cold points compile (synthesize SW image + HW netlists); warm points
	// rebind the session's shared artifacts. The span name says which.
	buildName := "compile"
	if opts.Artifacts != nil {
		buildName = "rebind"
	}
	_, bspan := telemetry.StartSpan(ctx, buildName)
	cs, err := core.NewShared(sys, cfg, opts.Artifacts)
	bspan.End()
	if err != nil {
		return nil, err
	}
	// The run context reaches the simulation loop: a cancelled sweep aborts
	// in-flight points within one event quantum instead of letting them run
	// to completion.
	rep, err := cs.RunContext(ctx)
	if err == nil && opts.OnRun != nil {
		opts.OnRun(i, cs)
	}
	return rep, err
}

// RunOutcomes runs every point with keep-going semantics: per-point
// failures land in their outcome, the batch continues, and the returned
// slice has one entry per dispatched point in index order. Only context
// cancellation (partial outcome set) produces a call-level error.
func RunOutcomes(ctx context.Context, n int, opts Options, build BuildFunc) ([]PointOutcome, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	return runPoints(ctx, n, opts, false, build)
}
