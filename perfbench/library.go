package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/ecache"
	"repro/internal/telemetry"
	"repro/pkg/coest"
)

// dmaSizes is the paper's DMA axis (Tables 1-3, Fig 7).
var dmaSizes = []int{2, 4, 8, 16, 32, 64}

// libWorkload is a grid of cells on the TCP/IP system of Fig 5, each cell
// a fresh coest.NewSession plus one Session.Estimate, as cmd/paperrun runs
// the Tables 1-3 grid.
type libWorkload struct {
	name     string
	packets  int
	allSW    bool     // remap checksum, the only HW process, to SW
	variants []string // estimation techniques per DMA size; "full" first
	limit    time.Duration
	baseline bool // check against the committed paper baseline at its seed
}

var tablesWorkload = libWorkload{
	name: "tables", packets: 12,
	variants: []string{"full", "ecache", "macro", "sampling"},
	limit:    250 * time.Millisecond,
	baseline: true,
}

var swPartitionWorkload = libWorkload{
	name: "sw-partition", packets: 48, allSW: true,
	variants: []string{"full", "ecache"},
	limit:    500 * time.Millisecond,
}

type cell struct {
	variant string
	dma     int
}

func (w libWorkload) cells() []cell {
	var out []cell
	for _, dma := range dmaSizes {
		for _, v := range w.variants {
			out = append(out, cell{v, dma})
		}
	}
	return out
}

// variantOpts returns the per-estimate options of a technique, the ones
// cmd/paperrun uses for the Tables 1-3 accelerated columns.
func variantOpts(v string) []coest.Option {
	switch v {
	case "ecache":
		return []coest.Option{coest.WithEnergyCacheParams(coest.ECacheParams(ecache.Table1Params())), coest.WithAttribution()}
	case "macro":
		return []coest.Option{coest.WithMacroModel(), coest.WithAttribution()}
	case "sampling":
		return []coest.Option{coest.WithSampling(), coest.WithBusCompaction(32, 4), coest.WithAttribution()}
	}
	return nil
}

// baselineRow names the committed baseline row a variant is checked on.
var baselineRow = map[string]baselineKey{
	"full":     {Experiment: "table1-ecache", Variant: "base"},
	"ecache":   {Experiment: "table1-ecache", Variant: "ecache"},
	"macro":    {Experiment: "table2-macro", Variant: "macro"},
	"sampling": {Experiment: "table3-sampling", Variant: "sampling"},
}

func (w libWorkload) system(seed int64, dma int) *coest.System {
	p := coest.DefaultTCPIPParams()
	p.Packets = w.packets
	p.DMASize = dma
	p.Seed = uint32(seed)
	sys := coest.TCPIP(p)
	if w.allSW {
		procs := sys.Spec().Procs
		pc := procs["checksum"]
		pc.Mapping = coest.SW
		procs["checksum"] = pc
	}
	return sys
}

func outOf(rep *coest.Report) cellOut {
	return cellOut{EnergyJ: rep.Total.Joules(), ISSCalls: rep.ISSCalls, ISSInsts: rep.ISSInsts, GateExecs: rep.GateExecs}
}

// reference computes every cell with the one-shot coest.Estimate (a cold
// compile per cell) and, for the baseline seed, checks it against the
// committed paper run. It returns the reference and the cells that
// disagree with the baseline.
func (w libWorkload) reference(ctx context.Context, seed int64) ([]cellOut, []string, error) {
	cells := w.cells()
	ref := make([]cellOut, len(cells))
	for i, c := range cells {
		rep, err := coest.Estimate(ctx, w.system(seed, c.dma), variantOpts(c.variant)...)
		if err != nil {
			return nil, nil, fmt.Errorf("%s reference %s dma %d: %w", w.name, c.variant, c.dma, err)
		}
		ref[i] = outOf(rep)
	}
	if !w.baseline || seed != baselineSeed {
		return ref, nil, nil
	}
	base, err := loadBaseline(w.packets)
	if err != nil {
		return nil, nil, err
	}
	var bad []string
	for i, c := range cells {
		k := baselineRow[c.variant]
		k.DMA = c.dma
		want, ok := base[k]
		if !ok {
			return nil, nil, fmt.Errorf("baseline has no row %+v", k)
		}
		if ref[i] != want {
			bad = append(bad, fmt.Sprintf("%s dma %d: have %+v, baseline %+v", c.variant, c.dma, ref[i], want))
		}
	}
	return ref, bad, nil
}

// energyErrPct is the mean |accelerated − full| / full energy, in percent,
// over the accelerated cells (the error columns of Tables 1-3).
func energyErrPct(cells []cell, outs []cellOut) float64 {
	full := map[int]float64{}
	for i, c := range cells {
		if c.variant == "full" {
			full[c.dma] = outs[i].EnergyJ
		}
	}
	var sum float64
	var n int
	for i, c := range cells {
		if c.variant != "full" {
			sum += math.Abs(outs[i].EnergyJ-full[c.dma]) / full[c.dma] * 100
			n++
		}
	}
	return ratio(sum, float64(n))
}

// layerTally accumulates the per-layer figures of traced passes.
type layerTally struct {
	cells                        int
	compileNS, estimateNS        int64
	gateNS, issNS, coreNS        int64
	gateCycles, gateEvals        uint64
	gateExecs, issCalls, issInst uint64
	cacheAcc, cacheHits          uint64
	dispatches, grants, words    uint64
	ecLookups, ecHits            uint64
	cmpItems, cmpDispatched      uint64
}

func (t *layerTally) addReport(rep *coest.Report) {
	t.gateExecs += rep.GateExecs
	t.issCalls += rep.ISSCalls
	t.issInst += rep.ISSInsts
	t.cacheAcc += rep.CacheStats.Accesses
	t.cacheHits += rep.CacheStats.Hits
	t.dispatches += rep.RTOSStats.Dispatches
	t.grants += rep.BusStats.Grants
	t.words += rep.BusStats.Words
	t.ecLookups += rep.SWECache.Lookups + rep.HWECache.Lookups
	t.ecHits += rep.SWECache.Hits + rep.HWECache.Hits
	if bc := rep.BusCompaction; bc != nil {
		t.cmpItems += bc.Stats.Items
		t.cmpDispatched += bc.Stats.Dispatched
	}
}

func (t *layerTally) addSpans(spans []span) {
	self := layerSelf(spans)
	t.compileNS += self["coest.compile"]
	t.estimateNS += totalDur(spans, "bench.estimate")
	t.gateNS += self["gate"]
	t.issNS += self["iss"]
	t.coreNS += self["core"]
}

// reconcileTol bounds |gate + iss + core.other − estimate| / estimate. The
// program's gate span is stamped as its busy time from the first chunk's
// start, so it may overlap a later ISS call; that overlap is the gap.
const reconcileTol = 0.05

// runLibrary measures a grid workload: repeated setups (cold reference),
// then whole passes over the grid until the run length is spent.
func runLibrary(ctx context.Context, w libWorkload, rc runConfig) (*result, error) {
	cells := w.cells()
	res := newResult()

	var setups []float64
	var ref []cellOut
	var spent time.Duration
	for i := 0; moreSetups(i, spent); i++ {
		t0 := time.Now()
		r, bad, err := w.reference(ctx, rc.seed)
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
		if err != nil {
			return nil, err
		}
		res.attempted += len(cells)
		res.failed += len(bad)
		for _, b := range bad {
			res.notef("baseline mismatch: %s", b)
		}
		if i == 0 {
			ref = r
			continue
		}
		for j := range r {
			if r[j] != ref[j] {
				res.failed++
				res.notef("reference %d not deterministic: %+v vs %+v", j, r[j], ref[j])
			}
		}
	}

	gateCycles := telemetry.Default.Counter("coest_gate_cycles_total", "")
	gateEvals := telemetry.Default.Counter("coest_gate_evals_total", "")
	var (
		passRates, goodRates []float64
		lat                  []float64
		tally                layerTally
		untracedNS, tracedNS int64
		untracedN, tracedN   int
		first                []cellOut
		log                  = spanLog{max: maxLoggedSpans}
	)
	minPasses := 1
	if rc.trace {
		minPasses = 2
	}
	deadline := time.Now().Add(rc.seconds)
	for pass := 0; pass < minPasses || time.Now().Before(deadline); pass++ {
		traced := rc.trace && pass%2 == 1
		pctx, col := ctx, (*collector)(nil)
		if traced {
			col = newCollector()
			pctx = telemetry.ContextWithSpanScope(ctx, telemetry.NewSpanScope(col, telemetry.NewTraceID()))
		}
		c0, e0 := gateCycles.Value(), gateEvals.Value()
		outs := make([]cellOut, len(cells))
		good := 0
		p0 := time.Now()
		for i, c := range cells {
			out, rep, d, err := runCell(pctx, w, rc.seed, c)
			res.attempted++
			if err != nil {
				res.failed++
				res.notef("%s dma %d: %v", c.variant, c.dma, err)
				continue
			}
			outs[i] = out
			lat = append(lat, float64(d)/1e6)
			if out != ref[i] {
				res.failed++
				res.notef("pass %d %s dma %d: have %+v, reference %+v", pass, c.variant, c.dma, out, ref[i])
				continue
			}
			if d <= w.limit {
				good++
			}
			if traced {
				tally.addReport(rep)
			}
		}
		passDur := time.Since(p0)
		if pass == 0 {
			first = outs
		}
		if traced {
			tally.cells += len(cells)
			tally.gateCycles += gateCycles.Value() - c0
			tally.gateEvals += gateEvals.Value() - e0
			spans := col.take()
			tally.addSpans(spans)
			log.add(spans)
			tracedNS += passDur.Nanoseconds()
			tracedN += len(cells)
			continue
		}
		untracedNS += passDur.Nanoseconds()
		untracedN += len(cells)
		passRates = append(passRates, float64(len(cells))/passDur.Seconds())
		goodRates = append(goodRates, float64(good)/passDur.Seconds())
	}

	if !rc.trace {
		sorted := sortedCopy(lat)
		tail := tailOf(len(sorted))
		res.tailNote(tail, len(sorted))
		res.set("setup_s", median(setups))
		res.set("cells_per_s", median(passRates))
		res.set("goodput_rps", median(goodRates))
		res.set("energy_err_pct", energyErrPct(cells, first))
		res.set("latency_ms_p50", percentile(sorted, 50))
		res.set("latency_ms_tail", percentile(sorted, tail))
		res.set("rss_peak_mb", rssPeakMiB())
		return res, nil
	}

	n := float64(tally.cells)
	ms := func(ns int64) float64 { return float64(ns) / 1e6 / n }
	estimate := ms(tally.estimateNS)
	gate, iss, other := ms(tally.gateNS), ms(tally.issNS), ms(tally.coreNS)
	gap := ratio(gate+iss+other-estimate, estimate)
	if math.Abs(gap) > reconcileTol {
		res.failed++
		res.notef("layer times do not reconcile: gate %.3f + iss %.3f + other %.3f vs estimate %.3f ms", gate, iss, other, estimate)
	}
	pl := res.layers()
	pl.set("coest.compile_ms", ms(tally.compileNS))
	pl.set("coest.estimate_ms", estimate)
	pl.set("gate.busy_ms", gate)
	pl.set("gate.cycles", float64(tally.gateCycles)/n)
	pl.set("gate.evals", float64(tally.gateEvals)/n)
	pl.set("gate.evals_per_cycle", ratio(float64(tally.gateEvals), float64(tally.gateCycles)))
	pl.set("gate.ns_per_cycle", ratio(float64(tally.gateNS), float64(tally.gateCycles)))
	pl.set("hwsyn.execs", float64(tally.gateExecs)/n)
	pl.set("iss.busy_ms", iss)
	pl.set("iss.calls", float64(tally.issCalls)/n)
	pl.set("iss.insts", float64(tally.issInst)/n)
	pl.set("iss.ns_per_inst", ratio(float64(tally.issNS), float64(tally.issInst)))
	pl.set("cachesim.accesses", float64(tally.cacheAcc)/n)
	pl.set("cachesim.hit_ratio", ratio(float64(tally.cacheHits), float64(tally.cacheAcc)))
	pl.set("rtos.dispatches", float64(tally.dispatches)/n)
	pl.set("bus.grants", float64(tally.grants)/n)
	pl.set("bus.words", float64(tally.words)/n)
	pl.set("core.other_ms", other)
	pl.set("ecache.lookups", float64(tally.ecLookups)/n)
	pl.set("ecache.hit_ratio", ratio(float64(tally.ecHits), float64(tally.ecLookups)))
	pl.set("compact.dispatch_ratio", ratio(float64(tally.cmpDispatched), float64(tally.cmpItems)))
	pl.set("trace.reconcile_pct", gap*100)
	untraced := ratio(float64(untracedN), float64(untracedNS))
	traced := ratio(float64(tracedN), float64(tracedNS))
	pl.set("trace.overhead_pct", (ratio(untraced, traced)-1)*100)
	if err := rc.writeSpans(&log); err != nil {
		return nil, err
	}
	return res, nil
}

// runCell compiles a fresh session and runs one estimate, recording the
// benchmark's own spans around both calls when ctx carries a scope.
func runCell(ctx context.Context, w libWorkload, seed int64, c cell) (cellOut, *coest.Report, time.Duration, error) {
	cctx, cspan := telemetry.StartSpanWith(ctx, "bench.cell", c.variant, int64(c.dma))
	defer cspan.End()
	t0 := time.Now()
	_, kspan := telemetry.StartSpan(cctx, "bench.compile")
	sess, err := coest.NewSession(w.system(seed, c.dma))
	kspan.End()
	if err != nil {
		return cellOut{}, nil, 0, err
	}
	ectx, espan := telemetry.StartSpan(cctx, "bench.estimate")
	rep, err := sess.Estimate(ectx, variantOpts(c.variant)...)
	espan.End()
	d := time.Since(t0)
	if err != nil {
		return cellOut{}, nil, 0, err
	}
	return outOf(rep), rep, d, nil
}
