package core

import (
	"slices"

	"repro/internal/audit"
	"repro/internal/bus"
	"repro/internal/cfsm"
	"repro/internal/ecache"
	"repro/internal/rtos"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Attribution source labels: the costing technique (or accrual site) a
// KindEnergyAttributed event books its energy under.
const (
	srcISS      = "iss"
	srcGate     = "gate"
	srcECache   = "ecache"
	srcMacro    = "macro"
	srcSampling = "sampling"
	srcWait     = "wait"
	srcICache   = "icache"
	srcRTOS     = "rtos"
)

// swJob is one software reaction on its way through the RTOS: the job the
// scheduler dispatches, the reaction its Service produced, and the join of
// its CPU phase with its bus transfers. Jobs are pooled per run and their
// callbacks are bound once, so a warm reaction allocates no closures, bus
// requests or variable snapshots.
type swJob struct {
	cs  *CoSim
	mi  int
	job rtos.Job

	r       *cfsm.Reaction // nil when the dispatch found nothing to fire
	preVars []cfsm.Value
	reqs    []bus.Request
	busLeft int // outstanding bus groups of this reaction
	cpuDone bool
	cpuEnd  units.Time

	transferDoneFn func() // j.transferDone, bound once
}

// activateSW routes a software machine's pending events through the RTOS:
// the behavioral reaction executes at dispatch time (so shared-processor
// serialization is honored), the estimator stack produces its cost, the CPU
// is held through the reaction's bus transfers (programmed I/O), and the
// emissions are delivered when the transfers complete.
func (cs *CoSim) activateSW(mi int) {
	var j *swJob
	if n := len(cs.swJobs); n > 0 {
		j = cs.swJobs[n-1]
		cs.swJobs = cs.swJobs[:n-1]
	} else {
		j = &swJob{cs: cs}
		j.job.Hold = true
		j.job.Service = j.service
		j.job.Done = j.cpuPhaseDone
		j.transferDoneFn = j.transferDone
	}
	j.mi = mi
	j.job.ID = mi
	j.job.Priority = cs.procs[mi].Priority
	j.r, j.busLeft, j.cpuDone, j.cpuEnd = nil, 0, false, 0
	cs.sched.Post(&j.job)
}

// service runs at dispatch: the behavioral reaction, its cost, its I-cache
// fetches and the issue of its bus transfers. It returns the CPU phase.
func (j *swJob) service() units.Time {
	cs, mi := j.cs, j.mi
	m := cs.sys.Net.Machines[mi]
	if m.Enabled() < 0 {
		return 0 // events were consumed by an earlier dispatch
	}
	j.preVars = m.VarSnapshot(j.preVars)
	rr, ok := m.React(cs.shared)
	if !ok {
		return 0
	}
	j.r = rr
	cs.machineReact[mi]++
	mReactions.Inc()
	if m.Enabled() >= 0 {
		// Other pending events can fire further transitions.
		cs.activateSW(mi)
	}

	if cs.cfg.Mode == Separate {
		cs.emitReaction(mi, rr, 0, 0, 0)
		preVars := append([]cfsm.Value(nil), j.preVars...)
		cs.trace = append(cs.trace, recorded{machine: mi, r: rr, preVars: preVars})
		return 0
	}

	cycles, energy, src := cs.estimateSW(mi, rr, j.preVars)
	cs.emitAttrib(mi, src, uint64(rr.Path), energy)

	// Fast instruction-cache simulation, fed by the master from the
	// statically reconstructed path trace (never from the ISS).
	if cs.icache != nil {
		before := cs.icache.Stats()
		if err := cs.fetchICache(mi, rr); err != nil {
			cs.fail(err)
			return 0
		}
		d := cs.icache.Stats()
		cycles += d.Cycles - before.Cycles
		ce := d.Energy - before.Energy
		cs.cacheEnergy += ce
		cs.wave.Add("icache", cs.kernel.Now(), ce)
		cs.emitAttrib(mi, srcICache, uint64(rr.Path), ce)
	}

	cs.machineCycles[mi] += cycles
	cs.machineEnergy[mi] += energy
	cs.transEnergy[mi][rr.TransIdx] += energy
	cs.transCount[mi][rr.TransIdx]++
	cs.wave.Add(m.Name, cs.kernel.Now(), energy)

	// Issue the reaction's bus transfers now: loads and stores
	// interleave with the computation, so they contend with other
	// masters in real time. The reaction completes when both the
	// CPU phase and the last transfer finish.
	cpuDur := units.Time(cycles) * cs.cfg.Timing.Clock.Period()
	cs.emitReaction(mi, rr, cycles, energy, cpuDur)
	// The RTOS hold serializes SW reactions until their last transfer
	// completes, so the transfer buffers are the SW partition's own.
	cs.swGroups, cs.swData = groupMemOps(cs.swGroups, cs.swData, rr.MemOps)
	j.busLeft = len(cs.swGroups)
	j.reqs = slices.Grow(j.reqs[:0], len(cs.swGroups))[:len(cs.swGroups)]
	for i, g := range cs.swGroups {
		j.reqs[i] = bus.Request{
			Master: mi, Addr: g.addr * 4, Data: g.data, Write: g.write,
			Done: j.transferDoneFn,
		}
		cs.bus.Submit(&j.reqs[i])
	}
	return cpuDur
}

// cpuPhaseDone fires when the reaction's CPU phase ends.
func (j *swJob) cpuPhaseDone() {
	if j.r == nil {
		j.cs.sched.Release()
		j.cs.swJobs = append(j.cs.swJobs, j)
		return
	}
	j.cpuDone = true
	j.cpuEnd = j.cs.kernel.Now()
	if j.busLeft == 0 {
		j.finish()
	}
}

// transferDone fires when one of the reaction's bus groups completes.
func (j *swJob) transferDone() {
	j.busLeft--
	if j.busLeft == 0 && j.cpuDone {
		j.finish()
	}
}

// finish ends the reaction once its CPU phase and transfers are both over:
// the wait for the transfers is charged, the emissions are delivered, the
// processor is released and the job returns to the pool.
func (j *swJob) finish() {
	cs, mi := j.cs, j.mi
	if wait := cs.kernel.Now() - j.cpuEnd; wait > 0 {
		// The CPU stalls on its outstanding transfers.
		we := units.Energy(float64(cs.cfg.CPUIdle) * wait.Seconds())
		cs.machineWait[mi] += we
		cs.wave.Add(cs.sys.Net.Machines[mi].Name, cs.kernel.Now(), we)
		cs.emitAttrib(mi, srcWait, 0, we)
	}
	cs.deliver(mi, j.r)
	cs.sched.Release()
	cs.swJobs = append(cs.swJobs, j)
}

// fetchICache feeds reaction r's instruction-fetch ranges to the I-cache.
func (cs *CoSim) fetchICache(mi int, r *cfsm.Reaction) error {
	mc := cs.image.Machines[cs.swIdx[mi]]
	ranges, err := mc.FetchTrace(r, cs.ranges)
	cs.ranges = ranges
	if err != nil {
		return err
	}
	for _, rg := range ranges {
		cs.icache.AccessRange(rg.Start, rg.End)
	}
	return nil
}

// estimateSW is the software estimator stack of Fig 2(b): energy cache, then
// macro-model or sampling, then the ISS itself. The returned source label
// names the technique that produced the cost (for attribution).
func (cs *CoSim) estimateSW(mi int, r *cfsm.Reaction, preVars []cfsm.Value) (uint64, units.Energy, string) {
	key := ecache.Key{Machine: mi, Path: r.Path}

	if cs.cfg.Accel.Macromodel {
		cycles, energy := cs.cfg.Accel.MacromodelTable.CostOfReaction(r)
		cs.swSync[mi] = true // the ISS image is not being updated
		if cs.audit.Should() {
			cs.shadowSW(audit.TechMacro, nil, key, r, preVars, energy)
		}
		return cycles, energy, srcMacro
	}

	if cs.swCache != nil {
		e, cyc, ok := cs.swCache.Lookup(key)
		cs.emitECache(mi, r, ok)
		if ok {
			cs.swSync[mi] = true
			if cs.audit.Should() {
				cs.shadowSW(audit.TechECacheSW, cs.swCache, key, r, preVars, e)
			}
			return cyc, e, srcECache
		}
	}

	if cs.cfg.Accel.Sampling {
		st := cs.samples[key]
		if st == nil {
			st = &sampleState{}
			cs.samples[key] = st
		}
		st.seen++
		if st.seen > cs.cfg.Accel.SamplingParams.Warmup {
			st.sinceSample++
			if st.sinceSample < cs.cfg.Accel.SamplingParams.Ratio {
				// Skip the ISS: delay from the path's running mean; energy
				// is covered by the next sample's scale factor.
				cs.swSync[mi] = true
				st.skipped++
				return uint64(st.cycles.Mean() + 0.5), 0, srcSampling
			}
		}
		cyc, e := cs.runISS(mi, r, preVars)
		st.cycles.Add(float64(cyc))
		st.energy.Add(float64(e))
		scale := uint64(1)
		if st.sinceSample > 0 {
			scale = st.sinceSample
			st.sinceSample = 0
		}
		if cs.swCache != nil {
			cs.swCache.Update(key, e, cyc)
		}
		return cyc, units.Energy(float64(e) * float64(scale)), srcSampling
	}

	cyc, e := cs.runISS(mi, r, preVars)
	if cs.swCache != nil {
		cs.swCache.Update(key, e, cyc)
	}
	return cyc, e, srcISS
}

// runISS replays the reaction on the generated code: bind inputs, run to the
// return breakpoint, collect cycles and energy (Fig 2(b)'s "input vectors,
// state, commands" / "cycles, power" exchange).
func (cs *CoSim) runISS(mi int, r *cfsm.Reaction, preVars []cfsm.Value) (uint64, units.Energy) {
	mc := cs.image.Machines[cs.swIdx[mi]]
	if cs.swSync[mi] {
		mc.SyncVars(cs.cpu.Mem, preVars)
		cs.swSync[mi] = false
	}
	mc.BindReaction(cs.cpu.Mem, r)
	mark := cs.spans.BeginWith("iss", cs.sys.Net.Machines[mi].Name, int64(r.Path))
	_, st, err := cs.cpu.Call(mc.Entries[r.TransIdx])
	mark.End(st.Cycles, st.Energy)
	if err != nil {
		cs.fail(err)
		return 0, 0
	}
	cs.outbox = mc.ReadOutbox(cs.cpu.Mem, cs.outbox) // drain; behavioral emissions drive delivery
	cs.issCalls++
	cs.machineEstCalls[mi]++
	cs.trc.Emit(telemetry.Event{
		Time: cs.kernel.Now(), Kind: telemetry.KindISSCall,
		Component: cs.sys.Net.Machines[mi].Name, Machine: mi,
		Path: uint64(r.Path), Cycles: st.Cycles, Energy: st.Energy,
	})
	if cs.cfg.PathEnergy != nil {
		cs.cfg.PathEnergy(mi, r.Path, st.Energy)
	}
	return st.Cycles, st.Energy
}

// shadowSW re-runs an accelerated SW serve on the reference ISS and books
// the divergence. It deliberately bypasses the issCalls/machineEstCalls
// accounting and the PathEnergy callback — shadow runs are audit
// overhead, not part of the estimate (the auditor keeps its own
// counters). cache, when non-nil, receives the fresh reference
// observation, preceded by an invalidation when the auditor flags drift
// past the threshold (continuous re-characterization).
func (cs *CoSim) shadowSW(tech audit.Technique, cache *ecache.Cache, key ecache.Key, r *cfsm.Reaction, preVars []cfsm.Value, served units.Energy) {
	mi := key.Machine
	mc := cs.image.Machines[cs.swIdx[mi]]
	if cs.swSync[mi] {
		mc.SyncVars(cs.cpu.Mem, preVars)
		cs.swSync[mi] = false
	}
	mc.BindReaction(cs.cpu.Mem, r)
	_, st, err := cs.cpu.Call(mc.Entries[r.TransIdx])
	if err != nil {
		cs.fail(err)
		return
	}
	cs.outbox = mc.ReadOutbox(cs.cpu.Mem, cs.outbox)
	out := cs.audit.Observe(tech, served, st.Energy)
	cs.emitShadow(mi, r, tech.String(), served, st.Energy, st.Cycles)
	if cache != nil {
		if out.Invalidate {
			cache.Invalidate(key)
		}
		cache.Update(key, st.Energy, st.Cycles)
	}
}

// finishSampling settles the energy of reactions that were skipped after the
// last dispatched sample of their path.
func (cs *CoSim) finishSampling() {
	if !cs.cfg.Accel.Sampling {
		return
	}
	now := cs.kernel.Now()
	for key, st := range cs.samples {
		if st.sinceSample > 0 && st.energy.N() > 0 {
			e := units.Energy(st.energy.Mean() * float64(st.sinceSample))
			cs.machineEnergy[key.Machine] += e
			cs.wave.Add(cs.sys.Net.Machines[key.Machine].Name, now, e)
			cs.emitAttrib(key.Machine, srcSampling, uint64(key.Path), e)
			st.sinceSample = 0
		}
	}
}
