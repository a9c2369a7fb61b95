// Package rtos models the run-time operating system that POLIS generates for
// the software partition (paper §3): all CFSMs mapped to the same processor
// share it, so their reactions are serialized by a non-preemptive scheduler
// with a configurable policy and a per-dispatch overhead. This serialization
// is one of the paper's stated reasons why separate per-component power
// estimation misleads — activity in a shared processor depends on how the
// component interactions interleave in time.
package rtos

import (
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// mDispatches counts dispatched reactions across every scheduler instance.
var mDispatches = telemetry.Default.Counter("coest_rtos_dispatches_total", "reactions dispatched by the RTOS scheduler")

// Policy selects the ready-queue discipline.
type Policy int

// Scheduling policies.
const (
	FIFO Policy = iota
	PriorityPolicy
)

func (p Policy) String() string {
	if p == FIFO {
		return "fifo"
	}
	return "priority"
}

// Config parameterizes the scheduler.
type Config struct {
	Policy         Policy
	DispatchCycles uint64          // scheduler overhead per dispatched reaction
	Clock          units.Frequency // processor clock (for overhead time)
}

// DefaultConfig returns a priority scheduler with a 25-cycle dispatch cost
// at 50 MHz.
func DefaultConfig() Config {
	return Config{Policy: PriorityPolicy, DispatchCycles: 25, Clock: 50e6}
}

// Job is one pending reaction. Service is invoked at dispatch time and
// returns the busy duration (e.g. from running the ISS); Done fires when the
// CPU phase completes, at that timestamp.
//
// A job with Hold set keeps the processor allocated after its CPU phase
// (e.g. a reaction performing programmed-I/O transfers over the shared bus);
// the owner must call Scheduler.Release when the post-CPU phase finishes.
type Job struct {
	ID       int
	Priority int // lower wins under PriorityPolicy
	Hold     bool
	Service  func() units.Time
	Done     func()

	seq uint64
}

// Stats reports scheduler activity.
type Stats struct {
	Dispatches     uint64
	OverheadCycles uint64
	BusyTime       units.Time // service time, excluding overhead
	OverheadTime   units.Time
	MaxQueueLen    int
}

// Scheduler is the shared-processor reaction scheduler.
type Scheduler struct {
	cfg     Config
	kernel  *sim.Kernel
	queue   []*Job
	busy    bool
	holding bool
	seq     uint64
	stats   Stats

	// running is the dispatched job whose CPU phase is in flight (one at
	// a time: the processor is busy until it completes); serviceEndFn is
	// s.serviceEnd bound once, so a dispatch schedules no fresh closure.
	running      *Job
	serviceEndFn func()
}

// New returns a scheduler attached to the kernel.
func New(k *sim.Kernel, cfg Config) *Scheduler {
	if cfg.Clock <= 0 {
		cfg.Clock = 50e6
	}
	s := &Scheduler{cfg: cfg, kernel: k}
	s.serviceEndFn = s.serviceEnd
	return s
}

// Stats returns the accumulated statistics.
func (s *Scheduler) Stats() Stats { return s.stats }

// QueueLen returns the number of jobs waiting (excluding the running one).
func (s *Scheduler) QueueLen() int { return len(s.queue) }

// Busy reports whether a reaction is currently executing.
func (s *Scheduler) Busy() bool { return s.busy }

// Holding reports whether a job is keeping the processor allocated past its
// CPU phase (between its Done callback and Release). A scheduler that is
// holding with jobs still queued when the event queue drains is deadlocked:
// the release event will never fire.
func (s *Scheduler) Holding() bool { return s.holding }

// Post enqueues a job. If the processor is idle it dispatches immediately
// (at the current simulation time).
func (s *Scheduler) Post(j *Job) {
	j.seq = s.seq
	s.seq++
	s.queue = append(s.queue, j)
	if len(s.queue) > s.stats.MaxQueueLen {
		s.stats.MaxQueueLen = len(s.queue)
	}
	if !s.busy {
		s.dispatch()
	}
}

// pick removes and returns the next job: the queue head under FIFO, the
// lowest Priority (earliest posted among equals) under PriorityPolicy.
func (s *Scheduler) pick() *Job {
	best := 0
	if s.cfg.Policy == PriorityPolicy {
		for i, j := range s.queue {
			b := s.queue[best]
			if j.Priority < b.Priority || (j.Priority == b.Priority && j.seq < b.seq) {
				best = i
			}
		}
	}
	j := s.queue[best]
	s.queue = append(s.queue[:best], s.queue[best+1:]...)
	return j
}

func (s *Scheduler) dispatch() {
	if len(s.queue) == 0 {
		s.busy = false
		return
	}
	s.busy = true
	j := s.pick()

	overhead := units.Time(s.cfg.DispatchCycles) * s.cfg.Clock.Period()
	service := j.Service()
	if service < 0 {
		service = 0
	}
	s.stats.Dispatches++
	mDispatches.Inc()
	s.stats.OverheadCycles += s.cfg.DispatchCycles
	s.stats.OverheadTime += overhead
	s.stats.BusyTime += service

	s.running = j
	s.kernel.At(s.kernel.Now()+overhead+service, s.serviceEndFn)
}

// serviceEnd fires when the running job's CPU phase completes.
func (s *Scheduler) serviceEnd() {
	j := s.running
	s.running = nil
	if j.Hold {
		s.holding = true
		if j.Done != nil {
			j.Done()
		}
		return
	}
	if j.Done != nil {
		j.Done()
	}
	s.dispatch()
}

// Release ends the held post-CPU phase of the current job and dispatches the
// next pending reaction. It panics when no job is holding the processor.
func (s *Scheduler) Release() {
	if !s.holding {
		panic("rtos: Release without a holding job")
	}
	s.holding = false
	s.dispatch()
}
