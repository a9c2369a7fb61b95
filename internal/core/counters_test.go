package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/systems"
	"repro/internal/telemetry"
)

// TestGateCountersMatchSimTotals checks the process-wide gate counters that
// /metrics and the benchmark read against the simulators' own totals over a
// full TCP/IP run (auditing off): every simulated and every fast-forwarded
// bus-stall cycle is counted once, and so is every gate evaluation.
func TestGateCountersMatchSimTotals(t *testing.T) {
	cycles := telemetry.Default.Counter("coest_gate_cycles_total", "")
	evals := telemetry.Default.Counter("coest_gate_evals_total", "")
	p := systems.DefaultTCPIP()
	p.Packets = 4
	sys, cfg := systems.TCPIP(p)
	cs, err := core.New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c0, e0 := cycles.Value(), evals.Value()
	rep, err := cs.Run()
	if err != nil {
		t.Fatal(err)
	}
	dc, de := cycles.Value()-c0, evals.Value()-e0
	simC, simE := cs.GateTotals()
	var repC uint64
	for _, m := range rep.Machines {
		if m.Mapping == core.HW {
			repC += m.Cycles
		}
	}
	if repC == 0 || rep.BusStats.Grants == 0 {
		t.Fatalf("run simulated %d HW cycles and %d bus grants, want both > 0", repC, rep.BusStats.Grants)
	}
	if dc != simC || simC != repC {
		t.Fatalf("cycles: counter %d, simulators %d, report %d", dc, simC, repC)
	}
	if de != simE {
		t.Fatalf("evals: counter %d, simulators %d", de, simE)
	}
}
