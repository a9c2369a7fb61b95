package main

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestTailLevelKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{1000, 99, true}, // rank 990: exactly 10 beyond
		{999, 95, true},  // p99 would leave 9
		{9999, 99, true}, // p99.9 would leave 9
		{10000, 99.9, true},
		{200, 95, true},
		{199, 90, true},
		{20, 50, true},
		{19, 0, false},
	} {
		got, ok := tailLevel(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailLevel(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && c.n-rank(got, c.n) < minBeyond {
			t.Errorf("tailLevel(%d) = p%v leaves %d beyond", c.n, got, c.n-rank(got, c.n))
		}
	}
	if got := tailOf(5000); got != maxTail {
		t.Errorf("tailOf(5000) = %v, want the cap %v", got, maxTail)
	}
	if got := tailOf(150); got != 90 {
		t.Errorf("tailOf(150) = %v, want 90", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	s := sortedCopy(xs)
	if xs[0] != 100 {
		t.Fatal("sortedCopy changed its input")
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.estimate", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "estimate", Start: 5, End: 95},
		{ID: 3, Parent: 2, Name: "gate", Start: 10, End: 50},
		{ID: 4, Parent: 2, Name: "iss", Start: 40, End: 60},    // overlaps gate by 10
		{ID: 5, Parent: 2, Name: "iss", Start: 90, End: 120},   // runs past its parent
		{ID: 6, Parent: 2, Name: "rebind", Start: 20, End: 30}, // inside gate
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 10, 2: 90 - 50 - 5, 3: 40, 4: 20, 5: 30, 6: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
	if got := covered([][2]int64{{0, 10}, {5, 15}, {20, 30}, {25, 26}}, 0, 100); got != 25 {
		t.Errorf("covered = %d, want 25", got)
	}
	if got := covered(nil, 0, 100); got != 0 {
		t.Errorf("covered(nil) = %d", got)
	}

	layers := layerSelf(spans)
	// core = bench.estimate + estimate + rebind self time.
	if layers["core"] != 10+35+10 || layers["gate"] != 40 || layers["iss"] != 50 {
		t.Errorf("layerSelf = %v", layers)
	}
	if got := totalDur(spans, "iss"); got != 50 {
		t.Errorf("totalDur(iss) = %d, want 50", got)
	}
}

func TestCollectorPairsBeginAndEnd(t *testing.T) {
	c := newCollector()
	c.Emit(telemetry.Event{Kind: telemetry.KindSpanBegin, Span: 1, Name: "estimate", Time: 5})
	c.Emit(telemetry.Event{Kind: telemetry.KindSpanBegin, Span: 2, Parent: 1, Name: "gate", Component: "checksum", Time: 6})
	c.Emit(telemetry.Event{Kind: telemetry.KindSpanEnd, Span: 2, Time: 8})
	c.Emit(telemetry.Event{Kind: telemetry.KindSpanEnd, Span: 9, Time: 8}) // never begun: ignored
	c.Emit(telemetry.Event{Kind: telemetry.KindISSCall, Time: 8})          // not a span: ignored
	c.Emit(telemetry.Event{Kind: telemetry.KindSpanEnd, Span: 1, Time: 15})
	got := c.take()
	want := []span{
		{ID: 2, Parent: 1, Name: "gate", Detail: "checksum", Start: 6, End: 8},
		{ID: 1, Name: "estimate", Start: 5, End: 15},
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("spans = %+v, want %+v", got, want)
	}
	if len(c.take()) != 0 {
		t.Fatal("take did not empty the collector")
	}

	l := spanLog{max: 1}
	l.add([]span{{ID: 1}, {ID: 2}})
	if len(l.spans) != 1 || l.dropped != 1 {
		t.Fatalf("spanLog kept %d, dropped %d", len(l.spans), l.dropped)
	}
}

func TestArrivalsAreOrderedWithinSpanAndSeeded(t *testing.T) {
	span := 20 * time.Second
	a := arrivals(rand.New(rand.NewSource(7)), 500, span)
	b := arrivals(rand.New(rand.NewSource(7)), 500, span)
	c := arrivals(rand.New(rand.NewSource(8)), 500, span)
	if len(a) != 500 {
		t.Fatalf("len = %d", len(a))
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave different schedules")
		}
		if a[i] != c[i] {
			same = false
		}
		if a[i] < 0 || a[i] >= span || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d at %v: not ordered within [0, %v)", i, a[i], span)
		}
	}
	if same {
		t.Fatal("different seeds gave the same schedule")
	}
	// Exponential gaps: the mean gap is span/(n+1); the coefficient of
	// variation of the gaps is about 1.
	var sum, sq float64
	prev := time.Duration(0)
	for _, d := range a {
		g := float64(d - prev)
		sum += g
		sq += g * g
		prev = d
	}
	mean := sum / float64(len(a))
	cv := math.Sqrt(sq/float64(len(a))-mean*mean) / mean
	if cv < 0.8 || cv > 1.2 {
		t.Errorf("gap coefficient of variation %.2f, want about 1", cv)
	}
}

func TestSampleChargesLatencyFromDueTime(t *testing.T) {
	// Due at 100ms, sent 30ms late because both connections were busy,
	// answered 20ms after sending: the wait counts against latency.
	s := sample{due: 100 * time.Millisecond, sent: 130 * time.Millisecond, done: 150 * time.Millisecond}
	if s.latency() != 50*time.Millisecond || s.lag() != 30*time.Millisecond || s.service() != 20*time.Millisecond {
		t.Fatalf("latency %v lag %v service %v", s.latency(), s.lag(), s.service())
	}
}

func TestDeckKeepsTheMixAcrossSeeds(t *testing.T) {
	count := func(seed int64) map[string]int {
		m := map[string]int{}
		for _, q := range deck(rand.New(rand.NewSource(seed)), 2*len(mixCycle())) {
			m[q.tech]++
		}
		return m
	}
	a, b := count(1), count(2)
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("seed changed the mix: %v vs %v", a, b)
		}
	}
}

func TestHalvesCarryTheSameMix(t *testing.T) {
	a := fleetReq{design: 0, tech: "macro", dmas: []int{2}}
	b := fleetReq{design: 1, tech: "full", dmas: []int{4}}
	c := fleetReq{design: 2, tech: "ecache", dmas: dmaSizes}
	got := halves([]fleetReq{a, b, a, c, a, b, a, c, c})
	want := []int{1, 1, 0, 1, 1, 0, 0, 0, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("halves = %v, want %v", got, want)
		}
	}
}

const csvHead = "run_id,experiment,kind,system,backend,variant,dma,packets,repeat,seed,energy_j,sw_j,hw_j,bus_j,sim_ns,wall_ns,iss_calls,iss_insts,gate_execs\n"

func TestParseBaseline(t *testing.T) {
	in := csvHead +
		"b,table1-ecache,table1,tcpip,,base,2,12,0,1,3.698604892487463e-05,0,0,0,1,2,60,15570,12\n" +
		"b,table1-ecache,table1,tcpip,,base,2,12,1,1,9,0,0,0,1,2,1,1,1\n" + // repeat 1: skipped
		"b,table1-ecache,table1,tcpip,,base,2,3,0,1,9,0,0,0,1,2,1,1,1\n" + // other packets: skipped
		"b,table2-macro,table2,tcpip,,macro,64,12,0,1,1.5e-05,0,0,0,1,2,7,8,9\n"
	got, err := parseBaseline(strings.NewReader(in), 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d rows, want 2: %v", len(got), got)
	}
	want := cellOut{EnergyJ: 3.698604892487463e-05, ISSCalls: 60, ISSInsts: 15570, GateExecs: 12}
	if have := got[baselineKey{"table1-ecache", "base", 2}]; have != want {
		t.Errorf("base dma 2 = %+v, want %+v", have, want)
	}
	if have := got[baselineKey{"table2-macro", "macro", 64}]; have.GateExecs != 9 || have.EnergyJ != 1.5e-05 {
		t.Errorf("macro dma 64 = %+v", have)
	}
}

func TestParseBaselineRejectsBadInput(t *testing.T) {
	for name, in := range map[string]string{
		"empty":          "",
		"missing column": "experiment,variant\nx,y\n",
		"bad energy":     csvHead + "b,t,t,tcpip,,base,2,12,0,1,abc,0,0,0,1,2,1,1,1\n",
		"bad count":      csvHead + "b,t,t,tcpip,,base,2,12,0,1,1e-5,0,0,0,1,2,-1,1,1\n",
	} {
		if _, err := parseBaseline(strings.NewReader(in), 12); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}
