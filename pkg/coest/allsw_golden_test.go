package coest_test

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/bus"
	"repro/internal/cachesim"
	"repro/internal/ecache"
	"repro/pkg/coest"
)

// allSWCell is the bit-level fingerprint of one all-SW estimate.
type allSWCell struct {
	Energy    uint64 // math.Float64bits of Report.Total
	ISSCalls  uint64
	ISSInsts  uint64
	Cache     cachesim.Stats
	CacheBits uint64 // math.Float64bits of CacheStats.Energy
	Bus       bus.Stats
	BusBits   uint64 // math.Float64bits of BusStats.Energy
}

// allSWSystem is the all-SW end of the TCP/IP partition sweep: checksum,
// the only HW process, remapped to the CPU, so every reaction runs through
// the ISS, the I-cache simulator and programmed-I/O bus transfers.
func allSWSystem(dma int) *coest.System {
	p := coest.DefaultTCPIPParams()
	p.Packets = 48
	p.DMASize = dma
	p.Seed = 1
	sys := coest.TCPIP(p)
	procs := sys.Spec().Procs
	pc := procs["checksum"]
	pc.Mapping = coest.SW
	procs["checksum"] = pc
	return sys
}

func allSWOpts(variant string) []coest.Option {
	if variant == "ecache" {
		return []coest.Option{coest.WithEnergyCacheParams(coest.ECacheParams(ecache.Table1Params())), coest.WithAttribution()}
	}
	return nil
}

func fingerprint(rep *coest.Report) allSWCell {
	return allSWCell{
		Energy:    math.Float64bits(float64(rep.Total)),
		ISSCalls:  rep.ISSCalls,
		ISSInsts:  rep.ISSInsts,
		Cache:     rep.CacheStats,
		CacheBits: math.Float64bits(float64(rep.CacheStats.Energy)),
		Bus:       rep.BusStats,
		BusBits:   math.Float64bits(float64(rep.BusStats.Energy)),
	}
}

// allSWGolden was recorded before the SW reaction path was made
// line-granular and allocation-lean; any drift in energy, ISS work, I-cache
// or bus activity is a behaviour change, not a speedup.
var allSWGolden = []struct {
	variant string
	dma     int
	want    allSWCell
}{
	{"full", 2, allSWCell{0x3f33a758a102bd0f, 288, 138468, cachesim.Stats{Accesses: 0x21ce4, Hits: 0x21c72, Misses: 0x72, Cycles: 0x390, Energy: 4.983179999990426e-05}, 0x3f0a204f9c43628c, bus.Stats{Transactions: 0x390, Grants: 0xfc0, Words: 0x1ec0, BusyCycles: 0x9a80, AddrToggles: 0x39ea, DataToggles: 0x7182, CtrlToggles: 0x3f00, Energy: 3.2676534000000678e-06}, 0x3ecb693b7454ee0f}},
	{"ecache", 2, allSWCell{0x3f33a7624ae96823, 23, 8940, cachesim.Stats{Accesses: 0x21ce4, Hits: 0x21c72, Misses: 0x72, Cycles: 0x390, Energy: 4.983179999990426e-05}, 0x3f0a204f9c43628c, bus.Stats{Transactions: 0x390, Grants: 0xfc0, Words: 0x1ec0, BusyCycles: 0x9a80, AddrToggles: 0x39ea, DataToggles: 0x7182, CtrlToggles: 0x3f00, Energy: 3.2676534000000678e-06}, 0x3ecb693b7454ee0f}},
	{"full", 16, allSWCell{0x3f3366f26e5048c7, 288, 138480, cachesim.Stats{Accesses: 0x21cf0, Hits: 0x21c7e, Misses: 0x72, Cycles: 0x390, Energy: 4.9835999999904226e-05}, 0x3f0a20dfebda9a34, bus.Stats{Transactions: 0x390, Grants: 0x3f0, Words: 0x1ec0, BusyCycles: 0x82e0, AddrToggles: 0x39ce, DataToggles: 0x714c, CtrlToggles: 0xfc0, Energy: 2.604561300000006e-06}, 0x3ec5d940b7a1262e}},
	{"ecache", 16, allSWCell{0x3f3366fc1836f47b, 23, 8940, cachesim.Stats{Accesses: 0x21cf0, Hits: 0x21c7e, Misses: 0x72, Cycles: 0x390, Energy: 4.9835999999904226e-05}, 0x3f0a20dfebda9a34, bus.Stats{Transactions: 0x390, Grants: 0x3f0, Words: 0x1ec0, BusyCycles: 0x82e0, AddrToggles: 0x39ce, DataToggles: 0x714c, CtrlToggles: 0xfc0, Energy: 2.604561300000006e-06}, 0x3ec5d940b7a1262e}},
	{"full", 64, allSWCell{0x3f336698a0d84a8f, 288, 138480, cachesim.Stats{Accesses: 0x21cf0, Hits: 0x21c7e, Misses: 0x72, Cycles: 0x390, Energy: 4.9835999999904226e-05}, 0x3f0a20dfebda9a34, bus.Stats{Transactions: 0x390, Grants: 0x390, Words: 0x1ec0, BusyCycles: 0x8220, AddrToggles: 0x39ce, DataToggles: 0x714c, CtrlToggles: 0xe40, Energy: 2.58365250000001e-06}, 0x3ec5ac59fba20a07}},
	{"ecache", 64, allSWCell{0x3f3366a24abef643, 23, 8940, cachesim.Stats{Accesses: 0x21cf0, Hits: 0x21c7e, Misses: 0x72, Cycles: 0x390, Energy: 4.9835999999904226e-05}, 0x3f0a20dfebda9a34, bus.Stats{Transactions: 0x390, Grants: 0x390, Words: 0x1ec0, BusyCycles: 0x8220, AddrToggles: 0x39ce, DataToggles: 0x714c, CtrlToggles: 0xe40, Energy: 2.58365250000001e-06}, 0x3ec5ac59fba20a07}},
}

// TestAllSWGolden pins the all-SW partition with the I-cache on, which no
// paper baseline row covers: a cold Estimate and the estimates of a Session
// must reproduce the recorded fingerprint bit for bit. An ecache Session
// keeps its energy cache warm across estimates, so only its first estimate
// matches a cold one.
func TestAllSWGolden(t *testing.T) {
	ctx := context.Background()
	for _, g := range allSWGolden {
		t.Run(fmt.Sprintf("%s/dma%d", g.variant, g.dma), func(t *testing.T) {
			cold, err := coest.Estimate(ctx, allSWSystem(g.dma), allSWOpts(g.variant)...)
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(cold); got != g.want {
				t.Fatalf("cold estimate drifted:\nhave %+v\nwant %+v", got, g.want)
			}
			sess, err := coest.NewSession(allSWSystem(g.dma))
			if err != nil {
				t.Fatal(err)
			}
			runs := 2
			if g.variant == "ecache" {
				runs = 1
			}
			for i := 0; i < runs; i++ {
				warm, err := sess.Estimate(ctx, allSWOpts(g.variant)...)
				if err != nil {
					t.Fatal(err)
				}
				if got := fingerprint(warm); got != g.want {
					t.Fatalf("warm estimate %d drifted:\nhave %+v\nwant %+v", i, got, g.want)
				}
			}
		})
	}
}

// TestSessionConcurrentAllSW runs all-SW estimates concurrently on one
// Session (run under -race): every run works on its own clone of the
// machines and its own SW reaction buffers, so each must still match the
// golden fingerprint.
func TestSessionConcurrentAllSW(t *testing.T) {
	want := allSWGolden[2] // full, DMA 16
	sess, err := coest.NewSession(allSWSystem(want.dma))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([][2]allSWCell, 4)
	errs := make([]error, len(got))
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := range got[i] {
				rep, err := sess.Estimate(context.Background())
				if err != nil {
					errs[i] = err
					return
				}
				got[i][k] = fingerprint(rep)
			}
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for k, f := range got[i] {
			if f != want.want {
				t.Fatalf("goroutine %d estimate %d drifted:\nhave %+v\nwant %+v", i, k, f, want.want)
			}
		}
	}
}
