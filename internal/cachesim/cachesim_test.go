package cachesim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func small() Config {
	return Config{
		Sets: 4, Ways: 2, LineBytes: 16,
		MissPenalty: 8, MissEnergy: 10 * units.Nanojoule, HitEnergy: 1 * units.Nanojoule,
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := MustNew(small())
	if c.Access(0x100) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x100) {
		t.Fatal("second access missed")
	}
	if !c.Access(0x104) {
		t.Fatal("same-line access missed")
	}
	st := c.Stats()
	if st.Accesses != 3 || st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Cycles != 8 {
		t.Fatalf("miss cycles = %d, want 8", st.Cycles)
	}
	wantE := 3*units.Nanojoule + 10*units.Nanojoule
	if d := float64(st.Energy - wantE); d > 1e-18 || d < -1e-18 {
		t.Fatalf("energy = %v, want %v", st.Energy, wantE)
	}
}

func TestConflictEviction(t *testing.T) {
	// 4 sets x 16B lines: addresses 64 apart map to the same set.
	c := MustNew(small()) // 2 ways
	c.Access(0x000)
	c.Access(0x040)
	c.Access(0x080) // evicts LRU (0x000)
	if c.Access(0x000) {
		t.Fatal("evicted line still hit")
	}
	// The refill of 0x000 evicted 0x040 (LRU vs 0x080); 0x080 must survive.
	if !c.Access(0x080) {
		t.Fatal("MRU line 0x080 was evicted")
	}
}

func TestLRUOrder(t *testing.T) {
	c := MustNew(small())
	c.Access(0x000) // way A
	c.Access(0x040) // way B
	c.Access(0x000) // touch A -> B is LRU
	c.Access(0x080) // evict B
	if !c.Access(0x000) {
		t.Fatal("MRU line was evicted")
	}
	if c.Access(0x040) {
		t.Fatal("LRU line was not evicted")
	}
}

func TestAccessRange(t *testing.T) {
	c := MustNew(small())
	c.AccessRange(0x100, 0x140) // 16 words, 4 lines
	st := c.Stats()
	if st.Accesses != 16 {
		t.Fatalf("accesses = %d, want 16", st.Accesses)
	}
	if st.Misses != 4 {
		t.Fatalf("misses = %d, want 4 (one per line)", st.Misses)
	}
	c.AccessRange(0x100, 0x140)
	if c.Stats().Misses != 4 {
		t.Fatal("warm rerun must not miss")
	}
}

func TestAccessRangeUnalignedStart(t *testing.T) {
	c := MustNew(small())
	c.AccessRange(0x102, 0x110) // start is word-aligned down
	if c.Stats().Accesses != 4 {
		t.Fatalf("accesses = %d, want 4", c.Stats().Accesses)
	}
}

func TestReset(t *testing.T) {
	c := MustNew(small())
	c.Access(0x100)
	c.Reset()
	if c.Stats().Accesses != 0 {
		t.Fatal("Reset did not clear stats")
	}
	if c.Access(0x100) {
		t.Fatal("Reset did not invalidate lines")
	}
}

func TestMissRate(t *testing.T) {
	c := MustNew(small())
	if c.Stats().MissRate() != 0 {
		t.Fatal("empty cache must report 0 miss rate")
	}
	c.Access(0x0)
	c.Access(0x0)
	if got := c.Stats().MissRate(); got != 0.5 {
		t.Fatalf("miss rate = %g, want 0.5", got)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Sets: 3, Ways: 1, LineBytes: 16},
		{Sets: 4, Ways: 0, LineBytes: 16},
		{Sets: 4, Ways: 1, LineBytes: 12},
		{Sets: 0, Ways: 1, LineBytes: 16},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if _, err := New(Default8K()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew must panic on bad config")
		}
	}()
	MustNew(Config{Sets: 3, Ways: 1, LineBytes: 16})
}

// Property: a direct-mapped cache with S sets and L-byte lines hits iff the
// previous access to the same set had the same tag (reference model check).
func TestPropertyDirectMappedMatchesReferenceModel(t *testing.T) {
	f := func(seed int64) bool {
		cfg := Config{Sets: 8, Ways: 1, LineBytes: 16}
		c := MustNew(cfg)
		ref := make(map[uint32]uint32) // set -> tag
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			addr := uint32(rng.Intn(1 << 12))
			lineAddr := addr >> 4
			set := lineAddr & 7
			tag := lineAddr >> 3
			wantHit := false
			if tg, ok := ref[set]; ok && tg == tag {
				wantHit = true
			}
			ref[set] = tag
			if c.Access(addr) != wantHit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: hits + misses == accesses, and energy is monotone in accesses.
func TestPropertyStatsConsistent(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := MustNew(Default8K())
		var last units.Energy
		for _, a := range addrs {
			c.Access(uint32(a) * 4)
			st := c.Stats()
			if st.Hits+st.Misses != st.Accesses {
				return false
			}
			if st.Energy < last {
				return false
			}
			last = st.Energy
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWarmLoopIsAllHits(t *testing.T) {
	// A loop fitting in the cache must be 100% hits after the first pass —
	// the scenario that makes the ISS 100%-hit assumption reasonable.
	c := MustNew(Default8K())
	for pass := 0; pass < 10; pass++ {
		c.AccessRange(0x1000, 0x1200)
	}
	st := c.Stats()
	if st.Misses != 0x200/16 {
		t.Fatalf("misses = %d, want one per line on the first pass only", st.Misses)
	}
}

// perWord is the reference for AccessRange: one Access per word of
// [start, end), in 64-bit address arithmetic so the top of the address
// space terminates.
func perWord(c *Cache, start, end uint32) {
	for a := uint64(start &^ 3); a < uint64(end); a += 4 {
		c.Access(uint32(a))
	}
}

func sameStats(a, b Stats) bool {
	return a.Accesses == b.Accesses && a.Hits == b.Hits && a.Misses == b.Misses &&
		a.Cycles == b.Cycles && math.Float64bits(float64(a.Energy)) == math.Float64bits(float64(b.Energy))
}

// TestAccessRangeMatchesPerWord is the property behind the line-granular
// range mode: on random caches and ranges (unaligned ends, multi-line spans,
// eviction pressure, ranges ending at 0xFFFFFFFF), AccessRange leaves the
// same statistics — Energy compared bit for bit — and the same lines and
// stamps as a per-word Access loop, and the same LRU behaviour, checked
// through the hit/miss sequence of a follow-up access stream.
func TestAccessRangeMatchesPerWord(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		cfg := Config{
			Sets:        1 << rng.Intn(5),
			Ways:        1 + rng.Intn(4),
			LineBytes:   1 << rng.Intn(7), // 1..64 bytes, sub-word lines included
			MissPenalty: uint64(rng.Intn(10)),
			MissEnergy:  units.Energy(rng.Float64()) * units.Nanojoule,
			HitEnergy:   units.Energy(rng.Float64()) * units.Nanojoule,
		}
		fast, ref := MustNew(cfg), MustNew(cfg)
		// A small window makes ranges overlap and evict each other; the top
		// window exercises the end of the address space.
		base := uint32(0)
		if trial%3 == 0 {
			base = 0xFFFFFF00
		}
		for i := 0; i < 40; i++ {
			start := base + uint32(rng.Intn(256))
			end := start + uint32(rng.Intn(96))
			switch {
			case rng.Intn(8) == 0:
				end = start // empty range
			case base != 0 && (end < start || rng.Intn(4) == 0):
				end = 0xFFFFFFFF
			}
			fast.AccessRange(start, end)
			perWord(ref, start, end)
			if !sameStats(fast.Stats(), ref.Stats()) {
				t.Fatalf("trial %d cfg %+v range [%#x,%#x): stats %+v, per-word %+v",
					trial, cfg, start, end, fast.Stats(), ref.Stats())
			}
			if !slices.Equal(fast.lines, ref.lines) || fast.stamp != ref.stamp {
				t.Fatalf("trial %d cfg %+v range [%#x,%#x): line state differs from per-word access",
					trial, cfg, start, end)
			}
		}
		for i := 0; i < 200; i++ {
			a := base + uint32(rng.Intn(256))
			if fast.Access(a) != ref.Access(a) {
				t.Fatalf("trial %d cfg %+v: follow-up access %d (%#x) disagrees, LRU state diverged",
					trial, cfg, i, a)
			}
		}
	}
}

// TestAccessRangeTopOfAddressSpace pins the termination of a range that
// ends at the last address: its words are 0xFFFFFFF0..0xFFFFFFFC.
func TestAccessRangeTopOfAddressSpace(t *testing.T) {
	c := MustNew(small())
	c.AccessRange(0xFFFFFFF0, 0xFFFFFFFF)
	if st := c.Stats(); st.Accesses != 4 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 4 accesses and 1 miss", st)
	}
}

// TestAccessRangeZeroAlloc guards the I-cache range mode the master calls
// once per basic block of every SW reaction.
func TestAccessRangeZeroAlloc(t *testing.T) {
	c := MustNew(Default8K())
	if n := testing.AllocsPerRun(100, func() {
		c.AccessRange(0x1000, 0x1234)
		c.AccessRange(0x9000, 0x9100)
	}); n != 0 {
		t.Fatalf("AccessRange allocates %.1f times per call pair, want 0", n)
	}
}
