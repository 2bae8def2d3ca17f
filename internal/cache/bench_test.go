package cache

import "testing"

// llc returns the simulator's LLC geometry (16384 sets x 20 ways), whose
// three-word set headers and host-memory misses dominate the per-cycle
// path.
func llc() *Cache {
	return New(Config{Sets: 16384, Ways: 20, LineBytes: 64, HitLatency: 44})
}

// BenchmarkCacheLookup measures a demand hit on a full 20-way LLC set:
// the single hottest cache operation in the simulator.
func BenchmarkCacheLookup(b *testing.B) {
	c := llc()
	sets := uint64(c.Config().Sets)
	for w := 0; w < c.Config().Ways; w++ {
		for s := uint64(0); s < sets; s++ {
			fill(c, uint64(w)*sets+s, NoOwner, false, c.Config().AllWays())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lookup(c, uint64(i)%sets, true)
	}
}

// BenchmarkCacheLookupMiss measures a demand miss on a full set: a
// fingerprint compare over the header, and a tag load per false match.
func BenchmarkCacheLookupMiss(b *testing.B) {
	c := llc()
	sets := uint64(c.Config().Sets)
	for w := 0; w < c.Config().Ways; w++ {
		for s := uint64(0); s < sets; s++ {
			fill(c, uint64(w)*sets+s, NoOwner, false, c.Config().AllWays())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Tags beyond 20*sets are never resident.
		lookup(c, uint64(21)*sets+uint64(i)%sets, true)
	}
}

// BenchmarkCacheProbe measures the side-effect-free residency check used
// by the prefetch dedup path.
func BenchmarkCacheProbe(b *testing.B) {
	c := llc()
	sets := uint64(c.Config().Sets)
	for s := uint64(0); s < sets; s++ {
		fill(c, s, NoOwner, false, c.Config().AllWays())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Probe(uint64(i) % sets)
	}
}

// BenchmarkCacheFillInvalid measures fills that land in an invalid way —
// the warm-up regime, served by the header's valid-way bitmask.
func BenchmarkCacheFillInvalid(b *testing.B) {
	c := llc()
	sets := uint64(c.Config().Sets)
	mask := c.Config().AllWays()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%(20*int(sets)) == 0 && i > 0 {
			b.StopTimer()
			c.Flush()
			b.StartTimer()
		}
		fill(c, uint64(i), NoOwner, false, mask)
	}
}

// BenchmarkCacheFillEvictLLC measures steady-state fills on full sets:
// every fill evicts the way of the highest LRU rank.
func BenchmarkCacheFillEvictLLC(b *testing.B) {
	c := llc()
	sets := uint64(c.Config().Sets)
	mask := c.Config().AllWays()
	for w := 0; w < c.Config().Ways; w++ {
		for s := uint64(0); s < sets; s++ {
			fill(c, uint64(w)*sets+s, NoOwner, false, mask)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill(c, uint64(30)*sets+uint64(i), NoOwner, false, mask)
	}
}
