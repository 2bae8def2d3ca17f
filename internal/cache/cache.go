// Package cache implements the set-associative caches of the simulated
// machine: private L1/L2 and the shared, way-partitionable (Intel CAT
// style) inclusive LLC.
//
// CAT semantics follow the SDM: the capacity bitmask of a core's class of
// service restricts where *fills* may allocate; *hits* are served from any
// way. Partitions may overlap, which the paper exploits ("note that we are
// using overlapping partitioning").
//
// The implementation keeps two pieces of per-set metadata so the hot
// operations avoid scanning every way linearly: a valid-way bitmask
// (lookups iterate only resident ways, fills find an invalid way with one
// TrailingZeros64) and an MRU hint naming the way of the most recent hit
// or fill (streaming cores touch the same line repeatedly, so the hint
// resolves most lookups in one probe). Both are pure accelerations: hit
// and miss outcomes, LRU stamps, victim choices, and stats are identical
// to a linear scan because a line is resident in at most one way of its
// set (Fill refreshes in place when the tag is already present).
package cache

import (
	"fmt"
	"math/bits"
)

// NoOwner marks a line whose owner core is not tracked (private caches).
const NoOwner = -1

// Config sizes a cache.
type Config struct {
	// Sets and Ways define the geometry; capacity = Sets*Ways*LineBytes.
	Sets, Ways int
	// LineBytes is the block size (64 on the target platform).
	LineBytes int
	// HitLatency is the access latency in core cycles.
	HitLatency int
}

// Validate reports a descriptive error for unusable geometries.
func (c Config) Validate() error {
	switch {
	case c.Sets <= 0 || c.Sets&(c.Sets-1) != 0:
		return fmt.Errorf("cache: Sets %d must be a positive power of two", c.Sets)
	case c.Ways <= 0 || c.Ways > 64:
		return fmt.Errorf("cache: Ways %d must be in [1,64]", c.Ways)
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cache: LineBytes %d must be a positive power of two", c.LineBytes)
	case c.HitLatency <= 0:
		return fmt.Errorf("cache: HitLatency %d must be positive", c.HitLatency)
	}
	return nil
}

// CapacityBytes returns the total capacity.
func (c Config) CapacityBytes() int { return c.Sets * c.Ways * c.LineBytes }

// AllWays returns the mask selecting every way of the cache.
func (c Config) AllWays() uint64 {
	if c.Ways == 64 {
		return ^uint64(0)
	}
	return (1 << uint(c.Ways)) - 1
}

// Stats counts cache events since the last reset.
type Stats struct {
	// Hits and Misses count lookups by result.
	Hits, Misses uint64
	// PrefetchHitsUsed counts demand hits on lines brought by a
	// prefetcher and not yet referenced — "useful prefetches".
	PrefetchHitsUsed uint64
	// Evictions counts victims discarded by fills.
	Evictions uint64
	// LateHits counts hits that had to wait for an in-flight fill.
	LateHits uint64
	// PrefetchedEvictedUnused counts prefetched lines evicted before any
	// demand touched them — "useless prefetches" (cache pollution).
	PrefetchedEvictedUnused uint64
}

const (
	flagValid    uint8 = 1 << 0
	flagPrefetch uint8 = 1 << 1
	flagDirty    uint8 = 1 << 2
)

// Cache is a set-associative cache with true-LRU replacement. It is not
// safe for concurrent use.
type Cache struct {
	cfg     Config
	setMask uint64
	full    uint64 // cfg.AllWays(), precomputed for the hot path

	tags  []uint64
	meta  []lineMeta
	stamp []uint64
	valid []uint64 // per-set bitmask of ways holding a valid line
	hint  []int32  // per-set MRU way (last hit or fill); verified before use
	clock uint64

	stats Stats
}

// lineMeta groups the per-line fields that hot operations read and write
// together, so a hit or fill touches one cache line of metadata instead of
// three parallel arrays. tags and stamp stay separate: lookups scan tags
// and LRU selection scans stamps, and interleaving either with this struct
// would double the scanned bytes.
type lineMeta struct {
	ready uint64 // cycle at which the line's data arrives (in-flight fills)
	owner int32
	flags uint8
}

// New builds a cache; it panics on invalid configuration.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.Sets * cfg.Ways
	c := &Cache{
		cfg:     cfg,
		setMask: uint64(cfg.Sets - 1),
		full:    cfg.AllWays(),
		tags:    make([]uint64, n),
		meta:    make([]lineMeta, n),
		stamp:   make([]uint64, n),
		valid:   make([]uint64, cfg.Sets),
		hint:    make([]int32, cfg.Sets),
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the counters accumulated since the last ResetStats.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters; contents are preserved.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Flush invalidates every line and resets the LRU clock. Stats are kept.
func (c *Cache) Flush() {
	for i := range c.meta {
		c.meta[i] = lineMeta{}
	}
	for s := range c.valid {
		c.valid[s] = 0
		c.hint[s] = 0
	}
	c.clock = 0
}

// CopyFrom makes c an exact copy of src: contents, LRU state, MRU hints,
// clock and stats. Both caches must have the same geometry; it panics
// otherwise (machines are copied only onto machines of their own Config).
func (c *Cache) CopyFrom(src *Cache) {
	if c.cfg != src.cfg {
		panic("cache: CopyFrom across geometries")
	}
	copy(c.tags, src.tags)
	copy(c.meta, src.meta)
	copy(c.stamp, src.stamp)
	copy(c.valid, src.valid)
	copy(c.hint, src.hint)
	c.clock, c.stats = src.clock, src.stats
}

// Reset returns the cache to the state New builds: every array zeroed,
// clock and stats included, so a recycled cache is indistinguishable from
// a new one.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.meta)
	clear(c.stamp)
	clear(c.valid)
	clear(c.hint)
	c.clock, c.stats = 0, Stats{}
}

func (c *Cache) set(line uint64) int { return int(line & c.setMask) }

// find returns the way holding line in set s, or -1. It touches no state.
// A full set (the steady-state case) scans its tags as a plain slice; a
// partially valid one iterates only the valid ways. Either order yields
// the same way because a line is resident in at most one way of its set.
func (c *Cache) find(s int, line uint64) int {
	base := s * c.cfg.Ways
	m := c.valid[s]
	if h := int(c.hint[s]); m>>uint(h)&1 != 0 && c.tags[base+h] == line {
		return h
	}
	if m == c.full {
		tags := c.tags[base : base+c.cfg.Ways]
		for w := range tags {
			if tags[w] == line {
				return w
			}
		}
		return -1
	}
	for ; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if c.tags[base+w] == line {
			return w
		}
	}
	return -1
}

// touch records a hit on way i (a flat index): it advances the LRU clock,
// clears the prefetch bit on demand accesses (counting a useful prefetch),
// and reports how long a late in-flight fill makes the access wait.
func (c *Cache) touch(i int, demand bool, now uint64) (wait uint64) {
	c.clock++
	c.stamp[i] = c.clock
	m := &c.meta[i]
	if demand && m.flags&flagPrefetch != 0 {
		m.flags &^= flagPrefetch
		c.stats.PrefetchHitsUsed++
	}
	c.stats.Hits++
	if m.ready > now {
		wait = m.ready - now
		c.stats.LateHits++
	}
	return wait
}

// Lookup searches for the line at cycle now. On a hit it updates recency
// and, if the line had been prefetched and this is a demand access, clears
// the prefetch bit and counts a useful prefetch. It returns whether the
// access hit and, for hits on in-flight fills (a prefetch issued recently
// whose data has not yet arrived — a "late prefetch"), how many cycles
// remain until the data is usable.
func (c *Cache) Lookup(line uint64, demand bool, now uint64) (hit bool, wait uint64) {
	s := c.set(line)
	w := c.find(s, line)
	if w < 0 {
		c.stats.Misses++
		return false, 0
	}
	c.hint[s] = int32(w)
	return true, c.touch(s*c.cfg.Ways+w, demand, now)
}

// Probe reports whether the line is present without changing any state or
// statistics.
func (c *Cache) Probe(line uint64) bool {
	return c.find(c.set(line), line) >= 0
}

// Victim describes a line displaced by Fill.
type Victim struct {
	// Line is the displaced line address.
	Line uint64
	// Owner is the core that filled it (NoOwner for private caches).
	Owner int
	// Valid reports whether a line was actually displaced.
	Valid bool
	// WasUnusedPrefetch reports the victim was prefetched and never used.
	WasUnusedPrefetch bool
	// Dirty reports the victim held modified data (needs a writeback).
	Dirty bool
}

// Fill inserts the line for the given owner core, allocating only within
// the ways selected by mask (CAT). The line's data becomes usable at cycle
// readyAt: pass the current time plus the fill's source latency, so that
// late prefetches make subsequent demand hits wait for the remainder. If
// the line is already present it is refreshed in place and no victim is
// produced; a demand fill over a resident prefetched line counts as a
// useful prefetch. Fill panics if the mask selects no way of this cache.
func (c *Cache) Fill(line uint64, owner int, prefetch bool, mask uint64, readyAt uint64) Victim {
	mask &= c.full
	if mask == 0 {
		panic("cache: Fill with empty way mask")
	}
	s := c.set(line)

	// Already resident (e.g. raced with a prefetch): refresh.
	if w := c.find(s, line); w >= 0 {
		i := s*c.cfg.Ways + w
		c.clock++
		c.stamp[i] = c.clock
		if m := &c.meta[i]; !prefetch && m.flags&flagPrefetch != 0 {
			m.flags &^= flagPrefetch
			c.stats.PrefetchHitsUsed++
		}
		c.hint[s] = int32(w)
		return Victim{}
	}
	return c.FillAfterMiss(line, owner, prefetch, mask, readyAt)
}

// FillAfterMiss is Fill for callers that have just observed the line miss
// (a Lookup, Probe, or SetDirty of the same line returned absent, with no
// intervening fill of it): it skips Fill's resident-refresh scan. Filling
// a line that is in fact resident through this method duplicates its tag
// within the set and corrupts the cache, so use Fill when in doubt. The
// simulator's fill sites all follow a miss; the differential fuzz checks
// the two entry points stay victim- and stat-equivalent under that
// protocol.
func (c *Cache) FillAfterMiss(line uint64, owner int, prefetch bool, mask uint64, readyAt uint64) Victim {
	mask &= c.full
	if mask == 0 {
		panic("cache: Fill with empty way mask")
	}
	s := c.set(line)
	base := s * c.cfg.Ways

	// Prefer an invalid way inside the mask: the lowest bit of
	// mask&^valid is exactly the first invalid way an ascending scan
	// would find.
	var victim int
	if inv := mask &^ c.valid[s]; inv != 0 {
		victim = bits.TrailingZeros64(inv)
	} else if mask == c.full {
		// LRU over the whole (full) set: plain slice scan. The <= keeps
		// the historical tie-break: the highest-indexed way among equal
		// stamps wins.
		oldest := ^uint64(0)
		stamps := c.stamp[base : base+c.cfg.Ways]
		for w := range stamps {
			if stamps[w] <= oldest {
				oldest = stamps[w]
				victim = w
			}
		}
	} else {
		// LRU within a partial mask, ascending ways, same <= tie-break.
		victim = -1
		oldest := ^uint64(0)
		for m := mask; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			if st := c.stamp[base+w]; st <= oldest {
				oldest = st
				victim = w
			}
		}
	}

	i := base + victim
	m := &c.meta[i]
	var v Victim
	if c.valid[s]>>uint(victim)&1 != 0 {
		v = Victim{
			Line:              c.tags[i],
			Owner:             int(m.owner),
			Valid:             true,
			WasUnusedPrefetch: m.flags&flagPrefetch != 0,
			Dirty:             m.flags&flagDirty != 0,
		}
		c.stats.Evictions++
		if v.WasUnusedPrefetch {
			c.stats.PrefetchedEvictedUnused++
		}
	}
	c.clock++
	c.tags[i] = line
	c.stamp[i] = c.clock
	fl := flagValid
	if prefetch {
		fl |= flagPrefetch
	}
	*m = lineMeta{ready: readyAt, owner: int32(owner), flags: fl}
	c.valid[s] |= 1 << uint(victim)
	c.hint[s] = int32(victim)
	return v
}

// SetDirty marks a resident line as modified, returning whether the line
// was found. Stores call this after their lookup/fill.
func (c *Cache) SetDirty(line uint64) bool {
	s := c.set(line)
	w := c.find(s, line)
	if w < 0 {
		return false
	}
	c.meta[s*c.cfg.Ways+w].flags |= flagDirty
	return true
}

// IsDirty reports whether a resident line is modified (tests).
func (c *Cache) IsDirty(line uint64) bool {
	s := c.set(line)
	w := c.find(s, line)
	return w >= 0 && c.meta[s*c.cfg.Ways+w].flags&flagDirty != 0
}

// Invalidate removes the line if present, returning whether it was found
// and whether it held modified data (the caller owes a writeback). Used
// for inclusive back-invalidation from the LLC into L1/L2.
func (c *Cache) Invalidate(line uint64) (found, dirty bool) {
	s := c.set(line)
	w := c.find(s, line)
	if w < 0 {
		return false, false
	}
	i := s*c.cfg.Ways + w
	dirty = c.meta[i].flags&flagDirty != 0
	c.meta[i].flags = 0
	c.valid[s] &^= 1 << uint(w)
	return true, dirty
}

// OwnerOf returns the owner recorded for a resident line, or NoOwner and
// false when absent.
func (c *Cache) OwnerOf(line uint64) (int, bool) {
	s := c.set(line)
	w := c.find(s, line)
	if w < 0 {
		return NoOwner, false
	}
	return int(c.meta[s*c.cfg.Ways+w].owner), true
}

// ValidCount returns the number of valid lines (test/diagnostic helper).
func (c *Cache) ValidCount() int {
	n := 0
	for _, m := range c.valid {
		n += bits.OnesCount64(m)
	}
	return n
}

// WayOf returns which way holds the line, or -1 when absent (tests).
func (c *Cache) WayOf(line uint64) int {
	return c.find(c.set(line), line)
}

// ContiguousMask returns a way mask of n ways starting at the low bit,
// clamped to [1, ways]. CAT requires contiguous masks; all policies in this
// repo build masks through this helper or cat.Mask.
func ContiguousMask(n, ways int) uint64 {
	if n < 1 {
		n = 1
	}
	if n > ways {
		n = ways
	}
	return (1 << uint(n)) - 1
}
