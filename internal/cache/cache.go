// Package cache implements the set-associative caches of the simulated
// machine: private L1/L2 and the shared, way-partitionable (Intel CAT
// style) inclusive LLC.
//
// CAT semantics follow the SDM: the capacity bitmask of a core's class of
// service restricts where *fills* may allocate; *hits* are served from any
// way. Partitions may overlap, which the paper exploits ("note that we are
// using overlapping partitioning").
//
// Replacement is true LRU. Each set keeps one small header, and no
// operation scans the set's tags or per-way timestamps:
//
//   - one fingerprint byte per way: a 7-bit hash of the tag with the high
//     bit set, or 0x7F for an invalid way. A lookup compares every
//     fingerprint at once with word-wide byte arithmetic (SWAR) and loads
//     a tag only to confirm a fingerprint match.
//   - one LRU-rank byte per way. The ranks are a permutation of
//     0..Ways-1, 0 the most recent. A hit or fill moves its way to rank 0
//     with a few operations per rank word; a full-mask fill evicts the way
//     of rank Ways-1, and a partial CAT mask the highest-ranked way in it.
//   - a valid-way bitmask, so a fill takes the lowest invalid way of its
//     mask with one TrailingZeros64.
//
// Fingerprints and ranks are packed eight bytes to a uint64; pad bytes
// past Ways hold 0x7F, which matches no fingerprint and outranks every
// rank. Among valid ways, rank order is the order of last use, so hits,
// misses, victims and stats are exactly those of a timestamped LRU cache
// that scans every way; the differential fuzz holds the two equal.
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

// Byte-lane constants for the SWAR header operations.
const (
	lsb   = 0x0101010101010101 // 0x01 in every byte; x*lsb broadcasts byte x
	low7  = 0x7F7F7F7F7F7F7F7F
	high  = 0x8080808080808080
	empty = 0x7F // fingerprint of an invalid way; every pad byte
)

// Cache is a set-associative cache with true-LRU replacement. It is not
// safe for concurrent use.
type Cache struct {
	cfg      Config
	setMask  uint64
	full     uint64 // cfg.AllWays(), precomputed for the hot path
	tagShift uint   // log2(Sets): fingerprints hash the bits above the set index
	words    int    // words per header byte field: ceil(Ways/8)
	stride   int    // header words per set

	lines []lineState // per way, set-major: lines[s*Ways+w]
	// hdr holds set s's header at hdr[s*stride:]: words fingerprint
	// words, words rank words, then the valid-way bitmask. stride rounds
	// that up to a power of two, so a header does not straddle two 64-byte
	// host cache lines (the LLC's 20 ways fill exactly one).
	hdr []uint64

	stats Stats
}

// lineState keeps a way's tag with the rest of its state. A lookup reads
// one tag, to confirm a fingerprint match, and a hit then updates the
// same host cache line; an eviction reads the victim's tag, owner and
// flags in one load.
type lineState struct {
	tag   uint64 // the line address
	ready uint64 // cycle at which the line's data arrives (in-flight fills)
	owner int32
	flags uint8
}

// New builds a cache; it panics on invalid configuration.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	words := (cfg.Ways + 7) / 8
	stride := 1 << bits.Len(uint(2*words)) // > 2*words, so the valid word fits
	c := &Cache{
		cfg:      cfg,
		setMask:  uint64(cfg.Sets - 1),
		full:     cfg.AllWays(),
		tagShift: uint(bits.TrailingZeros(uint(cfg.Sets))),
		words:    words,
		stride:   stride,
		lines:    make([]lineState, cfg.Sets*cfg.Ways),
		hdr:      make([]uint64, cfg.Sets*stride),
	}
	c.clearHeaders()
	return c
}

// clearHeaders gives every set the header of an empty set: no
// fingerprint, ranks 0..Ways-1 in way order, no valid way.
func (c *Cache) clearHeaders() {
	h := c.hdr[:c.stride]
	clear(h)
	for k := 0; k < c.words; k++ {
		h[k] = empty * lsb
		for b := 0; b < 8; b++ {
			r := uint64(empty)
			if w := k*8 + b; w < c.cfg.Ways {
				r = uint64(w)
			}
			h[c.words+k] |= r << (8 * b)
		}
	}
	for n := c.stride; n < len(c.hdr); n *= 2 {
		copy(c.hdr[n:], c.hdr[:n])
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the counters accumulated since the last ResetStats.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters; contents are preserved.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Flush invalidates every line and resets the LRU order. Stats are kept.
func (c *Cache) Flush() {
	clear(c.lines)
	c.clearHeaders()
}

// CopyFrom makes c an exact copy of src: contents, set headers (LRU
// order, fingerprints, valid ways) and stats. Both caches must have the
// same geometry; it panics otherwise (machines are copied only onto
// machines of their own Config).
func (c *Cache) CopyFrom(src *Cache) {
	if c.cfg != src.cfg {
		panic("cache: CopyFrom across geometries")
	}
	copy(c.lines, src.lines)
	copy(c.hdr, src.hdr)
	c.stats = src.stats
}

// Reset returns the cache to the state New builds, stats included, so a
// recycled cache is indistinguishable from a new one.
func (c *Cache) Reset() {
	c.Flush()
	c.stats = Stats{}
}

func (c *Cache) set(line uint64) int { return int(line & c.setMask) }

// header returns set s's header words.
func (c *Cache) header(s int) []uint64 {
	o := s * c.stride
	return c.hdr[o : o+c.stride : o+c.stride]
}

// fingerprint hashes the tag bits of line (those above the set index)
// to seven bits and sets the high bit, so no fingerprint equals empty.
func (c *Cache) fingerprint(line uint64) uint64 {
	return (line>>c.tagShift)*0x9E3779B97F4A7C15>>57 | 0x80
}

// zeroBytes returns 0x80 in each byte of x that is zero and 0 elsewhere,
// exactly: no carry crosses a byte.
func zeroBytes(x uint64) uint64 {
	return ^((x&low7 + low7) | x | low7)
}

// getByte returns byte w of the byte field starting at f[0].
func getByte(f []uint64, w int) uint64 { return f[w>>3] >> (uint(w&7) * 8) & 0xFF }

// setByte stores b as byte w of the byte field starting at f[0].
func setByte(f []uint64, w int, b uint64) {
	sh := uint(w&7) * 8
	f[w>>3] = f[w>>3]&^(0xFF<<sh) | b<<sh
}

// find returns the way holding line in set s, or -1. It touches no state.
// A fingerprint match is confirmed against the tag; a line is resident
// in at most one way of its set, so the first confirmed way is the way.
func (c *Cache) find(s int, line uint64) int {
	f := c.fingerprint(line) * lsb
	base := s * c.cfg.Ways
	for k, x := range c.header(s)[:c.words] {
		for m := zeroBytes(x ^ f); m != 0; m &= m - 1 {
			w := k<<3 | bits.TrailingZeros64(m)>>3
			if c.lines[base+w].tag == line {
				return w
			}
		}
	}
	return -1
}

// promote makes way w the most recent of header h: every way more recent
// than w moves down one rank and w takes rank 0. Ranks below 0x80 let a
// byte-wise compare run without borrows; pad bytes (0x7F) never move.
func (c *Cache) promote(h []uint64, w int) {
	rk := h[c.words : 2*c.words]
	sh := uint(w&7) * 8
	r := rk[w>>3] >> sh & 0xFF
	if r == 0 {
		return
	}
	b := r * lsb
	for k, x := range rk {
		// The high bit of (x|high)-b is set in bytes whose rank is >= r.
		rk[k] = x + (^((x|high)-b)&high)>>7
	}
	rk[w>>3] &^= 0xFF << sh
}

// lru returns the least recently used way of mask in header h; every way
// of the mask must be valid. For the full mask that is the way of the
// highest rank, Ways-1.
func (c *Cache) lru(h []uint64, mask uint64) int {
	rk := h[c.words : 2*c.words]
	if mask == c.full {
		t := uint64(c.cfg.Ways-1) * lsb
		for k, x := range rk {
			if m := zeroBytes(x ^ t); m != 0 {
				return k<<3 | bits.TrailingZeros64(m)>>3
			}
		}
		panic("cache: LRU ranks are not a permutation")
	}
	victim, oldest := 0, uint64(0)
	for m := mask; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if r := getByte(rk, w); r >= oldest {
			victim, oldest = w, r
		}
	}
	return victim
}

// touch records a hit on way w of set s: it makes the way the most
// recent, clears the prefetch bit on demand accesses (counting a useful
// prefetch), and reports how long a late in-flight fill makes the access
// wait.
func (c *Cache) touch(s, w int, demand bool, now uint64) (wait uint64) {
	c.promote(c.header(s), w)
	m := &c.lines[s*c.cfg.Ways+w]
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
	return true, c.touch(s, w, demand, now)
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
	if mask&c.full == 0 {
		panic("cache: Fill with empty way mask")
	}
	s := c.set(line)

	// Already resident (e.g. raced with a prefetch): refresh.
	if w := c.find(s, line); w >= 0 {
		c.promote(c.header(s), w)
		if m := &c.lines[s*c.cfg.Ways+w]; !prefetch && m.flags&flagPrefetch != 0 {
			m.flags &^= flagPrefetch
			c.stats.PrefetchHitsUsed++
		}
		return Victim{}
	}
	return c.FillAfterMiss(line, owner, prefetch, mask, readyAt)
}

// FillAfterMiss is Fill for callers that have just observed the line miss
// (a Lookup, Probe, or SetDirty of the same line returned absent, with no
// intervening fill of it): it skips Fill's resident-refresh lookup.
// Filling a line that is in fact resident through this method duplicates
// its tag within the set and corrupts the cache, so use Fill when in
// doubt. The simulator's fill sites all follow a miss; the differential
// fuzz checks the two entry points stay victim- and stat-equivalent under
// that protocol.
func (c *Cache) FillAfterMiss(line uint64, owner int, prefetch bool, mask uint64, readyAt uint64) Victim {
	mask &= c.full
	if mask == 0 {
		panic("cache: Fill with empty way mask")
	}
	s := c.set(line)
	h := c.header(s)
	valid := &h[2*c.words]

	// Prefer an invalid way inside the mask: the lowest bit of
	// mask&^valid is exactly the first invalid way an ascending scan
	// would find. Otherwise evict the mask's least recently used way.
	var victim int
	if inv := mask &^ *valid; inv != 0 {
		victim = bits.TrailingZeros64(inv)
	} else {
		victim = c.lru(h, mask)
	}

	i := s*c.cfg.Ways + victim
	m := &c.lines[i]
	var v Victim
	if *valid>>uint(victim)&1 != 0 {
		v = Victim{
			Line:              m.tag,
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
	fl := flagValid
	if prefetch {
		fl |= flagPrefetch
	}
	*m = lineState{tag: line, ready: readyAt, owner: int32(owner), flags: fl}
	*valid |= 1 << uint(victim)
	setByte(h, victim, c.fingerprint(line))
	c.promote(h, victim)
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
	c.lines[s*c.cfg.Ways+w].flags |= flagDirty
	return true
}

// IsDirty reports whether a resident line is modified (tests).
func (c *Cache) IsDirty(line uint64) bool {
	s := c.set(line)
	w := c.find(s, line)
	return w >= 0 && c.lines[s*c.cfg.Ways+w].flags&flagDirty != 0
}

// Invalidate removes the line if present, returning whether it was found
// and whether it held modified data (the caller owes a writeback). Used
// for inclusive back-invalidation from the LLC into L1/L2. The way keeps
// its rank: ranks order only the valid ways.
func (c *Cache) Invalidate(line uint64) (found, dirty bool) {
	s := c.set(line)
	w := c.find(s, line)
	if w < 0 {
		return false, false
	}
	i := s*c.cfg.Ways + w
	dirty = c.lines[i].flags&flagDirty != 0
	c.lines[i].flags = 0
	h := c.header(s)
	setByte(h, w, empty)
	h[2*c.words] &^= 1 << uint(w)
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
	return int(c.lines[s*c.cfg.Ways+w].owner), true
}

// ValidCount returns the number of valid lines (test/diagnostic helper).
func (c *Cache) ValidCount() int {
	n := 0
	for o := 2 * c.words; o < len(c.hdr); o += c.stride {
		n += bits.OnesCount64(c.hdr[o])
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
