package cache

import (
	"math/bits"
	"math/rand"
	"testing"
)

// rankOf returns way w's LRU rank in set s.
func rankOf(c *Cache, s, w int) uint64 { return getByte(c.header(s)[c.words:], w) }

// checkHeaders fails the test unless every set header is well formed: the
// ranks are a permutation of 0..Ways-1, valid ways carry their tag's
// fingerprint (high bit set, so it never equals empty), invalid ways and
// every pad byte of both fields hold empty, and nothing is set past the
// valid word.
func checkHeaders(t *testing.T, step int, c *Cache) {
	t.Helper()
	for s := 0; s < c.cfg.Sets; s++ {
		h := c.header(s)
		valid := h[2*c.words]
		if valid&^c.full != 0 {
			t.Fatalf("step %d: set %d valid mask %#x outside %d ways", step, s, valid, c.cfg.Ways)
		}
		for _, x := range h[2*c.words+1:] {
			if x != 0 {
				t.Fatalf("step %d: set %d header pad word %#x", step, s, x)
			}
		}
		var seen uint64
		for w := 0; w < 8*c.words; w++ {
			fp, rk := getByte(h, w), getByte(h[c.words:], w)
			if w >= c.cfg.Ways {
				if fp != empty || rk != empty {
					t.Fatalf("step %d: set %d pad byte %d fingerprint %#x rank %#x, want %#x", step, s, w, fp, rk, empty)
				}
				continue
			}
			if rk >= uint64(c.cfg.Ways) || seen>>rk&1 != 0 {
				t.Fatalf("step %d: set %d ranks are not a permutation: way %d has rank %d", step, s, w, rk)
			}
			seen |= 1 << rk
			want := uint64(empty)
			if valid>>uint(w)&1 != 0 {
				want = c.fingerprint(c.lines[s*c.cfg.Ways+w].tag)
				if want&0x80 == 0 {
					t.Fatalf("step %d: set %d way %d fingerprint %#x lacks the high bit", step, s, w, want)
				}
			}
			if fp != want {
				t.Fatalf("step %d: set %d way %d fingerprint %#x, want %#x", step, s, w, fp, want)
			}
		}
	}
}

// TestFillEvictsReferenceLRUWay pins replacement to the reference's
// least recently used way, under the full mask and under partial masks
// that span several header words, through Fill and through the
// miss-then-FillAfterMiss protocol, and checks after every operation that
// the ranks stay a permutation. A wrong victim here silently shifts every
// eviction pattern the simulator's golden results depend on.
func TestFillEvictsReferenceLRUWay(t *testing.T) {
	// Set 0 of a 4-way cache holds lines 0,4,8,12 in ways 0..3; touching
	// 8, 0 and 12 leaves 4 (way 1) least recent. The partial mask {0,2,3}
	// then loses line 8 (way 2), its oldest way, and the next full-mask
	// fill loses line 4.
	c := New(small())
	for i := uint64(0); i < 4; i++ {
		c.FillAfterMiss(i*4, NoOwner, false, c.full, 0)
	}
	for _, l := range []uint64{8, 0, 12} {
		lookup(c, l, true)
	}
	if v := c.FillAfterMiss(16, NoOwner, false, 0b1101, 0); !v.Valid || v.Line != 8 {
		t.Fatalf("partial mask: victim %+v, want line 8 (way 2)", v)
	}
	if v := fill(c, 20, NoOwner, false, c.full); !v.Valid || v.Line != 4 {
		t.Fatalf("full mask: victim %+v, want line 4 (way 1)", v)
	}
	checkHeaders(t, 0, c)

	geoms := []Config{
		small(),
		{Sets: 2, Ways: 20, LineBytes: 64, HitLatency: 4},
		{Sets: 1, Ways: 64, LineBytes: 64, HitLatency: 4},
	}
	for _, cfg := range geoms {
		rng := rand.New(rand.NewSource(int64(cfg.Ways)))
		c, r := New(cfg), newRef(cfg)
		lines := cfg.Sets * cfg.Ways * 3 / 2
		masks := []uint64{cfg.AllWays(), ContiguousMask(cfg.Ways/2+1, cfg.Ways), cfg.AllWays() &^ 1, cfg.AllWays() & 0xAAAAAAAAAAAAAAAA}
		for step := 0; step < 4000; step++ {
			line := uint64(rng.Intn(lines))
			mask := masks[rng.Intn(len(masks))]
			switch rng.Intn(4) {
			case 0:
				if cv, rv := c.Fill(line, 0, false, mask, 0), r.Fill(line, 0, false, mask, 0); cv != rv {
					t.Fatalf("%d ways, step %d: Fill victim %+v != ref %+v", cfg.Ways, step, cv, rv)
				}
			case 1:
				ch, _ := c.Lookup(line, true, 0)
				if rh, _ := r.Lookup(line, true, 0); ch != rh {
					t.Fatalf("%d ways, step %d: Lookup %v != ref %v", cfg.Ways, step, ch, rh)
				}
				if !ch {
					if cv, rv := c.FillAfterMiss(line, 0, false, mask, 0), r.Fill(line, 0, false, mask, 0); cv != rv {
						t.Fatalf("%d ways, step %d: FillAfterMiss victim %+v != ref %+v", cfg.Ways, step, cv, rv)
					}
				}
			case 2:
				lookup(c, line, true)
				r.Lookup(line, true, 0)
			case 3:
				if rng.Intn(8) == 0 {
					c.Invalidate(line)
					r.Invalidate(line)
				}
			}
			compareState(t, step, c, r)
		}
	}
}

// refCache reimplements the cache as a timestamped LRU with straight-line
// scans — no set header, parallel metadata arrays — as the oracle for
// differential fuzzing. It is kept deliberately naive: every operation
// walks the set linearly, and the victim is the way with the oldest
// stamp.
type refCache struct {
	cfg   Config
	tags  []uint64
	flags []uint8
	owner []int32
	stamp []uint64
	ready []uint64
	clock uint64
	stats Stats
}

func newRef(cfg Config) *refCache {
	n := cfg.Sets * cfg.Ways
	return &refCache{
		cfg:   cfg,
		tags:  make([]uint64, n),
		flags: make([]uint8, n),
		owner: make([]int32, n),
		stamp: make([]uint64, n),
		ready: make([]uint64, n),
	}
}

func (c *refCache) set(line uint64) int { return int(line & uint64(c.cfg.Sets-1)) }

func (c *refCache) Lookup(line uint64, demand bool, now uint64) (bool, uint64) {
	base := c.set(line) * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.flags[i]&flagValid != 0 && c.tags[i] == line {
			c.clock++
			c.stamp[i] = c.clock
			if demand && c.flags[i]&flagPrefetch != 0 {
				c.flags[i] &^= flagPrefetch
				c.stats.PrefetchHitsUsed++
			}
			c.stats.Hits++
			var wait uint64
			if c.ready[i] > now {
				wait = c.ready[i] - now
				c.stats.LateHits++
			}
			return true, wait
		}
	}
	c.stats.Misses++
	return false, 0
}

func (c *refCache) Probe(line uint64) bool {
	base := c.set(line) * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		if c.flags[base+w]&flagValid != 0 && c.tags[base+w] == line {
			return true
		}
	}
	return false
}

func (c *refCache) Fill(line uint64, owner int, prefetch bool, mask uint64, readyAt uint64) Victim {
	mask &= c.cfg.AllWays()
	if mask == 0 {
		panic("refCache: Fill with empty way mask")
	}
	base := c.set(line) * c.cfg.Ways

	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.flags[i]&flagValid != 0 && c.tags[i] == line {
			c.clock++
			c.stamp[i] = c.clock
			if !prefetch && c.flags[i]&flagPrefetch != 0 {
				c.flags[i] &^= flagPrefetch
				c.stats.PrefetchHitsUsed++
			}
			return Victim{}
		}
	}

	victim := -1
	for m := mask; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if c.flags[base+w]&flagValid == 0 {
			victim = w
			break
		}
	}
	if victim < 0 {
		oldest := ^uint64(0)
		for m := mask; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			if c.stamp[base+w] <= oldest {
				oldest = c.stamp[base+w]
				victim = w
			}
		}
	}

	i := base + victim
	var v Victim
	if c.flags[i]&flagValid != 0 {
		v = Victim{
			Line:              c.tags[i],
			Owner:             int(c.owner[i]),
			Valid:             true,
			WasUnusedPrefetch: c.flags[i]&flagPrefetch != 0,
			Dirty:             c.flags[i]&flagDirty != 0,
		}
		c.stats.Evictions++
		if v.WasUnusedPrefetch {
			c.stats.PrefetchedEvictedUnused++
		}
	}
	c.clock++
	c.tags[i] = line
	c.owner[i] = int32(owner)
	c.stamp[i] = c.clock
	c.ready[i] = readyAt
	c.flags[i] = flagValid
	if prefetch {
		c.flags[i] |= flagPrefetch
	}
	return v
}

func (c *refCache) SetDirty(line uint64) bool {
	base := c.set(line) * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.flags[i]&flagValid != 0 && c.tags[i] == line {
			c.flags[i] |= flagDirty
			return true
		}
	}
	return false
}

func (c *refCache) Invalidate(line uint64) (found, dirty bool) {
	base := c.set(line) * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.flags[i]&flagValid != 0 && c.tags[i] == line {
			dirty = c.flags[i]&flagDirty != 0
			c.flags[i] = 0
			return true, dirty
		}
	}
	return false, false
}

func (c *refCache) OwnerOf(line uint64) (int, bool) {
	base := c.set(line) * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.flags[i]&flagValid != 0 && c.tags[i] == line {
			return int(c.owner[i]), true
		}
	}
	return NoOwner, false
}

// compareState fails the test unless the optimized cache and the reference
// agree way-for-way on validity, tag, owner, flags and ready time, the
// ranks of each set's valid ways are in the reference's stamp order (rank
// 0 the newest), and every header is well formed. Recency order is all
// that decides victims, so the two machines are then indistinguishable.
func compareState(t *testing.T, step int, c *Cache, r *refCache) {
	t.Helper()
	if c.stats != r.stats {
		t.Fatalf("step %d: stats %+v != ref %+v", step, c.stats, r.stats)
	}
	checkHeaders(t, step, c)
	for s := 0; s < c.cfg.Sets; s++ {
		valid := c.header(s)[2*c.words]
		for w := 0; w < c.cfg.Ways; w++ {
			i := s*c.cfg.Ways + w
			cv := valid>>uint(w)&1 != 0
			rv := r.flags[i]&flagValid != 0
			if cv != rv {
				t.Fatalf("step %d: set %d way %d valid %v != ref %v", step, s, w, cv, rv)
			}
			if !cv {
				continue
			}
			m := c.lines[i]
			if m.tag != r.tags[i] || m.owner != r.owner[i] || m.ready != r.ready[i] {
				t.Fatalf("step %d: set %d way %d (tag %d owner %d ready %d) != ref (tag %d owner %d ready %d)",
					step, s, w, m.tag, m.owner, m.ready, r.tags[i], r.owner[i], r.ready[i])
			}
			cf := m.flags & (flagPrefetch | flagDirty)
			rf := r.flags[i] & (flagPrefetch | flagDirty)
			if cf != rf {
				t.Fatalf("step %d: set %d way %d flags %#x != ref %#x", step, s, w, cf, rf)
			}
		}
		// Walking the ways from rank 0 up, the valid ones must meet the
		// reference's stamps strictly newest first.
		byRank := make([]int, c.cfg.Ways)
		for w := range byRank {
			byRank[rankOf(c, s, w)] = w
		}
		newer := ^uint64(0)
		for rk, w := range byRank {
			if valid>>uint(w)&1 == 0 {
				continue
			}
			st := r.stamp[s*c.cfg.Ways+w]
			if st >= newer {
				t.Fatalf("step %d: set %d way %d has rank %d but ref stamp %d is not older than %d",
					step, s, w, rk, st, newer)
			}
			newer = st
		}
	}
}

// FuzzCacheDifferential drives the optimized cache and the naive reference
// with the same operation tape and requires identical return values,
// victims, stats, and full per-way state after every step. Fill ops
// alternate between the Fill entry point and the miss-check-then-
// FillAfterMiss protocol the simulator uses, so the fast path is held to
// the same oracle. Every tape runs on each of diffGeoms. Run with -race in
// CI; the corpus below seeds eviction under full and partial masks,
// prefetch flag traffic, and invalidation.
func FuzzCacheDifferential(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, uint8(0b1111))
	f.Add([]byte{255, 254, 253, 0, 1, 2, 255, 0, 128, 64, 32, 16}, uint8(0b0011))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}, uint8(0b1000))
	f.Add([]byte{31, 27, 23, 19, 15, 11, 7, 3, 31, 27, 23, 19}, uint8(0b0110))
	f.Fuzz(func(t *testing.T, tape []byte, maskByte uint8) {
		for _, g := range diffGeoms {
			runDifferential(t, g, tape, maskByte)
		}
	})
}

// diffGeoms are the geometries every differential tape runs on. The
// 4-way cache has a one-word header; the 20-way one (the LLC's ways) has
// three words with four pad bytes, and the 64-way one eight full words.
// A warm cache starts with every way valid, in a scrambled LRU order, so
// a short tape already evicts across all header words.
var diffGeoms = []diffGeom{
	{Config{Sets: 4, Ways: 4, LineBytes: 64, HitLatency: 2}, 32, false},
	{Config{Sets: 2, Ways: 20, LineBytes: 64, HitLatency: 2}, 60, false},
	{Config{Sets: 2, Ways: 20, LineBytes: 64, HitLatency: 2}, 60, true},
	{Config{Sets: 2, Ways: 64, LineBytes: 64, HitLatency: 2}, 192, true},
}

type diffGeom struct {
	cfg   Config
	lines int // tape lines are arg % lines
	warm  bool
}

// runDifferential plays one tape on geometry g. The mask byte repeats in
// every byte of the mask, so a partial mask reaches every header word.
func runDifferential(t *testing.T, g diffGeom, tape []byte, maskByte uint8) {
	t.Helper()
	cfg := g.cfg
	t.Logf("geometry: %d sets x %d ways, warm %v", cfg.Sets, cfg.Ways, g.warm)
	c := New(cfg)
	r := newRef(cfg)
	mask := uint64(maskByte) * lsb & cfg.AllWays()
	if mask == 0 {
		mask = cfg.AllWays()
	}
	if g.warm {
		n := uint64(cfg.Sets * cfg.Ways)
		for l := uint64(0); l < n; l++ {
			c.Fill(l, int(l%8), l%3 == 0, cfg.AllWays(), 0)
			r.Fill(l, int(l%8), l%3 == 0, cfg.AllWays(), 0)
		}
		for k := uint64(0); k < n; k++ {
			l := k * 7 % n
			c.Lookup(l, false, 0)
			r.Lookup(l, false, 0)
		}
		compareState(t, -1, c, r)
	}
	for step := 0; step+1 < len(tape); step += 2 {
		b, arg := tape[step], tape[step+1]
		line := uint64(int(arg) % g.lines)
		now := uint64(step)
		switch b % 7 {
		case 0: // demand fill via Fill
			cv := c.Fill(line, int(arg%8), false, mask, now+3)
			rv := r.Fill(line, int(arg%8), false, mask, now+3)
			if cv != rv {
				t.Fatalf("step %d: Fill victim %+v != ref %+v", step, cv, rv)
			}
		case 1: // prefetch fill via Fill
			cv := c.Fill(line, int(arg%8), true, mask, now+9)
			rv := r.Fill(line, int(arg%8), true, mask, now+9)
			if cv != rv {
				t.Fatalf("step %d: prefetch Fill victim %+v != ref %+v", step, cv, rv)
			}
		case 2: // the simulator's protocol: miss lookup, then FillAfterMiss
			ch, cw := c.Lookup(line, true, now)
			rh, rw := r.Lookup(line, true, now)
			if ch != rh || cw != rw {
				t.Fatalf("step %d: Lookup (%v,%d) != ref (%v,%d)", step, ch, cw, rh, rw)
			}
			if !ch {
				cv := c.FillAfterMiss(line, int(arg%8), arg&64 != 0, mask, now+5)
				rv := r.Fill(line, int(arg%8), arg&64 != 0, mask, now+5)
				if cv != rv {
					t.Fatalf("step %d: FillAfterMiss victim %+v != ref %+v", step, cv, rv)
				}
			}
		case 3: // lookup (demand or prefetch by bit 6)
			ch, cw := c.Lookup(line, arg&64 == 0, now)
			rh, rw := r.Lookup(line, arg&64 == 0, now)
			if ch != rh || cw != rw {
				t.Fatalf("step %d: Lookup (%v,%d) != ref (%v,%d)", step, ch, cw, rh, rw)
			}
		case 4:
			if cd, rd := c.SetDirty(line), r.SetDirty(line); cd != rd {
				t.Fatalf("step %d: SetDirty %v != ref %v", step, cd, rd)
			}
		case 5:
			cf, cd := c.Invalidate(line)
			rf, rd := r.Invalidate(line)
			if cf != rf || cd != rd {
				t.Fatalf("step %d: Invalidate (%v,%v) != ref (%v,%v)", step, cf, cd, rf, rd)
			}
		case 6:
			co, cok := c.OwnerOf(line)
			ro, rok := r.OwnerOf(line)
			if co != ro || cok != rok {
				t.Fatalf("step %d: OwnerOf (%d,%v) != ref (%d,%v)", step, co, cok, ro, rok)
			}
		}
		if c.Probe(line) != r.Probe(line) {
			t.Fatalf("step %d: Probe(%d) disagrees", step, line)
		}
		compareState(t, step, c, r)
	}
}
