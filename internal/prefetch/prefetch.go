// Package prefetch implements the four per-core hardware data prefetchers
// of the paper's target machine (Intel SDM, Broadwell-EP):
//
//   - L1 DCU IP (stride) prefetcher     — disabled by msr.DisableL1IP
//   - L1 DCU next-line prefetcher       — disabled by msr.DisableL1NextLine
//   - L2 stream prefetcher ("streamer") — disabled by msr.DisableL2Stream
//   - L2 adjacent cache line prefetcher — disabled by msr.DisableL2Adjacent
//
// A Unit aggregates the four behind the MiscFeatureControl disable bits, so
// that controller writes to the emulated MSR throttle exactly what real
// MSR writes throttle.
package prefetch

import (
	"math/bits"

	"cmm/internal/msr"
)

// Level says which cache a prefetch request fills into.
type Level uint8

const (
	// L1 fill target.
	L1 Level = iota
	// L2 fill target.
	L2
)

// Request is one prefetch candidate: a line address and the level it
// should be brought into.
type Request struct {
	Line  uint64
	Level Level
}

// Params tunes prefetcher behaviour. Defaults approximate the documented
// behaviour of the real units (aggressive streamer, conservative IP).
type Params struct {
	// IPTableSize is the number of IP-stride tracking entries.
	IPTableSize int
	// IPConfidence is how many consecutive equal strides train an entry.
	IPConfidence int
	// IPDistance is how many strides ahead the IP prefetcher runs.
	IPDistance int
	// StreamTrackers is the number of concurrently tracked 4KB pages.
	StreamTrackers int
	// StreamTrainHits is how many in-order accesses train a stream.
	StreamTrainHits int
	// StreamDegree is how many lines a trained stream prefetches per
	// trigger.
	StreamDegree int
	// StreamDistance is the maximum run-ahead, in lines, of a stream.
	StreamDistance int
	// LineBytes is the cache line size (needed to derive line/page ids).
	LineBytes int
}

// DefaultParams returns the standard tuning.
func DefaultParams() Params {
	return Params{
		IPTableSize:     64,
		IPConfidence:    2,
		IPDistance:      4,
		StreamTrackers:  16,
		StreamTrainHits: 2,
		StreamDegree:    4,
		StreamDistance:  16,
		LineBytes:       64,
	}
}

// Stats counts prefetch requests issued, per prefetcher.
type Stats struct {
	IPIssued       uint64
	NextLineIssued uint64
	StreamIssued   uint64
	AdjacentIssued uint64
}

// L1Issued returns the total issued by the two L1 prefetchers.
func (s Stats) L1Issued() uint64 { return s.IPIssued + s.NextLineIssued }

// L2Issued returns the total issued by the two L2 prefetchers.
func (s Stats) L2Issued() uint64 { return s.StreamIssued + s.AdjacentIssued }

// linesPerPage for 4KB pages.
func (p Params) linesPerPage() uint64 { return 4096 / uint64(p.LineBytes) }

// Unit is one core's set of prefetchers. Not safe for concurrent use.
type Unit struct {
	params  Params
	disable uint64 // msr.Disable* bits currently in force

	// lineShift replaces the per-access divisions by LineBytes when it is
	// a power of two (always, for the modelled machines); <0 selects the
	// division fallback.
	lineShift int

	ip     ipTable
	stream streamTable

	stats Stats

	// scratchL1/scratchL2 are reused request buffers returned by the
	// Observe calls; each is valid until the next call of the same
	// method. They are separate because a consumer of ObserveL1 results
	// legitimately calls ObserveL2 while iterating (an L1 prefetch
	// arriving at L2 trains the streamer).
	scratchL1 []Request
	scratchL2 []Request
}

// NewUnit builds a prefetch unit with all four prefetchers enabled.
func NewUnit(p Params) *Unit {
	u := &Unit{params: p, lineShift: pow2Shift(uint64(p.LineBytes))}
	u.ip.init(p)
	u.stream.init(p)
	u.scratchL1 = make([]Request, 0, 16)
	u.scratchL2 = make([]Request, 0, 16)
	return u
}

// pow2Shift returns log2(n) when n is a positive power of two, else -1.
func pow2Shift(n uint64) int {
	if n == 0 || n&(n-1) != 0 {
		return -1
	}
	return bits.TrailingZeros64(n)
}

// lineOf converts a byte address to a line id, shifting when LineBytes is
// a power of two to keep the integer division off the per-access path.
func (u *Unit) lineOf(addr uint64) uint64 {
	if u.lineShift >= 0 {
		return addr >> uint(u.lineShift)
	}
	return addr / uint64(u.params.LineBytes)
}

// Params returns the tuning in force.
func (u *Unit) Params() Params { return u.params }

// Stats returns issue counters since the last ResetStats.
func (u *Unit) Stats() Stats { return u.stats }

// ResetStats zeroes the issue counters; training state is kept.
func (u *Unit) ResetStats() { u.stats = Stats{} }

// SetMSR applies a MiscFeatureControl value: set bits disable prefetchers.
func (u *Unit) SetMSR(v uint64) { u.disable = v & msr.DisableAll }

// MSR returns the current MiscFeatureControl disable bits.
func (u *Unit) MSR() uint64 { return u.disable }

// Enabled reports whether the prefetcher guarded by the given disable bit
// is currently on.
func (u *Unit) Enabled(disableBit uint64) bool { return u.disable&disableBit == 0 }

// ObserveL1 feeds one demand access (program counter, byte address, and
// whether it hit L1) to the L1 prefetchers and returns the prefetch
// requests they generate. The returned slice is reused by the next call.
func (u *Unit) ObserveL1(pc, addr uint64, hit bool) []Request {
	u.scratchL1 = u.scratchL1[:0]
	line := u.lineOf(addr)
	if u.Enabled(msr.DisableL1IP) {
		if target, ok := u.ip.observe(pc, addr, u.params); ok {
			tl := u.lineOf(target)
			if tl != line {
				u.scratchL1 = append(u.scratchL1, Request{Line: tl, Level: L1})
				u.stats.IPIssued++
			}
		}
	}
	if !hit && u.Enabled(msr.DisableL1NextLine) {
		u.scratchL1 = append(u.scratchL1, Request{Line: line + 1, Level: L1})
		u.stats.NextLineIssued++
	}
	return u.scratchL1
}

// ObserveL2 feeds one request arriving at L2 (a line address; demand when
// it came from an instruction, missed when it missed L2) to the L2
// prefetchers and returns the prefetch requests they generate. The
// streamer trains on every arrival (it must keep advancing on hits to
// lines it prefetched earlier); the adjacent-line prefetcher pairs only
// demand misses. The returned slice is reused by the next call.
func (u *Unit) ObserveL2(line uint64, demand, missed bool) []Request {
	u.scratchL2 = u.scratchL2[:0]
	if u.Enabled(msr.DisableL2Stream) {
		n := u.stream.observe(line, u.params, &u.scratchL2)
		u.stats.StreamIssued += uint64(n)
	}
	if demand && missed && u.Enabled(msr.DisableL2Adjacent) {
		u.scratchL2 = append(u.scratchL2, Request{Line: line ^ 1, Level: L2})
		u.stats.AdjacentIssued++
	}
	return u.scratchL2
}

// ResetTraining clears all training state (used at workload restarts).
func (u *Unit) ResetTraining() {
	u.ip.init(u.params)
	u.stream.init(u.params)
}

// CopyFrom makes u an exact copy of src: disable bits, training tables
// and stats. Both units must have the same Params; it panics otherwise.
func (u *Unit) CopyFrom(src *Unit) {
	if u.params != src.params {
		panic("prefetch: CopyFrom across Params")
	}
	ip, stream, s1, s2 := u.ip, u.stream, u.scratchL1, u.scratchL2
	*u = *src
	u.ip, u.stream, u.scratchL1, u.scratchL2 = ip, stream, s1, s2
	u.ip.copyFrom(&src.ip)
	u.stream.copyFrom(&src.stream)
}

// ipTable is the IP (stride) prefetcher's tracking table, indexed by a
// hash of the program counter.
type ipTable struct {
	pcs     []uint64
	last    []uint64
	strides []int64
	conf    []int8
	shift   int // pow2Shift(len(pcs)); <0 selects the modulo fallback
}

func (t *ipTable) init(p Params) {
	t.pcs = make([]uint64, p.IPTableSize)
	t.last = make([]uint64, p.IPTableSize)
	t.strides = make([]int64, p.IPTableSize)
	t.conf = make([]int8, p.IPTableSize)
	t.shift = pow2Shift(uint64(p.IPTableSize))
}

func (t *ipTable) copyFrom(src *ipTable) {
	copy(t.pcs, src.pcs)
	copy(t.last, src.last)
	copy(t.strides, src.strides)
	copy(t.conf, src.conf)
	t.shift = src.shift
}

func (t *ipTable) observe(pc, addr uint64, p Params) (target uint64, ok bool) {
	var i int
	if t.shift >= 0 {
		i = int(pc & (uint64(len(t.pcs)) - 1))
	} else {
		i = int(pc % uint64(len(t.pcs)))
	}
	if t.pcs[i] != pc {
		t.pcs[i] = pc
		t.last[i] = addr
		t.strides[i] = 0
		t.conf[i] = 0
		return 0, false
	}
	stride := int64(addr) - int64(t.last[i])
	t.last[i] = addr
	if stride == 0 {
		return 0, false
	}
	if stride == t.strides[i] {
		if int(t.conf[i]) < p.IPConfidence {
			t.conf[i]++
		}
	} else {
		t.strides[i] = stride
		t.conf[i] = 0
		return 0, false
	}
	if int(t.conf[i]) < p.IPConfidence {
		return 0, false
	}
	return uint64(int64(addr) + stride*int64(p.IPDistance)), true
}

// streamTable is the L2 streamer: per-4KB-page direction trackers.
type streamTable struct {
	pages []uint64 // page id
	last  []int64  // last line offset within page (-1 invalid)
	dir   []int8   // +1 ascending, -1 descending, 0 untrained
	conf  []int8
	ahead []int64 // furthest line offset already prefetched
	lru   []uint64
	clock uint64

	// hint is the tracker touched by the previous observe. Streams revisit
	// the same page for many accesses in a row, so checking it first skips
	// the table scan; page ids are unique among valid trackers, making the
	// probe order irrelevant to which tracker is found.
	hint int
	// lppShift is pow2Shift(linesPerPage()); <0 selects division.
	lppShift int
}

func (t *streamTable) init(p Params) {
	n := p.StreamTrackers
	t.pages = make([]uint64, n)
	t.last = make([]int64, n)
	t.dir = make([]int8, n)
	t.conf = make([]int8, n)
	t.ahead = make([]int64, n)
	t.lru = make([]uint64, n)
	for i := range t.last {
		t.last[i] = -1
	}
	t.clock = 0
	t.hint = 0
	t.lppShift = pow2Shift(p.linesPerPage())
}

func (t *streamTable) copyFrom(src *streamTable) {
	copy(t.pages, src.pages)
	copy(t.last, src.last)
	copy(t.dir, src.dir)
	copy(t.conf, src.conf)
	copy(t.ahead, src.ahead)
	copy(t.lru, src.lru)
	t.clock, t.hint, t.lppShift = src.clock, src.hint, src.lppShift
}

// observe feeds an L2 access and appends generated prefetches to out,
// returning how many were appended.
func (t *streamTable) observe(line uint64, p Params, out *[]Request) int {
	lpp := p.linesPerPage()
	var page uint64
	var off int64
	if t.lppShift >= 0 {
		page = line >> uint(t.lppShift)
		off = int64(line & (lpp - 1))
	} else {
		page = line / lpp
		off = int64(line % lpp)
	}

	// Find or allocate the tracker for this page, probing the previously
	// touched tracker first.
	idx := -1
	if h := t.hint; t.pages[h] == page && t.last[h] >= 0 {
		idx = h
	} else {
		for i, pg := range t.pages {
			if pg == page && t.last[i] >= 0 {
				idx = i
				break
			}
		}
	}
	t.clock++
	if idx < 0 {
		// Victim: LRU tracker.
		oldest := ^uint64(0)
		for i, ts := range t.lru {
			if ts <= oldest {
				oldest = ts
				idx = i
			}
		}
		t.pages[idx] = page
		t.last[idx] = off
		t.dir[idx] = 0
		t.conf[idx] = 0
		t.ahead[idx] = off
		t.lru[idx] = t.clock
		t.hint = idx
		return 0
	}
	t.lru[idx] = t.clock
	t.hint = idx

	step := off - t.last[idx]
	t.last[idx] = off
	var dir int8
	switch {
	case step > 0:
		dir = 1
	case step < 0:
		dir = -1
	default:
		return 0
	}
	if dir == t.dir[idx] {
		if int(t.conf[idx]) < p.StreamTrainHits {
			t.conf[idx]++
		}
	} else {
		t.dir[idx] = dir
		t.conf[idx] = 1
		t.ahead[idx] = off
		return 0
	}
	if int(t.conf[idx]) < p.StreamTrainHits {
		return 0
	}

	// Trained: issue up to StreamDegree new lines, staying within the
	// page and within StreamDistance of the current access. The ahead
	// pointer advances only over lines actually issued — advancing it on
	// a rejected candidate would skip that line forever.
	n := 0
	next := t.ahead[idx]
	if dir > 0 && next < off {
		next = off
	}
	if dir < 0 && next > off {
		next = off
	}
	for i := 0; i < p.StreamDegree; i++ {
		cand := next + int64(dir)
		if cand < 0 || cand >= int64(lpp) {
			break
		}
		if cand-off > int64(p.StreamDistance) || off-cand > int64(p.StreamDistance) {
			break
		}
		*out = append(*out, Request{Line: page*lpp + uint64(cand), Level: L2})
		next = cand
		n++
	}
	t.ahead[idx] = next
	return n
}
