// Package cpu models one core of the simulated machine: a simple
// issue-width-limited timing model executing a workload's reference
// stream against its private L1/L2 caches, with the core's four hardware
// prefetchers attached at the levels where the real units observe traffic.
//
// The model is cycle-approximate: every instruction advances time by
// 1/IssueWidth, and every memory reference additionally stalls the core by
// the latency of the level that served it, divided by the workload's
// memory-level parallelism for the portion beyond L1. Prefetch requests do
// not stall the core; their cost is cache pollution and memory bandwidth,
// which is exactly the interference channel the paper manages.
package cpu

import (
	"fmt"

	"cmm/internal/cache"
	"cmm/internal/mem"
	"cmm/internal/pmu"
	"cmm/internal/prefetch"
	"cmm/internal/workload"
)

// Shared is the shared side of the memory hierarchy (LLC + DRAM), provided
// by the system simulator.
type Shared interface {
	// AccessShared performs an LLC lookup on behalf of core at cycle
	// now, going to memory on a miss (with the core's CAT mask governing
	// the fill). It returns the latency beyond L2 in cycles — including
	// any wait for an in-flight fill — and whether the LLC missed.
	AccessShared(core int, line uint64, kind mem.RequestKind, now uint64) (lat int, llcMiss bool)
	// WritebackShared delivers a dirty line evicted from a private cache
	// to the shared level (marking it dirty there, or paying memory
	// write bandwidth if it is no longer resident). Posted: no latency.
	WritebackShared(core int, line uint64)
}

// Params configures the core timing model.
type Params struct {
	// IssueWidth is the superscalar width (instructions per cycle peak).
	IssueWidth int
	// AddrSpaceBits is the per-core address space size; core i's
	// addresses are offset by i << AddrSpaceBits so multiprogrammed
	// address streams never collide.
	AddrSpaceBits uint
}

// DefaultParams matches the paper's 4-wide Broadwell cores.
func DefaultParams() Params { return Params{IssueWidth: 4, AddrSpaceBits: 40} }

// Validate reports a descriptive error for unusable parameters.
func (p Params) Validate() error {
	if p.IssueWidth < 1 {
		return fmt.Errorf("cpu: IssueWidth %d must be >= 1", p.IssueWidth)
	}
	if p.AddrSpaceBits < 32 || p.AddrSpaceBits > 56 {
		return fmt.Errorf("cpu: AddrSpaceBits %d must be in [32,56]", p.AddrSpaceBits)
	}
	return nil
}

// Core is one simulated core. Not safe for concurrent use.
type Core struct {
	id     int
	params Params
	spec   workload.Spec
	gen    workload.Generator

	l1, l2 *cache.Cache
	pf     *prefetch.Unit
	shared Shared

	counters pmu.Counters

	base      uint64  // address-space offset
	lineShift uint    // log2(line size)
	clock     float64 // fractional cycle accumulator
	lastClock uint64  // last whole-cycle value pushed to the PMU

	// Per-step constants hoisted out of the hot loop. refCycles is the
	// issue cost of one reference computed with the same division the
	// loop used to perform, so accumulation stays bit-identical.
	refInstrs uint64
	refCycles float64
	l1Lat     float64
	l2Lat     float64
	l2HitLat  int
	l1All     uint64
	l2All     uint64

	// storeAcc accumulates StoreFrac so stores are spread evenly and
	// deterministically through the reference stream.
	storeAcc float64

	// prefToMemLastStep counts this core's prefetch requests that reached
	// memory during the previous step. A demand miss that itself goes to
	// DRAM serializes behind those in the memory controller and banks
	// (prefetches are not free even when demand has priority: the bank is
	// busy). This is how useless prefetching slows down its own core (the
	// paper's Rand Access 25% slowdown) without a cycle-accurate MSHR
	// model, while leaving timely prefetching (which removes the demand
	// misses altogether) beneficial.
	prefToMemLastStep int
	prefToMemThisStep int
}

// serializeCycles approximates the DRAM bank/channel occupancy one
// in-flight prefetch imposes on a demand miss that arrives behind it.
const serializeCycles = 30.0

// New builds a core. The caches must be exclusive to this core.
func New(id int, params Params, spec workload.Spec, gen workload.Generator,
	l1, l2 *cache.Cache, pf *prefetch.Unit, shared Shared) (*Core, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	lb := l1.Config().LineBytes
	if lb != l2.Config().LineBytes {
		return nil, fmt.Errorf("cpu: L1 line %d != L2 line %d", lb, l2.Config().LineBytes)
	}
	shift := uint(0)
	for 1<<shift < lb {
		shift++
	}
	instrs := uint64(1 + spec.GapInstrs)
	return &Core{
		id:        id,
		params:    params,
		spec:      spec,
		gen:       gen,
		l1:        l1,
		l2:        l2,
		pf:        pf,
		shared:    shared,
		base:      uint64(id) << params.AddrSpaceBits,
		lineShift: shift,
		refInstrs: instrs,
		refCycles: float64(instrs) / float64(params.IssueWidth),
		l1Lat:     float64(l1.Config().HitLatency),
		l2Lat:     float64(l2.Config().HitLatency),
		l2HitLat:  l2.Config().HitLatency,
		l1All:     l1.Config().AllWays(),
		l2All:     l2.Config().AllWays(),
	}, nil
}

// ID returns the core index.
func (c *Core) ID() int { return c.id }

// Spec returns the workload spec running on this core.
func (c *Core) Spec() workload.Spec { return c.spec }

// Generator returns the core's reference-stream generator.
func (c *Core) Generator() workload.Generator { return c.gen }

// CopyFrom makes c an exact copy of src: timing state, PMU counters,
// caches, prefetcher training and a Clone of its generator. c keeps its
// own caches, prefetch unit and shared side (the machine it belongs to);
// both cores must have the same cache geometries and prefetch Params.
func (c *Core) CopyFrom(src *Core) {
	l1, l2, pf, shared := c.l1, c.l2, c.pf, c.shared
	*c = *src
	c.l1, c.l2, c.pf, c.shared = l1, l2, pf, shared
	c.gen = src.gen.Clone()
	c.l1.CopyFrom(src.l1)
	c.l2.CopyFrom(src.l2)
	c.pf.CopyFrom(src.pf)
}

// Prefetchers returns the core's prefetch unit.
func (c *Core) Prefetchers() *prefetch.Unit { return c.pf }

// L1 returns the private L1 data cache.
func (c *Core) L1() *cache.Cache { return c.l1 }

// L2 returns the private L2 cache.
func (c *Core) L2() *cache.Cache { return c.l2 }

// PMU returns the core's performance counters.
func (c *Core) PMU() *pmu.Counters { return &c.counters }

// Cycles returns the core's current cycle count.
func (c *Core) Cycles() uint64 { return uint64(c.clock) }

// InvalidatePrivate removes a line from L1 and L2 — the inclusive LLC's
// back-invalidation path. It reports whether either copy was dirty, in
// which case the caller (the LLC) owes the memory a writeback.
func (c *Core) InvalidatePrivate(line uint64) (dirty bool) {
	_, d1 := c.l1.Invalidate(line)
	_, d2 := c.l2.Invalidate(line)
	return d1 || d2
}

// RunUntil executes references until the core's clock reaches the target
// cycle. The simulator advances all cores in lockstep windows with this.
func (c *Core) RunUntil(cycle uint64) {
	for uint64(c.clock) < cycle {
		c.step()
	}
	c.syncPMUCycles()
}

// StepOne executes exactly one reference (test hook).
func (c *Core) StepOne() {
	c.step()
	c.syncPMUCycles()
}

func (c *Core) syncPMUCycles() {
	cur := uint64(c.clock)
	c.counters.Add(pmu.Cycles, cur-c.lastClock)
	c.lastClock = cur
}

func (c *Core) step() {
	pc, vaddr := c.gen.Next()
	addr := c.base + vaddr
	line := addr >> c.lineShift

	c.counters.Add(pmu.Instructions, c.refInstrs)
	c.clock += c.refCycles

	// Spread stores deterministically per StoreFrac (write-allocate:
	// stores take the same fill path as loads, then dirty the line).
	isStore := false
	if c.spec.StoreFrac > 0 {
		c.storeAcc += c.spec.StoreFrac
		if c.storeAcc >= 1 {
			c.storeAcc--
			isStore = true
			c.counters.Inc(pmu.StoreReq)
		}
	}

	now := uint64(c.clock)
	c.counters.Inc(pmu.L1DmReq)
	l1hit, l1wait := c.l1.Lookup(line, true, now)
	stall := c.l1Lat + float64(l1wait)
	if !l1hit {
		c.counters.Inc(pmu.L1DmMiss)
		beyond, l2miss := c.demandL2(line, now)
		// Latency beyond L1 overlaps with other outstanding misses.
		overlapped := beyond / c.spec.MLP
		stall += overlapped
		if l2miss {
			c.counters.Add(pmu.StallsL2Pending, uint64(overlapped))
		}
		// The core stalls until the data is usable, so a demand fill is
		// ready the moment execution resumes (MLP overlap already hid
		// the rest of the raw latency).
		if v := c.l1.FillAfterMiss(line, c.id, false, c.l1All, now); v.Valid && v.Dirty {
			c.writebackToL2(v.Line, now)
		}
	}
	if isStore {
		c.l1.SetDirty(line)
	}
	c.clock += stall
	c.prefToMemLastStep = c.prefToMemThisStep
	c.prefToMemThisStep = 0

	// The L1 prefetchers observe every demand access. Executing their
	// requests feeds the L2 prefetchers, whose results the unit keeps in
	// a buffer of their own, so the slice stays intact while we range.
	for _, r := range c.pf.ObserveL1(pc, addr, l1hit) {
		c.runL1Prefetch(r.Line, now)
	}
}

// demandL2 handles a demand access that missed L1: L2 lookup, shared
// hierarchy on a miss, prefetcher observation, and PMU accounting. It
// returns the latency beyond L1 and whether the access missed L2.
func (c *Core) demandL2(line uint64, now uint64) (float64, bool) {
	c.counters.Inc(pmu.L2DmReq)
	l2hit, l2wait := c.l2.Lookup(line, true, now)
	beyond := c.l2Lat + float64(l2wait)
	if !l2hit {
		c.counters.Inc(pmu.L2DmMiss)
		lat, llcMiss := c.shared.AccessShared(c.id, line, mem.Demand, now)
		if llcMiss {
			c.counters.Inc(pmu.L3LoadMiss)
			// Serialize behind our own prefetches already at the DRAM.
			beyond += serializeCycles * float64(c.prefToMemLastStep)
		}
		beyond += float64(lat)
		if v := c.l2.FillAfterMiss(line, c.id, false, c.l2All, now); v.Valid && v.Dirty {
			c.shared.WritebackShared(c.id, v.Line)
		}
	}
	// Streamer trains on every demand arrival at L2; the adjacent-line
	// prefetcher pairs demand misses.
	for _, r := range c.pf.ObserveL2(line, true, !l2hit) {
		c.runL2Prefetch(r.Line, now)
	}
	return beyond, !l2hit
}

// runL1Prefetch executes a request from an L1 prefetcher: drop if already
// in L1, otherwise fetch through L2/LLC/memory and fill L1. The request
// arriving at L2 also trains the streamer, as on real hardware.
func (c *Core) runL1Prefetch(line uint64, now uint64) {
	c.counters.Inc(pmu.L1PrefReq)
	if c.l1.Probe(line) {
		return
	}
	c.counters.Inc(pmu.L1PrefMiss)
	// As on real Intel parts, L1 hardware-prefetch requests arriving at
	// L2 are counted in the demand-read events (the SDM documents
	// DEMAND_DATA_RD as including L1D prefetches); Table-I metrics like
	// PGA (M-4) depend on this.
	c.counters.Inc(pmu.L2DmReq)
	srcLat := c.l2HitLat
	l2hit, _ := c.l2.Lookup(line, false, now)
	if !l2hit {
		c.counters.Inc(pmu.L2DmMiss)
		lat, llcMiss := c.shared.AccessShared(c.id, line, mem.Prefetch, now)
		srcLat += lat
		if llcMiss {
			c.counters.Inc(pmu.L3PrefMiss)
			c.prefToMemThisStep++
		}
	}
	for _, r := range c.pf.ObserveL2(line, false, !l2hit) {
		c.runL2Prefetch(r.Line, now)
	}
	if v := c.l1.FillAfterMiss(line, c.id, true, c.l1All, now+uint64(srcLat)); v.Valid && v.Dirty {
		c.writebackToL2(v.Line, now)
	}
}

// writebackToL2 spills a dirty L1 victim into L2 (marking it dirty there,
// allocating if needed); a dirty line this displaces from L2 continues to
// the shared level.
func (c *Core) writebackToL2(line uint64, now uint64) {
	if c.l2.SetDirty(line) {
		return
	}
	v := c.l2.FillAfterMiss(line, c.id, false, c.l2All, now)
	c.l2.SetDirty(line)
	if v.Valid && v.Dirty {
		c.shared.WritebackShared(c.id, v.Line)
	}
}

// runL2Prefetch executes a request from an L2 prefetcher: drop if already
// in L2, otherwise fetch from LLC/memory and fill L2. L2 prefetch requests
// do not re-train the prefetchers (no feedback loops).
func (c *Core) runL2Prefetch(line uint64, now uint64) {
	c.counters.Inc(pmu.L2PrefReq)
	if c.l2.Probe(line) {
		return
	}
	c.counters.Inc(pmu.L2PrefMiss)
	lat, llcMiss := c.shared.AccessShared(c.id, line, mem.Prefetch, now)
	if llcMiss {
		c.counters.Inc(pmu.L3PrefMiss)
		c.prefToMemThisStep++
	}
	if v := c.l2.FillAfterMiss(line, c.id, true, c.l2All, now+uint64(lat)); v.Valid && v.Dirty {
		c.shared.WritebackShared(c.id, v.Line)
	}
}

// SetPrefetchMSR applies a MiscFeatureControl value to the core's
// prefetchers (the system routes emulated MSR writes here).
func (c *Core) SetPrefetchMSR(v uint64) { c.pf.SetMSR(v) }

// ResetWorkload restarts the reference stream and clears prefetcher
// training (used between independent measurement runs).
func (c *Core) ResetWorkload() {
	c.gen.Reset()
	c.pf.ResetTraining()
}
