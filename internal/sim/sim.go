// Package sim assembles the full machine: N cores (cpu.Core) with private
// L1/L2 and prefetchers, one or more shared inclusive LLC slices partitioned
// by CAT way masks, one bandwidth-limited memory controller per NUMA node,
// an emulated MSR bank, and the CAT allocator. With the default single-node
// Topology it is the stand-in for the paper's Xeon E5-2620 v4; multi-node
// Topologies model N-socket scale-ups (16/32/64 cores).
//
// Control flows exactly as on hardware: policies write MSRs (prefetcher
// disable bits, CLOS masks, core associations) through the msr.Bank, and
// the system reacts to those writes via a register watcher — the policies
// never reach into simulator internals.
package sim

import (
	"fmt"
	"math/bits"

	"cmm/internal/cache"
	"cmm/internal/cat"
	"cmm/internal/cpu"
	"cmm/internal/mem"
	"cmm/internal/msr"
	"cmm/internal/pmu"
	"cmm/internal/prefetch"
	"cmm/internal/workload"
)

// Topology describes the NUMA geometry of the machine. The zero value is a
// single node spanning every core with no remote penalty — byte-identical
// to the pre-topology single-socket machine.
type Topology struct {
	// Nodes is the number of NUMA nodes (sockets). Each node owns one LLC
	// slice and one memory controller. 0 or 1 means a single node.
	Nodes int
	// CoresPerNode is the number of cores on each node. 0 derives it as
	// NumCores/Nodes (which must divide evenly).
	CoresPerNode int
	// RemotePenalty is the extra latency, in core cycles, charged once per
	// shared-level access whose home node differs from the issuing core's
	// node (interconnect hop). Applied to both remote LLC hits and remote
	// fills.
	RemotePenalty int
	// ShardedRun selects the node-sharded round loop in System.Run: cores
	// are visited node-by-node over contiguous per-node slices instead of
	// through a global modulo walk. The visitation order is identical to
	// the naive loop (node-major, per-node rotation), so results are
	// bit-identical either way; sharding only removes per-core modulo and
	// pointer-chasing cost on many-core geometries.
	ShardedRun bool
}

// nodes returns the effective node count (>= 1).
func (t Topology) nodes() int {
	if t.Nodes <= 1 {
		return 1
	}
	return t.Nodes
}

// Validate reports a descriptive error for unusable topologies.
func (t Topology) Validate() error {
	if t.Nodes < 0 {
		return fmt.Errorf("sim: Topology.Nodes %d must be >= 0", t.Nodes)
	}
	if t.CoresPerNode < 0 {
		return fmt.Errorf("sim: Topology.CoresPerNode %d must be >= 0", t.CoresPerNode)
	}
	if t.RemotePenalty < 0 {
		return fmt.Errorf("sim: Topology.RemotePenalty %d must be >= 0", t.RemotePenalty)
	}
	return nil
}

// Config describes the machine.
type Config struct {
	// CoreGHz is the core clock, used to convert cycles to seconds.
	CoreGHz float64
	// Core is the core timing model.
	Core cpu.Params
	// L1, L2 are per-core private cache geometries; LLC is the geometry of
	// each node's shared slice.
	L1, L2, LLC cache.Config
	// Mem is the memory controller model, instantiated once per node.
	Mem mem.Config
	// Prefetch tunes the per-core prefetchers.
	Prefetch prefetch.Params
	// CAT describes the partitioning capability; CAT.Ways must equal
	// LLC.Ways. On multi-node topologies CAT.CoresPerPackage defaults to
	// the node size, making CLOS mask/MBA registers per-node.
	CAT cat.Config
	// RoundCycles is the lockstep window in which cores advance; smaller
	// values interleave cores more finely but run slower.
	RoundCycles uint64
	// Topology is the NUMA geometry; the zero value is single-node.
	Topology Topology
}

// DefaultConfig returns the paper's platform: 8 cores at 2.1 GHz, 32KB/8w
// L1D, 256KB/8w L2, 20MB/20w inclusive LLC, DDR4-2400 at 68.3 GB/s.
func DefaultConfig() Config {
	return Config{
		CoreGHz:     2.1,
		Core:        cpu.DefaultParams(),
		L1:          cache.Config{Sets: 64, Ways: 8, LineBytes: 64, HitLatency: 4},
		L2:          cache.Config{Sets: 512, Ways: 8, LineBytes: 64, HitLatency: 12},
		LLC:         cache.Config{Sets: 16384, Ways: 20, LineBytes: 64, HitLatency: 40},
		Mem:         mem.DefaultConfig(),
		Prefetch:    prefetch.DefaultParams(),
		CAT:         cat.DefaultConfig(),
		RoundCycles: 20_000,
	}
}

// DefaultRemotePenalty is the cross-node access penalty NUMAConfig applies:
// ~60 cycles of interconnect hop at 2.1 GHz, in line with measured
// remote-vs-local LLC latency deltas on two-socket Broadwell parts.
const DefaultRemotePenalty = 60

// NUMAConfig returns DefaultConfig scaled to an N-node machine with the
// sharded round loop enabled. Cache and memory geometry stay per-node (each
// node gets its own full LLC slice and controller), matching a socket-level
// scale-out of the paper's platform.
func NUMAConfig(nodes int) Config {
	cfg := DefaultConfig()
	cfg.Topology = Topology{Nodes: nodes, RemotePenalty: DefaultRemotePenalty, ShardedRun: true}
	return cfg
}

// Validate reports a descriptive error for inconsistent configurations.
func (c Config) Validate() error {
	if c.CoreGHz <= 0 {
		return fmt.Errorf("sim: CoreGHz %g must be positive", c.CoreGHz)
	}
	if err := c.Core.Validate(); err != nil {
		return err
	}
	for _, cc := range []struct {
		name string
		cfg  cache.Config
	}{{"L1", c.L1}, {"L2", c.L2}, {"LLC", c.LLC}} {
		if err := cc.cfg.Validate(); err != nil {
			return fmt.Errorf("sim: %s: %w", cc.name, err)
		}
	}
	if err := c.Mem.Validate(); err != nil {
		return err
	}
	if err := c.CAT.Validate(); err != nil {
		return err
	}
	if c.CAT.Ways != c.LLC.Ways {
		return fmt.Errorf("sim: CAT ways %d != LLC ways %d", c.CAT.Ways, c.LLC.Ways)
	}
	if c.L1.LineBytes != c.LLC.LineBytes || c.L2.LineBytes != c.LLC.LineBytes {
		return fmt.Errorf("sim: line sizes differ across levels")
	}
	if c.RoundCycles == 0 {
		return fmt.Errorf("sim: RoundCycles must be positive")
	}
	if err := c.Topology.Validate(); err != nil {
		return err
	}
	return nil
}

// coreHot is the per-core hot state touched on every shared-level access,
// packed contiguously so the access path reads one cache line instead of
// chasing per-core pointers.
type coreHot struct {
	// mask is the core's effective CAT fill mask.
	mask uint64
	// node is the core's NUMA node.
	node int32
}

// System is the whole machine. Not safe for concurrent use.
type System struct {
	cfg   Config
	cores []*cpu.Core
	llcs  []*cache.Cache
	memcs []*mem.Controller
	bank  *msr.Emulated
	alloc *cat.Allocator

	// hot caches each core's effective CAT fill mask and node. Relevant
	// MSR writes only mark it dirty; the recomputation is coalesced to the
	// next Run/AccessShared so a policy writing many registers
	// back-to-back (PT combo sampling) triggers one refresh, not one
	// per write.
	hot        []coreHot
	masksDirty bool

	// Topology-derived routing state.
	nodes     int
	cpn       int    // cores per node
	homeShift uint   // log2(LLC.Sets): lines interleave across nodes in slice-sized regions
	homeMask  uint64 // nodes-1 when nodes is a power of two, else 0
	nodeCores [][]*cpu.Core

	// refreshMasks scratch: per-(package, CLOS) register read cache.
	pkgMask []uint64
	pkgMBA  []int64

	now    uint64
	rotate int
}

// New builds a machine running one workload spec per core. Generators are
// seeded with seed+core so multiprogrammed runs are deterministic but
// decorrelated. It returns an error for invalid configuration or specs.
func New(cfg Config, specs []workload.Spec, seed int64) (*System, error) {
	gens, err := generators(specs, seed)
	if err != nil {
		return nil, err
	}
	return NewWithGenerators(cfg, gens)
}

func generators(specs []workload.Spec, seed int64) ([]workload.Generator, error) {
	gens := make([]workload.Generator, len(specs))
	for i, spec := range specs {
		gen, err := workload.New(spec, seed+int64(i)*1_000_003)
		if err != nil {
			return nil, err
		}
		gens[i] = gen
	}
	return gens, nil
}

// NewWithGenerators builds a machine from pre-built reference-stream
// generators (one per core) — the entry point for trace replay and custom
// workloads. Each generator's Spec supplies the core's timing parameters.
func NewWithGenerators(cfg Config, gens []workload.Generator) (*System, error) {
	s := &System{}
	if err := s.init(cfg, gens); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset returns the machine to the power-on state New(s.Config(), specs,
// seed) builds, bit for bit, keeping the storage of its caches — the
// bulk of a machine — instead of allocating new ones. specs must have
// one entry per core. On error the machine must not be used again.
func (s *System) Reset(specs []workload.Spec, seed int64) error {
	if len(specs) != len(s.cores) {
		return fmt.Errorf("sim: Reset with %d specs on a %d-core machine", len(specs), len(s.cores))
	}
	gens, err := generators(specs, seed)
	if err != nil {
		return err
	}
	return s.init(s.cfg, gens)
}

// init builds s for cfg running gens. The caches of a machine that
// already has cfg's shape are reset and kept; everything else is built
// new.
func (s *System) init(cfg Config, gens []workload.Generator) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	n := len(gens)
	if n == 0 {
		return fmt.Errorf("sim: no workloads")
	}
	nodes := cfg.Topology.nodes()
	cpn := cfg.Topology.CoresPerNode
	if cpn == 0 {
		if n%nodes != 0 {
			return fmt.Errorf("sim: %d cores not divisible by %d nodes", n, nodes)
		}
		cpn = n / nodes
	}
	if cpn*nodes != n {
		return fmt.Errorf("sim: topology %d nodes x %d cores/node != %d cores", nodes, cpn, n)
	}
	if nodes > 1 {
		// CLOS mask and MBA registers are per-package on real multi-socket
		// parts; make the package boundary the node boundary unless the
		// caller already configured it.
		if cfg.CAT.CoresPerPackage == 0 {
			cfg.CAT.CoresPerPackage = cpn
		} else if cfg.CAT.CoresPerPackage != cpn {
			return fmt.Errorf("sim: CAT.CoresPerPackage %d != %d cores/node", cfg.CAT.CoresPerPackage, cpn)
		}
	}
	// A machine that already has this shape keeps its caches, reset.
	var oldLLCs []*cache.Cache
	var oldCores []*cpu.Core
	if s.cfg == cfg && len(s.cores) == n {
		oldLLCs, oldCores = s.llcs, s.cores
	}
	*s = System{
		cfg:   cfg,
		llcs:  make([]*cache.Cache, nodes),
		memcs: make([]*mem.Controller, nodes),
		bank:  msr.NewEmulated(n, cfg.CAT.NumCLOS),
		hot:   make([]coreHot, n),
		nodes: nodes,
		cpn:   cpn,
		// Interleave homes in LLC-slice-sized regions (not low line bits):
		// every slice then sees the full set-index range, so per-node set
		// utilization matches the single-node machine.
		homeShift: uint(bits.Len(uint(cfg.LLC.Sets - 1))),
	}
	if nodes&(nodes-1) == 0 {
		s.homeMask = uint64(nodes - 1)
	}
	for nd := 0; nd < nodes; nd++ {
		if oldLLCs != nil {
			s.llcs[nd] = oldLLCs[nd]
			s.llcs[nd].Reset()
		} else {
			s.llcs[nd] = cache.New(cfg.LLC)
		}
		s.memcs[nd] = mem.NewController(n, cfg.Mem)
	}
	s.alloc = cat.NewAllocator(cfg.CAT, s.bank)
	for i := range s.hot {
		s.hot[i] = coreHot{mask: cfg.CAT.FullMask(), node: int32(i / cpn)}
	}
	for i, gen := range gens {
		if gen == nil {
			return fmt.Errorf("sim: nil generator for core %d", i)
		}
		var l1, l2 *cache.Cache
		if oldCores != nil {
			l1, l2 = oldCores[i].L1(), oldCores[i].L2()
			l1.Reset()
			l2.Reset()
		} else {
			l1, l2 = cache.New(cfg.L1), cache.New(cfg.L2)
		}
		core, err := cpu.New(i, cfg.Core, gen.Spec(), gen, l1, l2, prefetch.NewUnit(cfg.Prefetch), s)
		if err != nil {
			return err
		}
		s.cores = append(s.cores, core)
	}
	s.nodeCores = make([][]*cpu.Core, nodes)
	for nd := 0; nd < nodes; nd++ {
		s.nodeCores[nd] = s.cores[nd*cpn : (nd+1)*cpn : (nd+1)*cpn]
	}
	s.bank.AddWatcher(msr.WatcherFunc(s.msrWritten))
	return nil
}

// CopyFrom makes s an exact copy of src: caches, prefetcher training,
// cores and their PMU counters, memory controllers, MSR registers, the
// cached CAT masks and the clock. Generators are cloned, so advancing
// either machine afterwards never moves the other; both produce, cycle
// for cycle, what src alone would have. The CAT allocator holds no state
// beyond its bank, and s keeps its own bank watcher, so MSR writes to the
// copy steer the copy. src is only read, so several machines may copy
// one source concurrently. Both machines must have the same Config and
// core count.
func (s *System) CopyFrom(src *System) error {
	if s == src {
		return nil
	}
	if s.cfg != src.cfg || len(s.cores) != len(src.cores) {
		return fmt.Errorf("sim: CopyFrom between machines of different shape")
	}
	for i, c := range s.cores {
		c.CopyFrom(src.cores[i])
	}
	for nd := range s.llcs {
		s.llcs[nd].CopyFrom(src.llcs[nd])
		s.memcs[nd].CopyFrom(src.memcs[nd])
	}
	s.bank.CopyFrom(src.bank)
	copy(s.hot, src.hot)
	s.masksDirty, s.now, s.rotate = src.masksDirty, src.now, src.rotate
	return nil
}

// Clone returns a new machine that is an exact copy of s (see CopyFrom).
// To copy repeatedly, recycle one machine with CopyFrom instead: a
// machine's caches are megabytes.
func (s *System) Clone() *System {
	// The new machine borrows s's generators only until CopyFrom replaces
	// them with clones; building a core reads just their Specs.
	gens := make([]workload.Generator, len(s.cores))
	for i, c := range s.cores {
		gens[i] = c.Generator()
	}
	c, err := NewWithGenerators(s.cfg, gens)
	if err == nil {
		err = c.CopyFrom(s)
	}
	if err != nil {
		panic(err) // s was built from this Config and these generators
	}
	return c
}

// Config returns the machine configuration (including any CAT package
// defaulting applied for multi-node topologies).
func (s *System) Config() Config { return s.cfg }

// NumCores returns the core count.
func (s *System) NumCores() int { return len(s.cores) }

// Core returns core i.
func (s *System) Core(i int) *cpu.Core { return s.cores[i] }

// PMU returns core i's counters.
func (s *System) PMU(i int) *pmu.Counters { return s.cores[i].PMU() }

// NumNodes returns the NUMA node count (>= 1).
func (s *System) NumNodes() int { return s.nodes }

// NodeOf returns the NUMA node core i belongs to.
func (s *System) NodeOf(core int) int { return int(s.hot[core].node) }

// HomeNode returns the node owning a line's LLC slice and memory channel.
func (s *System) HomeNode(line uint64) int { return s.homeNode(line) }

// LLC returns node 0's shared cache slice (stats/diagnostics); see LLCNode
// for the other slices.
func (s *System) LLC() *cache.Cache { return s.llcs[0] }

// LLCNode returns node nd's shared cache slice.
func (s *System) LLCNode(nd int) *cache.Cache { return s.llcs[nd] }

// Memory returns node 0's memory controller (stats/diagnostics); see
// MemoryNode for the other nodes and TotalBytes for machine-wide traffic.
func (s *System) Memory() *mem.Controller { return s.memcs[0] }

// MemoryNode returns node nd's memory controller.
func (s *System) MemoryNode(nd int) *mem.Controller { return s.memcs[nd] }

// TotalBytes returns the bytes core i moved across every node's memory
// controller (a core's traffic lands on the home node of each line).
func (s *System) TotalBytes(core int) uint64 {
	var total uint64
	for _, mc := range s.memcs {
		total += mc.TotalBytes(core)
	}
	return total
}

// NodeBytes returns the bytes all cores moved on node nd's controller.
func (s *System) NodeBytes(nd int) uint64 {
	var total uint64
	for c := range s.cores {
		total += s.memcs[nd].TotalBytes(c)
	}
	return total
}

// Bank returns the emulated MSR bank — the control surface policies write.
func (s *System) Bank() *msr.Emulated { return s.bank }

// CAT returns the allocator bound to the machine's MSR bank.
func (s *System) CAT() *cat.Allocator { return s.alloc }

// Now returns the global cycle count (round-granular).
func (s *System) Now() uint64 { return s.now }

// homeNode maps a line address to its home node: region-interleaved in
// LLC-slice-sized chunks so each slice keeps full set utilization.
func (s *System) homeNode(line uint64) int {
	if s.nodes == 1 {
		return 0
	}
	region := line >> s.homeShift
	if s.homeMask != 0 {
		return int(region & s.homeMask)
	}
	return int(region % uint64(s.nodes))
}

// msrWritten reacts to control-register writes the way hardware does.
func (s *System) msrWritten(cpuID int, reg uint32, v uint64) {
	switch {
	case reg == msr.MiscFeatureControl:
		s.cores[cpuID].SetPrefetchMSR(v)
	case reg == msr.PQRAssoc,
		reg >= msr.L3MaskBase && reg < msr.L3MaskBase+uint32(s.cfg.CAT.NumCLOS),
		reg >= msr.MBAThrottleBase && reg < msr.MBAThrottleBase+uint32(s.cfg.CAT.NumCLOS):
		s.masksDirty = true
	}
}

// flushMasks applies pending CAT/MBA register writes to the cached fill
// masks and memory throttles. Cheap no-op when nothing changed.
func (s *System) flushMasks() {
	if s.masksDirty {
		s.masksDirty = false
		s.refreshMasks()
	}
}

func (s *System) refreshMasks() {
	n := len(s.cores)
	nClos := s.cfg.CAT.NumCLOS
	cpp := s.cfg.CAT.CoresPerPackage
	packages := 1
	if cpp > 0 && cpp < n {
		packages = (n + cpp - 1) / cpp
	}
	// Mask and MBA registers are per-(package, CLOS); read each one once
	// per refresh instead of twice per core. pkgMBA uses -1 for "not yet
	// read" and -2 for "register fault: leave the throttle untouched",
	// mirroring the unbatched per-core fallback behavior.
	want := packages * nClos
	if cap(s.pkgMask) < want {
		s.pkgMask = make([]uint64, want)
		s.pkgMBA = make([]int64, want)
	}
	s.pkgMask = s.pkgMask[:want]
	s.pkgMBA = s.pkgMBA[:want]
	for i := range s.pkgMBA {
		s.pkgMBA[i] = -1
	}
	for i := 0; i < n; i++ {
		clos, err := s.alloc.ClosOf(i)
		if err != nil || clos < 0 || clos >= nClos {
			s.hot[i].mask = s.cfg.CAT.FullMask()
			continue
		}
		pkg := 0
		leader := 0
		if cpp > 0 && cpp < n {
			pkg = i / cpp
			leader = pkg * cpp
		}
		idx := pkg*nClos + clos
		if s.pkgMBA[idx] == -1 {
			m, err := s.bank.Read(leader, msr.L3MaskBase+uint32(clos))
			if err != nil || m == 0 {
				m = s.cfg.CAT.FullMask()
			}
			s.pkgMask[idx] = m
			pct, err := s.bank.Read(leader, msr.MBAThrottleBase+uint32(clos))
			if err != nil {
				s.pkgMBA[idx] = -2
			} else {
				s.pkgMBA[idx] = int64(pct)
			}
		}
		s.hot[i].mask = s.pkgMask[idx]
		if s.pkgMBA[idx] < 0 {
			continue
		}
		pct := float64(s.pkgMBA[idx])
		// MBA delay pct also partitions the channel: a throttled core is
		// moved onto its own slice — (100-pct)% of an equal 1/n share —
		// so its traffic stops drawing from (and inflating) the shared
		// pool. pct 0 returns the core to the pool, which keeps the
		// no-MBA machine bit-identical to the unpartitioned model.
		share := 0.0
		if pct > 0 {
			share = (1 - pct/100) / float64(n)
		}
		for _, mc := range s.memcs {
			mc.SetThrottle(i, pct/100)
			// Each share is <= 1/n so the sum can never exceed the
			// channel; SetShare cannot fail here.
			_ = mc.SetShare(i, share)
		}
	}
}

// AccessShared implements cpu.Shared: LLC lookup in the line's home-node
// slice, home-node memory on miss, fill under the core's CAT mask, and
// inclusive back-invalidation of the victim's owner. Cross-node accesses
// are charged the topology's remote penalty once, and their fill bandwidth
// lands on the home node's controller. Hits on in-flight fills (another
// core's — or an earlier prefetch's — data still on its way) wait out the
// remainder.
func (s *System) AccessShared(core int, line uint64, kind mem.RequestKind, now uint64) (int, bool) {
	s.flushMasks()
	home := s.homeNode(line)
	llc := s.llcs[home]
	penalty := 0
	if int32(home) != s.hot[core].node {
		penalty = s.cfg.Topology.RemotePenalty
	}
	demand := kind == mem.Demand
	if hit, wait := llc.Lookup(line, demand, now); hit {
		return s.cfg.LLC.HitLatency + penalty + int(wait), false
	}
	memc := s.memcs[home]
	lat := s.cfg.LLC.HitLatency + penalty + memc.Access(core, kind)
	victim := llc.FillAfterMiss(line, core, !demand, s.hot[core].mask, now+uint64(lat))
	if victim.Valid {
		dirty := victim.Dirty
		if victim.Owner >= 0 && victim.Owner < len(s.cores) {
			// Inclusive back-invalidation; a dirty private copy also
			// owes memory a writeback.
			if s.cores[victim.Owner].InvalidatePrivate(victim.Line) {
				dirty = true
			}
		}
		if dirty {
			owner := victim.Owner
			if owner < 0 || owner >= len(s.cores) {
				owner = core
			}
			// The victim lived in this slice, so its writeback drains
			// through the same node's channel.
			memc.Access(owner, mem.Writeback)
		}
	}
	return lat, true
}

// WritebackShared implements cpu.Shared: a dirty private-cache victim is
// marked dirty in the (inclusive) home-node LLC slice, or written to the
// home node's memory if the slice no longer holds it.
func (s *System) WritebackShared(core int, line uint64) {
	home := s.homeNode(line)
	if s.llcs[home].SetDirty(line) {
		return
	}
	s.memcs[home].Access(core, mem.Writeback)
}

// Run advances the whole machine by d cycles in lockstep rounds, rotating
// the per-node core service order each round to avoid ordering bias, and
// ticking every node's memory controller utilization window at round
// boundaries. The canonical visitation order is node-major with a per-node
// rotation (identical to the historical global rotation on one node); the
// naive and sharded loops both produce it, so Topology.ShardedRun never
// changes results.
func (s *System) Run(d uint64) {
	s.flushMasks()
	end := s.now + d
	if s.cfg.Topology.ShardedRun {
		s.runSharded(end)
		return
	}
	cpn := s.cpn
	for s.now < end {
		next := s.now + s.cfg.RoundCycles
		if next > end {
			next = end
		}
		for base := 0; base < len(s.cores); base += cpn {
			for i := 0; i < cpn; i++ {
				s.cores[base+(i+s.rotate)%cpn].RunUntil(next)
			}
		}
		s.rotate++
		for _, mc := range s.memcs {
			mc.Tick(int(next - s.now))
		}
		s.now = next
	}
}

// runSharded is the hot-path round loop: per-node contiguous slices, the
// rotation applied as two range-loop halves instead of a modulo per core.
func (s *System) runSharded(end uint64) {
	for s.now < end {
		next := s.now + s.cfg.RoundCycles
		if next > end {
			next = end
		}
		r := s.rotate % s.cpn
		for _, nodeCores := range s.nodeCores {
			for _, c := range nodeCores[r:] {
				c.RunUntil(next)
			}
			for _, c := range nodeCores[:r] {
				c.RunUntil(next)
			}
		}
		s.rotate++
		for _, mc := range s.memcs {
			mc.Tick(int(next - s.now))
		}
		s.now = next
	}
}

// Snapshots captures every core's PMU state at once.
func (s *System) Snapshots() []pmu.Snapshot {
	return s.SnapshotsInto(nil)
}

// SnapshotsInto captures every core's PMU state into buf, reusing its
// storage when it has capacity. The returned slice has one entry per core.
func (s *System) SnapshotsInto(buf []pmu.Snapshot) []pmu.Snapshot {
	if cap(buf) < len(s.cores) {
		buf = make([]pmu.Snapshot, len(s.cores))
	}
	buf = buf[:len(s.cores)]
	for i, c := range s.cores {
		buf[i] = c.PMU().Snapshot()
	}
	return buf
}

// Deltas returns per-core samples since the given snapshots.
func (s *System) Deltas(since []pmu.Snapshot) []pmu.Sample {
	return s.DeltasInto(nil, since)
}

// DeltasInto computes per-core samples since the given snapshots into buf,
// reusing its storage when it has capacity.
func (s *System) DeltasInto(buf []pmu.Sample, since []pmu.Snapshot) []pmu.Sample {
	if cap(buf) < len(s.cores) {
		buf = make([]pmu.Sample, len(s.cores))
	}
	buf = buf[:len(s.cores)]
	for i, c := range s.cores {
		buf[i] = c.PMU().Snapshot().Delta(since[i])
	}
	return buf
}

// IPCs extracts each core's IPC from a slice of samples.
func IPCs(samples []pmu.Sample) []float64 {
	out := make([]float64, len(samples))
	for i, sm := range samples {
		out[i] = sm.IPC()
	}
	return out
}
