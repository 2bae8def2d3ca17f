// Package workload synthesizes the memory reference streams of the paper's
// benchmarks. SPEC CPU2006 is proprietary, so each benchmark is replaced by
// a parametric generator calibrated to reproduce the characterisation the
// paper's mechanisms actually consume (Fig. 1 demand bandwidth and prefetch
// increase, Fig. 2 IPC speedup from prefetching, Fig. 3 LLC way
// sensitivity). The paper's own "Rand Access" microbenchmark is specified
// precisely enough in the text to clone directly.
package workload

import (
	"fmt"
	"math/rand"
	"reflect"
)

// Pattern selects a reference-stream shape.
type Pattern uint8

const (
	// Stream marches sequentially through a large region (optionally as
	// several concurrent streams) — the classic prefetch-friendly shape.
	Stream Pattern = iota
	// Strided steps by a fixed multi-line stride — caught by the L1 IP
	// prefetcher but not (much) by the streamer.
	Strided
	// RandomLine touches uniformly random lines of the working set, with
	// optional spatial locality (probability of also touching the
	// adjacent line).
	RandomLine
	// PointerChase follows a random permutation cycle — dependent loads,
	// MLP 1, and strong reuse once the working set fits in cache.
	PointerChase
	// RandBurst jumps to a random location and touches a short ascending
	// run of lines: enough to train the streamer into useless prefetch
	// streams. This is the paper's "Rand Access" microbenchmark.
	RandBurst
	// Compute has a tiny working set and a large instruction gap —
	// effectively cache-resident and memory-quiet.
	Compute
	// Phased alternates between a streaming phase (prefetch aggressive
	// and friendly) and a cache-resident random phase (memory-quiet)
	// every PhaseRefs references — the "program phase" behaviour the
	// paper's epoch-based controller must re-detect.
	Phased
)

// String implements fmt.Stringer.
func (p Pattern) String() string {
	switch p {
	case Stream:
		return "stream"
	case Strided:
		return "strided"
	case RandomLine:
		return "random"
	case PointerChase:
		return "chase"
	case RandBurst:
		return "randburst"
	case Compute:
		return "compute"
	case Phased:
		return "phased"
	default:
		return fmt.Sprintf("Pattern(%d)", uint8(p))
	}
}

// Spec declares one synthetic benchmark.
type Spec struct {
	// Name is the benchmark's identifier, e.g. "410.bwaves".
	Name string
	// Analogue documents which real benchmark the generator stands in
	// for, or describes the microbenchmark.
	Analogue string
	// Pattern selects the generator shape.
	Pattern Pattern
	// WorkingSet is the touched region in bytes.
	WorkingSet int64
	// StepBytes is the access granularity for Stream (8–64).
	StepBytes int64
	// Streams is the number of concurrent streams (Stream pattern).
	Streams int
	// StrideBytes is the step for Strided.
	StrideBytes int64
	// Burst is the run length in lines for RandBurst.
	Burst int
	// Locality is the probability a RandomLine access also touches the
	// adjacent line (spatial locality feeding the adjacent prefetcher).
	Locality float64
	// PhaseRefs is the phase length, in references, for Phased.
	PhaseRefs int
	// StoreFrac is the fraction of references that are stores (writes);
	// dirty lines cost writeback bandwidth when evicted from the LLC.
	StoreFrac float64
	// GapInstrs is the number of non-memory instructions between
	// references.
	GapInstrs int
	// MLP is the memory-level parallelism: how many misses overlap.
	// Stall cycles are charged as latency/MLP.
	MLP float64
}

// Validate reports a descriptive error for an unusable spec.
func (s Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("workload: empty name")
	case s.WorkingSet <= 0:
		return fmt.Errorf("workload %s: WorkingSet %d must be positive", s.Name, s.WorkingSet)
	case s.MLP < 1:
		return fmt.Errorf("workload %s: MLP %g must be >= 1", s.Name, s.MLP)
	case s.GapInstrs < 0:
		return fmt.Errorf("workload %s: GapInstrs %d must be >= 0", s.Name, s.GapInstrs)
	case s.Pattern == Stream && s.StepBytes <= 0:
		return fmt.Errorf("workload %s: Stream needs StepBytes > 0", s.Name)
	case s.Pattern == Strided && s.StrideBytes == 0:
		return fmt.Errorf("workload %s: Strided needs StrideBytes != 0", s.Name)
	case s.Pattern == RandBurst && s.Burst < 1:
		return fmt.Errorf("workload %s: RandBurst needs Burst >= 1", s.Name)
	case s.Pattern == Phased && (s.PhaseRefs < 1 || s.StepBytes <= 0):
		return fmt.Errorf("workload %s: Phased needs PhaseRefs >= 1 and StepBytes > 0", s.Name)
	case s.Locality < 0 || s.Locality > 1:
		return fmt.Errorf("workload %s: Locality %g must be in [0,1]", s.Name, s.Locality)
	case s.StoreFrac < 0 || s.StoreFrac > 1:
		return fmt.Errorf("workload %s: StoreFrac %g must be in [0,1]", s.Name, s.StoreFrac)
	}
	return nil
}

// LineBytes is the line size assumed by the generators when they reason
// about lines (matches the machine's 64-byte lines).
const LineBytes = 64

// Generator produces one benchmark's reference stream. Implementations are
// deterministic given the seed and are not safe for concurrent use.
type Generator interface {
	// Next returns the program counter and byte address of the next
	// memory reference.
	Next() (pc, addr uint64)
	// Reset restarts the stream from the beginning (used when a
	// benchmark finishes early and the harness restarts it, as in the
	// paper's 2.5-minute runs).
	Reset()
	// Spec returns the generating spec.
	Spec() Spec
	// Clone returns an independent generator in exactly this one's
	// state: both produce the same stream from here on, and advancing
	// either never moves the other. Immutable tables are shared.
	Clone() Generator
}

// rng is a math/rand generator that can be cloned exactly. rand.Rand
// keeps no state of its own beyond its source (Read's buffer aside, which
// the generators never use), so copying the source copies the generator.
type rng struct {
	*rand.Rand
	src rand.Source
}

func newRNG(seed int64) rng {
	src := rand.NewSource(seed)
	return rng{rand.New(src), src}
}

// clone copies the source's state. The standard source is a pointer to
// a flat struct of integers (its lagged Fibonacci state), so copying the
// pointed-to value copies the state exactly.
func (r rng) clone() rng {
	v := reflect.ValueOf(r.src).Elem()
	c := reflect.New(v.Type())
	c.Elem().Set(v)
	src := c.Interface().(rand.Source)
	return rng{rand.New(src), src}
}

// New builds the generator for a spec. It returns an error if the spec is
// invalid.
func New(s Spec, seed int64) (Generator, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	switch s.Pattern {
	case Stream:
		return newStream(s), nil
	case Strided:
		return newStrided(s), nil
	case RandomLine:
		return newRandomLine(s, seed), nil
	case PointerChase:
		return newChase(s, seed), nil
	case RandBurst:
		return newRandBurst(s, seed), nil
	case Compute:
		return newCompute(s, seed), nil
	case Phased:
		return newPhased(s, seed), nil
	default:
		return nil, fmt.Errorf("workload %s: unknown pattern %d", s.Name, s.Pattern)
	}
}

// streamGen interleaves Streams sequential walks over disjoint subregions.
type streamGen struct {
	spec Spec
	pos  []uint64
	base []uint64
	size uint64
	turn int
}

func newStream(s Spec) *streamGen {
	n := s.Streams
	if n < 1 {
		n = 1
	}
	g := &streamGen{spec: s, pos: make([]uint64, n), base: make([]uint64, n)}
	g.size = uint64(s.WorkingSet) / uint64(n)
	if g.size < uint64(s.StepBytes) {
		g.size = uint64(s.StepBytes)
	}
	for i := range g.base {
		g.base[i] = uint64(i) * g.size
	}
	return g
}

func (g *streamGen) Next() (uint64, uint64) {
	i := g.turn
	g.turn++
	if g.turn == len(g.pos) {
		g.turn = 0
	}
	addr := g.base[i] + g.pos[i]
	g.pos[i] += uint64(g.spec.StepBytes)
	if g.pos[i] >= g.size {
		g.pos[i] = 0
	}
	return uint64(0x400000 + i*64), addr
}

func (g *streamGen) Reset() {
	for i := range g.pos {
		g.pos[i] = 0
	}
	g.turn = 0
}

func (g *streamGen) Spec() Spec { return g.spec }

// base is fixed after construction and shared.
func (g *streamGen) Clone() Generator { return g.clone() }

func (g *streamGen) clone() *streamGen {
	c := *g
	c.pos = append([]uint64(nil), g.pos...)
	return &c
}

// stridedGen steps by a fixed stride, wrapping within the working set.
type stridedGen struct {
	spec Spec
	pos  int64
}

func newStrided(s Spec) *stridedGen { return &stridedGen{spec: s} }

func (g *stridedGen) Next() (uint64, uint64) {
	addr := uint64(g.pos)
	g.pos += g.spec.StrideBytes
	if g.pos >= g.spec.WorkingSet {
		g.pos -= g.spec.WorkingSet
	}
	if g.pos < 0 {
		g.pos += g.spec.WorkingSet
	}
	return 0x500000, addr
}

func (g *stridedGen) Reset()           { g.pos = 0 }
func (g *stridedGen) Spec() Spec       { return g.spec }
func (g *stridedGen) Clone() Generator { c := *g; return &c }

// randomLineGen touches uniform random lines, occasionally (Locality) the
// adjacent line right after.
type randomLineGen struct {
	spec    Spec
	rng     rng
	seed    int64
	lines   int64
	pending uint64 // adjacent-line follow-up, 0 when none
}

func newRandomLine(s Spec, seed int64) *randomLineGen {
	return &randomLineGen{
		spec:  s,
		rng:   newRNG(seed),
		seed:  seed,
		lines: s.WorkingSet / LineBytes,
	}
}

func (g *randomLineGen) Next() (uint64, uint64) {
	if g.pending != 0 {
		a := g.pending
		g.pending = 0
		return 0x600040, a
	}
	line := g.rng.Int63n(g.lines)
	addr := uint64(line) * LineBytes
	if g.spec.Locality > 0 && g.rng.Float64() < g.spec.Locality {
		g.pending = addr + LineBytes
	}
	return 0x600000, addr
}

func (g *randomLineGen) Reset() {
	g.rng = newRNG(g.seed)
	g.pending = 0
}

func (g *randomLineGen) Spec() Spec { return g.spec }

func (g *randomLineGen) Clone() Generator { return g.clone() }

func (g *randomLineGen) clone() *randomLineGen {
	c := *g
	c.rng = g.rng.clone()
	return &c
}

// chaseGen follows a random permutation of the working set's lines —
// dependent accesses with full reuse each lap.
type chaseGen struct {
	spec Spec
	perm []uint32
	cur  uint32
}

func newChase(s Spec, seed int64) *chaseGen {
	n := s.WorkingSet / LineBytes
	if n < 2 {
		n = 2
	}
	r := rand.New(rand.NewSource(seed))
	// Build a single cycle (Sattolo's algorithm) so the chase visits
	// every line before any reuse.
	perm := make([]uint32, n)
	order := r.Perm(int(n))
	for i := 0; i < int(n)-1; i++ {
		perm[order[i]] = uint32(order[i+1])
	}
	perm[order[n-1]] = uint32(order[0])
	return &chaseGen{spec: s, perm: perm}
}

func (g *chaseGen) Next() (uint64, uint64) {
	addr := uint64(g.cur) * LineBytes
	g.cur = g.perm[g.cur]
	return 0x700000, addr
}

func (g *chaseGen) Reset()     { g.cur = 0 }
func (g *chaseGen) Spec() Spec { return g.spec }

// perm is fixed after construction and shared.
func (g *chaseGen) Clone() Generator { c := *g; return &c }

// randBurstGen is the paper's Rand Access microbenchmark: random jumps
// followed by short ascending line runs that train the streamer into
// issuing useless prefetches.
type randBurstGen struct {
	spec  Spec
	rng   rng
	seed  int64
	lines int64
	line  int64
	left  int
}

func newRandBurst(s Spec, seed int64) *randBurstGen {
	return &randBurstGen{
		spec:  s,
		rng:   newRNG(seed),
		seed:  seed,
		lines: s.WorkingSet / LineBytes,
	}
}

func (g *randBurstGen) Next() (uint64, uint64) {
	if g.left == 0 {
		g.line = g.rng.Int63n(g.lines)
		g.left = g.spec.Burst
	}
	addr := uint64(g.line) * LineBytes
	g.line++
	if g.line >= g.lines {
		g.line = 0
	}
	g.left--
	return 0x800000, addr
}

func (g *randBurstGen) Reset() {
	g.rng = newRNG(g.seed)
	g.left = 0
}

func (g *randBurstGen) Spec() Spec { return g.spec }

func (g *randBurstGen) Clone() Generator {
	c := *g
	c.rng = g.rng.clone()
	return &c
}

// computeGen loops over a tiny buffer with slight randomness in the PC to
// mimic a compute-bound kernel's sparse loads.
type computeGen struct {
	spec Spec
	pos  uint64
}

func newCompute(s Spec, seed int64) *computeGen { return &computeGen{spec: s} }

func (g *computeGen) Next() (uint64, uint64) {
	addr := g.pos
	g.pos += 32
	if g.pos >= uint64(g.spec.WorkingSet) {
		g.pos = 0
	}
	return 0x900000, addr
}

func (g *computeGen) Reset()           { g.pos = 0 }
func (g *computeGen) Spec() Spec       { return g.spec }
func (g *computeGen) Clone() Generator { c := *g; return &c }

// phasedGen alternates between a streaming sub-generator and a random
// sub-generator every PhaseRefs references.
type phasedGen struct {
	spec   Spec
	stream *streamGen
	random *randomLineGen
	count  int
	inRand bool
}

func newPhased(s Spec, seed int64) *phasedGen {
	streamSpec := s
	streamSpec.Pattern = Stream
	randSpec := s
	randSpec.Pattern = RandomLine
	// The quiet phase stays cache-resident: random reuse over a small
	// slice of the working set generates no memory pressure.
	if randSpec.WorkingSet > 256<<10 {
		randSpec.WorkingSet = 256 << 10
	}
	return &phasedGen{
		spec:   s,
		stream: newStream(streamSpec),
		random: newRandomLine(randSpec, seed),
	}
}

func (g *phasedGen) Next() (uint64, uint64) {
	if g.count >= g.spec.PhaseRefs {
		g.count = 0
		g.inRand = !g.inRand
	}
	g.count++
	if g.inRand {
		return g.random.Next()
	}
	return g.stream.Next()
}

func (g *phasedGen) Reset() {
	g.stream.Reset()
	g.random.Reset()
	g.count = 0
	g.inRand = false
}

func (g *phasedGen) Spec() Spec { return g.spec }

func (g *phasedGen) Clone() Generator {
	c := *g
	c.stream = g.stream.clone()
	c.random = g.random.clone()
	return &c
}
