package cmm

import (
	"fmt"
	"sort"

	"cmm/internal/cat"
	"cmm/internal/kmeans"
	"cmm/internal/metrics"
	"cmm/internal/msr"
	"cmm/internal/pmu"
)

// Decision records what a policy programmed for the next execution epoch;
// the controller keeps these for inspection and the examples print them.
type Decision struct {
	// Policy is the back end that produced the decision.
	Policy string
	// Detection is the front end's analysis for the epoch.
	Detection Detection
	// Friendly and Unfriendly partition the Agg set where the policy
	// measured prefetch usefulness (nil otherwise).
	Friendly, Unfriendly []int
	// Disabled lists cores whose prefetchers are off for the next epoch.
	Disabled []int
	// Plan is the CAT partitioning programmed (nil when untouched).
	Plan *cat.Plan
	// SampledCombos counts every sampling interval the epoch ran: the
	// probe, the prefetch-off split interval, prefetch combinations and
	// MBA levels alike.
	SampledCombos int
	// BestScore is the hm_ipc of the chosen prefetch combination (0 if
	// none). CP+BW searches no combinations and records its MBA speedup
	// (MBAGain) here instead.
	BestScore float64
	// FellBackToDunn reports the Agg-empty fallback (Fig. 6(d)).
	FellBackToDunn bool
	// MBAThrottled lists the cores the CBP policies' profiled bandwidth
	// partition MBA-limits, with MBAPercent the programmed delay value.
	MBAThrottled []int
	MBAPercent   uint64
	// MBALevels is the per-core MBA delay level programmed for the next
	// epoch (nil when the policy left bandwidth partitioning untouched).
	// The CBP policies fill it after sampling the level grid.
	MBALevels []uint64
	// MBAGain is the profiled harmonic-mean speedup of the applied
	// bandwidth partition over the unthrottled baseline (1 when no
	// throttling was applied; 0 when the policy does not profile MBA).
	MBAGain float64
	// Predicted reports that the throttle set came from a learned model
	// (CMM-L) instead of combo sampling; PredConfidence is the model's
	// lowest per-core confidence over the Agg set for the epoch (also set
	// on fallbacks, where it is the confidence that failed the threshold).
	Predicted      bool
	PredConfidence float64
	// LearnFallback reports that a learned policy ran but fell back to
	// the sampling path for this epoch; the decision then doubles as a
	// fresh training example (internal/learn harvests it).
	LearnFallback bool
	// ShadowAudit reports a drift-monitor audit epoch: the model was
	// confident, but the full sampling path ran anyway and its decision
	// was applied, with the prediction only compared against it.
	ShadowAudit bool
	// LearnDemoted marks the single epoch whose drift observation tripped
	// auto-demotion to CMM-a; the demoted state itself is sticky and
	// visible via Learned.DriftStats, not repeated on later decisions.
	LearnDemoted bool
	// CoreNode maps each core to its NUMA node and NodeAgg counts the
	// detected Agg cores per node, so decisions stay attributable on
	// multi-node geometries. Both are nil on single-node targets.
	CoreNode []int
	NodeAgg  []int
}

// Policy is one CMM back end. Epoch runs the profiling phase (sampling
// intervals) and programs the machine for the next execution epoch.
type Policy interface {
	// Name identifies the policy in reports ("PT", "Pref-CP", "CMM-a"...).
	Name() string
	// Epoch consumes the finished execution epoch's samples, profiles as
	// needed, and applies a resource allocation. The exec slice is a
	// reused buffer owned by the caller: implementations must not retain
	// it (or subslices of it) past the call.
	Epoch(t Target, cfg Config, exec []pmu.Sample) (Decision, error)
	// Clone returns an independent instance for one run. The experiment
	// engine executes many runs of the same policy concurrently, so two
	// runs must never alias mutable policy state: implementations that
	// accumulate sampling or profiling state across epochs must deep-copy
	// it here. Stateless value policies simply return themselves.
	Clone() Policy
}

// targetBank adapts a Target to msr.Bank so cat.Allocator can program CAT
// through the same register path the policies use.
type targetBank struct{ t Target }

func (b targetBank) Read(cpu int, reg uint32) (uint64, error)  { return b.t.ReadMSR(cpu, reg) }
func (b targetBank) Write(cpu int, reg uint32, v uint64) error { return b.t.WriteMSR(cpu, reg, v) }
func (b targetBank) NumCPU() int                               { return b.t.NumCores() }

// allocatorFor returns a CAT allocator driving the target.
func allocatorFor(t Target) *cat.Allocator {
	return cat.NewAllocator(t.CATConfig(), targetBank{t})
}

// setPrefetchers programs every core's MiscFeatureControl: cores in the
// disabled set get all four prefetchers off, everyone else on.
func setPrefetchers(t Target, disabled []int) error {
	for c := 0; c < t.NumCores(); c++ {
		v := uint64(0)
		if containsInt(disabled, c) {
			v = msr.DisableAll
		}
		if err := t.WriteMSR(c, msr.MiscFeatureControl, v); err != nil {
			return fmt.Errorf("cmm: program prefetchers of core %d: %w", c, err)
		}
	}
	return nil
}

// resetCAT restores all cores to CLOS0 with a full-cache mask.
func resetCAT(t Target) error {
	a := allocatorFor(t)
	plan := cat.NewPlan(t.NumCores(), t.CATConfig().FullMask())
	return a.Apply(plan)
}

// Baseline is the paper's baseline: all prefetchers enabled, no prefetch
// control, no cache partitioning.
type Baseline struct{}

// Name implements Policy.
func (Baseline) Name() string { return "baseline" }

// Clone implements Policy; Baseline is stateless.
func (p Baseline) Clone() Policy { return p }

// Epoch implements Policy: it (re)asserts the reset state.
func (Baseline) Epoch(t Target, cfg Config, exec []pmu.Sample) (Decision, error) {
	if err := setPrefetchers(t, nil); err != nil {
		return Decision{}, err
	}
	if err := resetCAT(t); err != nil {
		return Decision{}, err
	}
	return Decision{Policy: "baseline"}, nil
}

// entity is a unit of throttling: one core, or one K-Means group of cores
// with similar L2 PTR (group-level throttling for large Agg sets).
type entity struct {
	Cores []int
}

// entityScratch builds throttle entities: individual cores when few,
// K-Means groups by L2 PTR (M-3) otherwise. Its reusable buffers keep a
// stateful policy's per-epoch grouping allocation-free as Agg sets grow to
// 30+ cores. The returned entities (and their Cores slices)
// alias the scratch: they are valid until the next entities call and must
// be copied if retained across epochs. The zero value is ready to use.
type entityScratch struct {
	km      kmeans.Scratch
	pts     []float64
	coreBuf []int
	cnt     []int
	off     []int
	ents    []entity
}

func growEntities(buf []entity, n int) []entity {
	if cap(buf) < n {
		return make([]entity, n)
	}
	return buf[:n]
}

func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// individual fills the scratch with one entity per core.
func (s *entityScratch) individual(cores []int) []entity {
	n := len(cores)
	s.coreBuf = growInts(s.coreBuf, n)
	s.ents = growEntities(s.ents, n)
	for i, c := range cores {
		s.coreBuf[i] = c
		s.ents[i] = entity{Cores: s.coreBuf[i : i+1 : i+1]}
	}
	return s.ents
}

// entities groups the cores, keeping Agg order within a group; no
// allocation in steady state.
func (s *entityScratch) entities(cores []int, ptr []float64, cfg Config) []entity {
	n := len(cores)
	if n <= cfg.MaxIndividual {
		return s.individual(cores)
	}
	k := cfg.Groups
	if k > n {
		k = n
	}
	s.pts = growFloats(s.pts, n)
	for i, c := range cores {
		s.pts[i] = ptr[c]
	}
	res, err := s.km.Cluster(s.pts, k)
	if err != nil {
		// Unreachable for k<=n, but degrade to one entity per core.
		return s.individual(cores)
	}
	kk := res.K()
	s.cnt = growInts(s.cnt, kk)
	s.off = growInts(s.off, kk)
	for g := 0; g < kk; g++ {
		s.cnt[g] = 0
	}
	for i := 0; i < n; i++ {
		s.cnt[res.Assign[i]]++
	}
	off := 0
	for g := 0; g < kk; g++ {
		s.off[g] = off
		off += s.cnt[g]
	}
	s.coreBuf = growInts(s.coreBuf, n)
	s.ents = growEntities(s.ents, kk)
	for g := 0; g < kk; g++ {
		start := s.off[g]
		s.ents[g] = entity{Cores: s.coreBuf[start : start : start+s.cnt[g]]}
	}
	for i, c := range cores {
		g := res.Assign[i]
		s.ents[g].Cores = append(s.ents[g].Cores, c)
	}
	// Drop empty groups (possible when identical PTRs collapse).
	j := 0
	for g := 0; g < kk; g++ {
		if len(s.ents[g].Cores) > 0 {
			s.ents[j] = s.ents[g]
			j++
		}
	}
	return s.ents[:j]
}

// comboGate caches a coordinated policy's profiled decision — the
// friendliness split and the winning prefetch combination — across epochs.
// The cache is keyed on the detected Agg set and expires after
// Config.ComboRefreshEpochs epochs; while fresh, an epoch costs only the
// detection probe instead of the split interval plus the 2^entities combo
// search, which is what keeps profiling sublinear in cores on many-core
// geometries.
//
// The key comparison has hysteresis: on many-core machines one or two
// cores hover at the detection threshold and cross it every epoch, and
// without tolerance each crossing would force a full re-profile,
// defeating the amortization. A drift of less than 1/8 of the cached Agg
// set reasserts the cached decision (the partition plan still follows the
// live Agg set; only the split and combo are reused). Integer division
// makes sets smaller than 8 cores require exact equality, so the paper's
// 8-core machine never reuses across a changed set. The zero value has
// nothing cached.
type comboGate struct {
	agg        []int
	friendly   []int
	unfriendly []int
	disabled   []int
	score      float64
	age        int
	valid      bool
}

// comboRefresh returns the effective refresh period (>= 1).
func comboRefresh(cfg Config) int {
	if cfg.ComboRefreshEpochs < 1 {
		return 1
	}
	return cfg.ComboRefreshEpochs
}

// fresh reports whether the cached decision may be reused for the given
// Agg set: young enough, and drifted by less than an eighth of the cached
// set (DetectAgg emits cores ascending, so a merge walk computes the
// symmetric difference).
func (g *comboGate) fresh(cfg Config, agg []int) bool {
	return g.valid && g.age < comboRefresh(cfg) && aggDrift(g.agg, agg) <= len(g.agg)/8
}

// aggDrift returns the size of the symmetric difference of two ascending
// core lists.
func aggDrift(a, b []int) int {
	d, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] < b[j]:
			d++
			i++
		default:
			d++
			j++
		}
	}
	return d + (len(a) - i) + (len(b) - j)
}

// store caches a freshly profiled decision. The inputs are copied: callers
// hand over slices that may be scratch-backed or retained in decisions.
func (g *comboGate) store(agg, friendly, unfriendly, disabled []int, score float64) {
	g.agg = append(g.agg[:0], agg...)
	g.friendly = append(g.friendly[:0], friendly...)
	g.unfriendly = append(g.unfriendly[:0], unfriendly...)
	g.disabled = append(g.disabled[:0], disabled...)
	g.score = score
	g.age = 1
	g.valid = true
}

// reset drops the cache (quiet epochs, or a Clone's fresh start).
func (g *comboGate) reset() { *g = comboGate{} }

// disabledFor expands a combo bitmask over entities into the sorted list
// of cores whose prefetchers are off (bit i set = entity i throttled).
func disabledFor(ents []entity, combo uint) []int {
	var cores []int
	for i, e := range ents {
		if combo&(1<<uint(i)) != 0 {
			cores = append(cores, e.Cores...)
		}
	}
	sort.Ints(cores)
	return cores
}

// comboSearch profiles prefetch on/off combinations of the entities, each
// for one sampling interval, scoring by hm_ipc (the paper's proxy for
// ANTT). Combo 0 (all on) is sampled first — the paper always starts with
// an all-on interval so PMU statistics reflect full prefetching — and the
// all-off combo second, which also yields the per-core IPC-without-
// prefetching needed for the friendliness split. It returns the best
// combo, its score, the on/off IPC vectors, and how many intervals ran.
func comboSearch(t Target, cfg Config, ents []entity) (best uint, bestScore float64, ipcOn, ipcOff []float64, sampled int, err error) {
	nCombos := uint(1) << uint(len(ents))
	allOff := nCombos - 1

	order := make([]uint, 0, nCombos)
	order = append(order, 0)
	if allOff != 0 {
		order = append(order, allOff)
	}
	for c := uint(1); c < nCombos; c++ {
		if c != allOff {
			order = append(order, c)
		}
	}

	// Scratch reused across combos; only the on/off IPC vectors escape,
	// as copies.
	var (
		snaps []pmu.Snapshot
		samps []pmu.Sample
		ipcs  []float64
	)
	best, bestScore = 0, -1.0
	for _, combo := range order {
		if err := setPrefetchers(t, disabledFor(ents, combo)); err != nil {
			return 0, 0, nil, nil, sampled, err
		}
		snaps = snapshotsInto(snaps, t)
		t.RunCycles(cfg.SamplingInterval)
		samps = deltasInto(samps, t, snaps)
		ipcs = ipcsInto(ipcs, samps)
		switch combo {
		case 0:
			ipcOn = append([]float64(nil), ipcs...)
		case allOff:
			ipcOff = append([]float64(nil), ipcs...)
		}
		if score := metrics.HarmonicMeanIPC(ipcs); score > bestScore {
			best, bestScore = combo, score
		}
		sampled++
	}
	return best, bestScore, ipcOn, ipcOff, sampled, nil
}

// PT is the prefetch-throttling back end (Sec. III-B1): profile on/off
// combinations of the Agg cores' prefetchers and keep the best by hm_ipc.
// It never touches cache partitioning.
type PT struct{}

// Name implements Policy.
func (PT) Name() string { return "PT" }

// Clone implements Policy; PT keeps all sampling state within one Epoch
// call, so a value copy is a fully independent instance.
func (p PT) Clone() Policy { return p }

// Epoch implements Policy.
func (PT) Epoch(t Target, cfg Config, exec []pmu.Sample) (Decision, error) {
	_, dec, err := probe(t, cfg, "PT")
	if err != nil {
		return Decision{}, err
	}
	det := dec.Detection
	if len(det.Agg) == 0 {
		return dec, nil // nothing aggressive: leave prefetchers on
	}

	var scratch entityScratch
	ents := scratch.entities(det.Agg, det.PTR, cfg)
	best, score, ipcOn, ipcOff, sampled, err := comboSearch(t, cfg, ents)
	if err != nil {
		return Decision{}, err
	}
	dec.SampledCombos = sampled + 1
	dec.BestScore = score
	if ipcOn != nil && ipcOff != nil {
		dec.Friendly, dec.Unfriendly = SplitFriendly(det.Agg, ipcOn, ipcOff, cfg.FriendlyThreshold)
	}
	dec.Disabled = disabledFor(ents, best)
	if err := setPrefetchers(t, dec.Disabled); err != nil {
		return Decision{}, err
	}
	return dec, nil
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
