package cmm

import (
	"math"
	"testing"

	"cmm/internal/cat"
	"cmm/internal/msr"
	"cmm/internal/pmu"
)

func mkSample(cycles, instr, dmReq, prefReq, prefMiss, dmMiss, l3PrefMiss uint64) pmu.Sample {
	var s pmu.Sample
	s.Set(pmu.Cycles, cycles)
	s.Set(pmu.Instructions, instr)
	s.Set(pmu.L2DmReq, dmReq)
	s.Set(pmu.L2PrefReq, prefReq)
	s.Set(pmu.L2PrefMiss, prefMiss)
	s.Set(pmu.L2DmMiss, dmMiss)
	s.Set(pmu.L3PrefMiss, l3PrefMiss)
	return s
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	mut := []func(*Config){
		func(c *Config) { c.ExecutionEpoch = 0 },
		func(c *Config) { c.SamplingInterval = 0 },
		func(c *Config) { c.SamplingInterval = c.ExecutionEpoch + 1 },
		func(c *Config) { c.PMRThreshold = 1.5 },
		func(c *Config) { c.PTRThreshold = -1 },
		func(c *Config) { c.FriendlyThreshold = -0.1 },
		func(c *Config) { c.MaxIndividual = 0 },
		func(c *Config) { c.Groups = 0 },
		func(c *Config) { c.PartitionFactor = 0 },
	}
	for i, m := range mut {
		cfg := DefaultConfig()
		m(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestDetectAggThreeSteps(t *testing.T) {
	cfg := DefaultConfig()
	ghz := 2.1
	cyc := uint64(2_100_000_000) // one second
	samples := []pmu.Sample{
		// Core 0: high PGA, PMR 1, PTR 100M/s, LLC PT 100M/s → Agg.
		mkSample(cyc, cyc, 1000, 100_000_000, 100_000_000, 500, 100_000_000),
		// Core 1: high PGA but prefetches hit L2 (PMR ~0) → filtered.
		mkSample(cyc, cyc, 1000, 100_000_000, 400, 500, 0),
		// Core 2: high PGA, PMR 1, but trickle PTR (1000/s) → filtered.
		mkSample(cyc, cyc, 1000, 1000, 1000, 500, 1000),
		// Core 3: PGA/PMR/PTR high but prefetches all hit LLC (LLC PT
		// ~0): a cache-resident hot loop, not a memory aggressor.
		mkSample(cyc, cyc, 1000, 100_000_000, 100_000_000, 500, 0),
		// Core 4: meek (PGA ~0) → not a candidate.
		mkSample(cyc, cyc, 1000, 0, 0, 500, 0),
	}
	det := DetectAgg(samples, ghz, cfg)
	if len(det.Agg) != 1 || det.Agg[0] != 0 {
		t.Fatalf("Agg = %v, want [0]; PGA=%v PMR=%v PTR=%v LLCPT=%v mean=%g",
			det.Agg, det.PGA, det.PMR, det.PTR, det.LLCPT, det.MeanPGA)
	}
	if !det.InAgg(0) || det.InAgg(3) {
		t.Fatal("InAgg broken")
	}
}

func TestDetectAggPGAMeanFraction(t *testing.T) {
	cfg := DefaultConfig()
	cyc := uint64(2_100_000_000)
	// Uniform aggressive cores: with the fractional candidate rule they
	// all qualify (they are all above 0.6× their common mean).
	s := mkSample(cyc, cyc, 1000, 100_000_000, 100_000_000, 500, 100_000_000)
	det := DetectAgg([]pmu.Sample{s, s, s, s}, 2.1, cfg)
	if len(det.Agg) != 4 {
		t.Fatalf("uniform aggressive cores: Agg=%v, want all 4", det.Agg)
	}
	// A core far below the mean PGA is excluded even with high traffic:
	// low = PGA 0.1 vs others at 100.
	low := mkSample(cyc, cyc, 1_000_000_000, 100_000_000, 100_000_000, 500, 100_000_000)
	hi := mkSample(cyc, cyc, 1_000_000, 100_000_000, 100_000_000, 500, 100_000_000)
	det = DetectAgg([]pmu.Sample{low, hi, hi, hi}, 2.1, cfg)
	if det.InAgg(0) {
		t.Fatalf("low-PGA core detected: %v (PGA=%v mean=%g)", det.Agg, det.PGA, det.MeanPGA)
	}
	if len(det.Agg) != 3 {
		t.Fatalf("Agg=%v, want the three high-PGA cores", det.Agg)
	}
}

func TestDetectAggEmptyInput(t *testing.T) {
	det := DetectAgg(nil, 2.1, DefaultConfig())
	if len(det.Agg) != 0 || det.MeanPGA != 0 {
		t.Fatal("empty input mishandled")
	}
}

func TestSplitFriendly(t *testing.T) {
	ipcOn := []float64{2.0, 1.0, 0.0, 1.2}
	ipcOff := []float64{1.0, 1.1, 0.5, 0}
	fr, un := SplitFriendly([]int{0, 1, 2, 3}, ipcOn, ipcOff, 0.5)
	if len(fr) != 1 || fr[0] != 0 {
		t.Fatalf("friendly = %v, want [0]", fr)
	}
	// Core 1: slowdown; core 2: zero on-IPC; core 3: unmeasurable off
	// IPC → unfriendly.
	if len(un) != 3 {
		t.Fatalf("unfriendly = %v", un)
	}
}

func TestEntitiesIndividualAndGrouped(t *testing.T) {
	cfg := DefaultConfig()
	ptr := []float64{10, 20, 30, 1000, 1100, 900, 5000, 5100}
	var s entityScratch
	ents := s.entities([]int{0, 1, 2}, ptr, cfg)
	if len(ents) != 3 {
		t.Fatalf("small set: %d entities, want 3", len(ents))
	}
	ents = s.entities([]int{0, 1, 2, 3, 4, 5, 6, 7}, ptr, cfg)
	if len(ents) > cfg.Groups {
		t.Fatalf("large set: %d entities, want <= %d", len(ents), cfg.Groups)
	}
	// Cores with similar PTR must share a group.
	groupOf := map[int]int{}
	for g, e := range ents {
		for _, c := range e.Cores {
			groupOf[c] = g
		}
	}
	if groupOf[0] != groupOf[1] || groupOf[3] != groupOf[4] || groupOf[6] != groupOf[7] {
		t.Fatalf("similar-PTR cores split: %v", groupOf)
	}
	if groupOf[0] == groupOf[6] {
		t.Fatalf("dissimilar cores merged: %v", groupOf)
	}
}

func TestDisabledFor(t *testing.T) {
	ents := []entity{{Cores: []int{5, 1}}, {Cores: []int{3}}}
	if got := disabledFor(ents, 0); got != nil {
		t.Fatalf("combo 0 = %v", got)
	}
	got := disabledFor(ents, 0b01)
	if len(got) != 2 || got[0] != 1 || got[1] != 5 {
		t.Fatalf("combo 1 = %v", got)
	}
	got = disabledFor(ents, 0b11)
	if len(got) != 3 || got[2] != 5 {
		t.Fatalf("combo 3 = %v", got)
	}
}

func TestAggWays(t *testing.T) {
	cfg := DefaultConfig()
	catCfg := cat.DefaultConfig()
	if got := aggWays(cfg, catCfg, 2); got != 3 {
		t.Fatalf("aggWays(2) = %d, want 3 (1.5x)", got)
	}
	if got := aggWays(cfg, catCfg, 1); got != cat.MinWays {
		t.Fatalf("aggWays(1) = %d, want MinWays", got)
	}
	if got := aggWays(cfg, catCfg, 100); got != catCfg.Ways-cat.MinWays {
		t.Fatalf("aggWays(100) = %d, want clamp", got)
	}
}

func TestPTThrottlesHarmfulPrefetcher(t *testing.T) {
	// Core 0: prefetch-unfriendly aggressor hurting cores 1,2.
	// Cores 1,2: victims. PT must turn core 0's prefetchers off.
	ft := newFakeTarget([]fakeCore{
		{ipcOn: 0.5, ipcOff: 0.6, aggressive: true, victimPenalty: 0.4},
		{ipcOn: 1.0, ipcOff: 1.0},
		{ipcOn: 1.0, ipcOff: 1.0},
	})
	c, err := NewController(DefaultConfig(), ft, PT{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunEpochs(1); err != nil {
		t.Fatal(err)
	}
	d := c.LastDecision()
	if len(d.Detection.Agg) != 1 || d.Detection.Agg[0] != 0 {
		t.Fatalf("Agg = %v, want [0]", d.Detection.Agg)
	}
	if len(d.Disabled) != 1 || d.Disabled[0] != 0 {
		t.Fatalf("Disabled = %v, want [0]", d.Disabled)
	}
	if ft.prefetchOn(0) {
		t.Fatal("core 0 prefetchers still on after PT epoch")
	}
	if !ft.prefetchOn(1) || !ft.prefetchOn(2) {
		t.Fatal("victim cores throttled")
	}
}

func TestPTKeepsHelpfulPrefetcher(t *testing.T) {
	// Core 0 is aggressive but strongly friendly and harmless: best combo
	// keeps it on.
	ft := newFakeTarget([]fakeCore{
		{ipcOn: 2.0, ipcOff: 0.8, aggressive: true, victimPenalty: 0},
		{ipcOn: 1.0, ipcOff: 1.0},
	})
	c, err := NewController(DefaultConfig(), ft, PT{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunEpochs(1); err != nil {
		t.Fatal(err)
	}
	d := c.LastDecision()
	if len(d.Disabled) != 0 {
		t.Fatalf("Disabled = %v, want none", d.Disabled)
	}
	if !containsInt(d.Friendly, 0) {
		t.Fatalf("core 0 not detected friendly: %+v", d)
	}
	if !ft.prefetchOn(0) {
		t.Fatal("friendly core throttled")
	}
}

func TestPTWeighsHarmAgainstBenefit(t *testing.T) {
	// Core 0 gains hugely from prefetching but also hurts cores 1-2
	// moderately; hm_ipc should still keep it on because its own loss
	// would dominate.
	ft := newFakeTarget([]fakeCore{
		{ipcOn: 2.0, ipcOff: 0.3, aggressive: true, victimPenalty: 0.1},
		{ipcOn: 1.0, ipcOff: 1.0},
		{ipcOn: 1.0, ipcOff: 1.0},
	})
	c, _ := NewController(DefaultConfig(), ft, PT{})
	if err := c.RunEpochs(1); err != nil {
		t.Fatal(err)
	}
	if !ft.prefetchOn(0) {
		t.Fatal("high-benefit core throttled for moderate interference")
	}
}

func TestPTEmptyAggLeavesEverythingOn(t *testing.T) {
	ft := newFakeTarget([]fakeCore{
		{ipcOn: 1, ipcOff: 1}, {ipcOn: 1, ipcOff: 1},
	})
	c, _ := NewController(DefaultConfig(), ft, PT{})
	if err := c.RunEpochs(1); err != nil {
		t.Fatal(err)
	}
	d := c.LastDecision()
	if len(d.Detection.Agg) != 0 || len(d.Disabled) != 0 {
		t.Fatalf("unexpected decision %+v", d)
	}
	if d.SampledCombos != 1 {
		t.Fatalf("sampled %d combos for empty Agg, want 1", d.SampledCombos)
	}
}

func TestComboSearchSamplesAllCombos(t *testing.T) {
	ft := newFakeTarget([]fakeCore{
		{ipcOn: 0.5, ipcOff: 0.9, aggressive: true, victimPenalty: 0.2},
		{ipcOn: 0.5, ipcOff: 0.9, aggressive: true, victimPenalty: 0.2},
		{ipcOn: 1.0, ipcOff: 1.0},
	})
	ents := []entity{{Cores: []int{0}}, {Cores: []int{1}}}
	best, score, ipcOn, ipcOff, sampled, err := comboSearch(ft, DefaultConfig(), ents)
	if err != nil {
		t.Fatal(err)
	}
	if sampled != 4 {
		t.Fatalf("sampled %d combos, want 4", sampled)
	}
	if best != 0b11 {
		t.Fatalf("best combo %#b, want both off", best)
	}
	if score <= 0 {
		t.Fatal("no score")
	}
	if len(ipcOn) != 3 || len(ipcOff) != 3 {
		t.Fatal("missing IPC vectors")
	}
	if !(ipcOff[2] > ipcOn[2]) {
		t.Fatalf("victim IPC did not improve: on=%g off=%g", ipcOn[2], ipcOff[2])
	}
}

func TestDunnBuildsNestedPlan(t *testing.T) {
	ft := newFakeTarget([]fakeCore{
		{ipcOn: 0.2, ipcOff: 0.2}, // heavy stalls
		{ipcOn: 0.21, ipcOff: 0.21},
		{ipcOn: 2.0, ipcOff: 2.0}, // light stalls
		{ipcOn: 2.05, ipcOff: 2.05},
	})
	c, _ := NewController(DefaultConfig(), ft, Dunn{})
	if err := c.RunEpochs(1); err != nil {
		t.Fatal(err)
	}
	d := c.LastDecision()
	if d.Plan == nil {
		t.Fatal("Dunn produced no plan")
	}
	// Stall-heavy cores (0,1) must have at least as many ways as the
	// light ones, and all masks must be nested (start at way 0).
	heavy := d.Plan.Masks[d.Plan.ClosByCore[0]]
	light := d.Plan.Masks[d.Plan.ClosByCore[2]]
	if popcount(heavy) < popcount(light) {
		t.Fatalf("heavy-stall mask %#x smaller than light %#x", heavy, light)
	}
	for clos, m := range d.Plan.Masks {
		if m&1 == 0 {
			t.Fatalf("CLOS %d mask %#x not nested at way 0", clos, m)
		}
	}
	if light&heavy != light {
		t.Fatalf("masks not nested: %#x vs %#x", light, heavy)
	}
}

func TestPrefCPPartitionsAggSet(t *testing.T) {
	ft := newFakeTarget([]fakeCore{
		{ipcOn: 0.5, ipcOff: 0.5, aggressive: true},
		{ipcOn: 0.5, ipcOff: 0.5, aggressive: true},
		{ipcOn: 1, ipcOff: 1},
		{ipcOn: 1, ipcOff: 1},
	})
	c, _ := NewController(DefaultConfig(), ft, PrefCP{})
	if err := c.RunEpochs(1); err != nil {
		t.Fatal(err)
	}
	d := c.LastDecision()
	if d.Plan == nil {
		t.Fatal("no plan")
	}
	if len(d.Detection.Agg) != 2 {
		t.Fatalf("Agg = %v", d.Detection.Agg)
	}
	aggClos := d.Plan.ClosByCore[0]
	if aggClos == 0 {
		t.Fatal("agg core left in CLOS0")
	}
	// 1.5 * 2 = 3 ways.
	if got := popcount(d.Plan.Masks[aggClos]); got != 3 {
		t.Fatalf("agg partition %d ways, want 3", got)
	}
	// Neutral cores keep the full mask (overlapping partitioning).
	if d.Plan.ClosByCore[2] != 0 {
		t.Fatal("neutral core moved out of CLOS0")
	}
	full := cat.DefaultConfig().FullMask()
	if d.Plan.Masks[0] != full {
		t.Fatalf("CLOS0 mask %#x, want full", d.Plan.Masks[0])
	}
	// Partition nested inside full mask.
	if d.Plan.Masks[aggClos]&full != d.Plan.Masks[aggClos] {
		t.Fatal("agg mask not a subset of full")
	}
}

func TestPrefCP2SplitsPartitions(t *testing.T) {
	ft := newFakeTarget([]fakeCore{
		{ipcOn: 2.0, ipcOff: 0.5, aggressive: true},                     // friendly
		{ipcOn: 0.5, ipcOff: 0.7, aggressive: true, victimPenalty: 0.1}, // unfriendly
		{ipcOn: 1, ipcOff: 1},
	})
	c, _ := NewController(DefaultConfig(), ft, PrefCP2{})
	if err := c.RunEpochs(1); err != nil {
		t.Fatal(err)
	}
	d := c.LastDecision()
	if !containsInt(d.Friendly, 0) || !containsInt(d.Unfriendly, 1) {
		t.Fatalf("split wrong: friendly=%v unfriendly=%v", d.Friendly, d.Unfriendly)
	}
	if d.Plan == nil {
		t.Fatal("no plan")
	}
	mF := d.Plan.Masks[d.Plan.ClosByCore[0]]
	mU := d.Plan.Masks[d.Plan.ClosByCore[1]]
	if mF&mU != 0 {
		t.Fatalf("friendly %#x and unfriendly %#x partitions overlap", mF, mU)
	}
	// CP2 does not throttle anyone.
	if !ft.prefetchOn(0) || !ft.prefetchOn(1) {
		t.Fatal("Pref-CP2 throttled a core")
	}
}

func TestCoordinatedVariantA(t *testing.T) {
	ft := newFakeTarget([]fakeCore{
		{ipcOn: 2.0, ipcOff: 0.5, aggressive: true},                     // friendly
		{ipcOn: 0.5, ipcOff: 0.7, aggressive: true, victimPenalty: 0.3}, // unfriendly
		{ipcOn: 1, ipcOff: 1},
		{ipcOn: 1, ipcOff: 1},
	})
	c, _ := NewController(DefaultConfig(), ft, &Coordinated{Variant: VariantA})
	if err := c.RunEpochs(1); err != nil {
		t.Fatal(err)
	}
	d := c.LastDecision()
	if d.Policy != "CMM-a" {
		t.Fatalf("policy name %q", d.Policy)
	}
	// Both agg cores share one partition.
	if d.Plan.ClosByCore[0] != d.Plan.ClosByCore[1] {
		t.Fatal("VariantA split the Agg set across partitions")
	}
	if d.Plan.ClosByCore[0] == 0 {
		t.Fatal("agg cores in CLOS0")
	}
	// The unfriendly core is throttled; the friendly one is not.
	if !containsInt(d.Disabled, 1) {
		t.Fatalf("unfriendly core not throttled: %+v", d)
	}
	if containsInt(d.Disabled, 0) {
		t.Fatal("friendly core throttled")
	}
	if !ft.prefetchOn(0) || ft.prefetchOn(1) {
		t.Fatal("MSR state inconsistent with decision")
	}
}

func TestCoordinatedVariantBLeavesUnfriendlyUnpartitioned(t *testing.T) {
	ft := newFakeTarget([]fakeCore{
		{ipcOn: 2.0, ipcOff: 0.5, aggressive: true},
		{ipcOn: 0.5, ipcOff: 0.7, aggressive: true, victimPenalty: 0.3},
		{ipcOn: 1, ipcOff: 1},
	})
	c, _ := NewController(DefaultConfig(), ft, &Coordinated{Variant: VariantB})
	if err := c.RunEpochs(1); err != nil {
		t.Fatal(err)
	}
	d := c.LastDecision()
	if d.Plan.ClosByCore[0] == 0 {
		t.Fatal("friendly core not partitioned")
	}
	if d.Plan.ClosByCore[1] != 0 {
		t.Fatal("VariantB partitioned the unfriendly core")
	}
	if !containsInt(d.Disabled, 1) {
		t.Fatal("unfriendly core not throttled")
	}
}

func TestCoordinatedVariantCDisjointPartitions(t *testing.T) {
	ft := newFakeTarget([]fakeCore{
		{ipcOn: 2.0, ipcOff: 0.5, aggressive: true},
		{ipcOn: 0.5, ipcOff: 0.7, aggressive: true, victimPenalty: 0.3},
		{ipcOn: 1, ipcOff: 1},
	})
	c, _ := NewController(DefaultConfig(), ft, &Coordinated{Variant: VariantC})
	if err := c.RunEpochs(1); err != nil {
		t.Fatal(err)
	}
	d := c.LastDecision()
	cF, cU := d.Plan.ClosByCore[0], d.Plan.ClosByCore[1]
	if cF == 0 || cU == 0 || cF == cU {
		t.Fatalf("VariantC CLOS layout wrong: friendly=%d unfriendly=%d", cF, cU)
	}
	if d.Plan.Masks[cF]&d.Plan.Masks[cU] != 0 {
		t.Fatal("VariantC partitions overlap")
	}
}

func TestCoordinatedEmptyAggFallsBackToDunn(t *testing.T) {
	ft := newFakeTarget([]fakeCore{
		{ipcOn: 0.3, ipcOff: 0.3},
		{ipcOn: 2.0, ipcOff: 2.0},
	})
	c, _ := NewController(DefaultConfig(), ft, &Coordinated{Variant: VariantA})
	if err := c.RunEpochs(1); err != nil {
		t.Fatal(err)
	}
	d := c.LastDecision()
	if !d.FellBackToDunn {
		t.Fatalf("no Dunn fallback: %+v", d)
	}
	if d.Plan == nil {
		t.Fatal("fallback produced no plan")
	}
}

func TestBaselineResetsState(t *testing.T) {
	ft := newFakeTarget([]fakeCore{{ipcOn: 1, ipcOff: 1}, {ipcOn: 1, ipcOff: 1}})
	// Dirty the state.
	if err := ft.WriteMSR(0, msr.MiscFeatureControl, msr.DisableAll); err != nil {
		t.Fatal(err)
	}
	c, _ := NewController(DefaultConfig(), ft, Baseline{})
	if err := c.RunEpochs(1); err != nil {
		t.Fatal(err)
	}
	if !ft.prefetchOn(0) {
		t.Fatal("baseline left prefetchers off")
	}
	v, _ := ft.ReadMSR(0, msr.PQRAssoc)
	if msr.ClosOf(v) != 0 {
		t.Fatal("baseline left CAT assignment")
	}
}

func TestControllerBookkeeping(t *testing.T) {
	ft := newFakeTarget([]fakeCore{{ipcOn: 1, ipcOff: 1}})
	if _, err := NewController(DefaultConfig(), nil, PT{}); err == nil {
		t.Error("nil target accepted")
	}
	if _, err := NewController(Config{}, ft, PT{}); err == nil {
		t.Error("invalid config accepted")
	}
	c, err := NewController(DefaultConfig(), ft, PT{})
	if err != nil {
		t.Fatal(err)
	}
	if d := c.LastDecision(); d.Policy != "" {
		t.Error("non-empty initial decision")
	}
	if err := c.RunEpochs(3); err != nil {
		t.Fatal(err)
	}
	if len(c.Decisions()) != 3 {
		t.Fatalf("%d decisions, want 3", len(c.Decisions()))
	}
}

func TestPoliciesRegistry(t *testing.T) {
	names := PolicyNames()
	want := []string{"baseline", "PT", "Dunn", "Pref-CP", "Pref-CP2", "CMM-a", "CMM-b", "CMM-c"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names[%d] = %q, want %q", i, names[i], want[i])
		}
	}
	for _, n := range want {
		p, ok := PolicyByName(n)
		if !ok || p.Name() != n {
			t.Fatalf("PolicyByName(%q) failed", n)
		}
	}
	if _, ok := PolicyByName("nope"); ok {
		t.Fatal("unknown policy resolved")
	}
}

func TestAggSummary(t *testing.T) {
	if s := AggSummary(Decision{}); s != "agg set empty" {
		t.Fatalf("empty summary %q", s)
	}
	d := Decision{
		Detection: Detection{Agg: []int{1, 2}},
		Friendly:  []int{1}, Unfriendly: []int{2}, Disabled: []int{2},
	}
	s := AggSummary(d)
	for _, sub := range []string{"agg=[1 2]", "friendly=[1]", "unfriendly=[2]", "throttled=[2]"} {
		if !contains(s, sub) {
			t.Fatalf("summary %q missing %q", s, sub)
		}
	}
	d2 := Decision{FellBackToDunn: true}
	if !contains(AggSummary(d2), "Dunn") {
		t.Fatal("fallback not mentioned")
	}
}

func TestVariantString(t *testing.T) {
	if VariantA.String() != "CMM-a" || VariantB.String() != "CMM-b" || VariantC.String() != "CMM-c" {
		t.Fatal("variant names wrong")
	}
	if Variant(9).String() == "" {
		t.Fatal("unknown variant must stringify")
	}
}

func TestSortedCopy(t *testing.T) {
	in := []int{3, 1, 2}
	out := sortedCopy(in)
	if out[0] != 1 || out[2] != 3 || in[0] != 3 {
		t.Fatal("sortedCopy wrong or mutated input")
	}
}

func popcount(v uint64) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestFakeTargetSanity(t *testing.T) {
	// The scripted target itself must produce sane IPCs.
	ft := newFakeTarget([]fakeCore{{ipcOn: 1.5, ipcOff: 0.5}})
	s := sampleInterval(ft, 1000)
	if math.Abs(s[0].IPC()-1.5) > 0.01 {
		t.Fatalf("fake IPC %g, want 1.5", s[0].IPC())
	}
	if err := setPrefetchers(ft, []int{0}); err != nil {
		t.Fatal(err)
	}
	s = sampleInterval(ft, 1000)
	if math.Abs(s[0].IPC()-0.5) > 0.01 {
		t.Fatalf("fake off-IPC %g, want 0.5", s[0].IPC())
	}
}

func TestExtensionPolicyLookup(t *testing.T) {
	p, ok := PolicyByName("CP+BW")
	if !ok || p.Name() != "CP+BW" {
		t.Fatal("CP+BW not resolvable")
	}
	// The paper's canonical list stays unchanged.
	for _, n := range PolicyNames() {
		if n == "CP+BW" {
			t.Fatal("extension leaked into the paper's policy list")
		}
	}
}

func TestControllerOverheadAccounting(t *testing.T) {
	ft := newFakeTarget([]fakeCore{
		{ipcOn: 0.5, ipcOff: 0.6, aggressive: true, victimPenalty: 0.2},
		{ipcOn: 1.0, ipcOff: 1.0},
	})
	c, _ := NewController(DefaultConfig(), ft, PT{})
	if c.OverheadFraction() != 0 {
		t.Fatal("overhead before any epoch")
	}
	if err := c.RunEpochs(2); err != nil {
		t.Fatal(err)
	}
	exec, prof := c.Overhead()
	if exec != 2*DefaultConfig().ExecutionEpoch {
		t.Fatalf("execution cycles %d", exec)
	}
	// PT with one Agg core samples 1 probe + 2 combos per epoch.
	if want := 2 * 3 * DefaultConfig().SamplingInterval; prof != want {
		t.Fatalf("profiling cycles %d, want %d", prof, want)
	}
	f := c.OverheadFraction()
	if f <= 0 || f >= 0.5 {
		t.Fatalf("overhead fraction %g", f)
	}
}

func TestBaselineHasNoProfilingOverhead(t *testing.T) {
	ft := newFakeTarget([]fakeCore{{ipcOn: 1, ipcOff: 1}})
	c, _ := NewController(DefaultConfig(), ft, Baseline{})
	if err := c.RunEpochs(3); err != nil {
		t.Fatal(err)
	}
	if _, prof := c.Overhead(); prof != 0 {
		t.Fatalf("baseline profiling cycles %d", prof)
	}
}
