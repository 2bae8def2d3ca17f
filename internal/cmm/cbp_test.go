package cmm

import (
	"reflect"
	"testing"

	"cmm/internal/msr"
	"cmm/internal/pmu"
)

// cbpCores builds the canonical CBP test mix: a prefetch-friendly
// aggressor, a prefetch-unfriendly aggressor whose bandwidth pressure
// (prefetch- and demand-side) punishes everyone else, and a quiet victim.
// Throttling the unfriendly core trades a small self-slowdown for relief
// on both other cores, so the speedup-scored search must land on the
// unfriendly entity at the deepest level in the grid.
func cbpCores() []fakeCore {
	return []fakeCore{
		{ipcOn: 2.0, ipcOff: 0.5, aggressive: true},
		{ipcOn: 0.5, ipcOff: 0.55, aggressive: true, victimPenalty: 0.2, demandPenalty: 0.3},
		{ipcOn: 1, ipcOff: 1},
	}
}

func TestMBALevelGrid(t *testing.T) {
	cfg := DefaultConfig()
	if got, want := mbaLevelGrid(cfg), []uint64{10, 40}; !reflect.DeepEqual(got, want) {
		t.Fatalf("grid %v, want %v", got, want)
	}
	// Zeros are dropped: the unthrottled baseline is always measured and
	// never needs a grid slot.
	cfg.MBALevels = []uint64{0, 30}
	if got, want := mbaLevelGrid(cfg), []uint64{30}; !reflect.DeepEqual(got, want) {
		t.Fatalf("explicit-0 grid %v, want %v", got, want)
	}
	cfg.MBALevels = nil
	if got := mbaLevelGrid(cfg); len(got) != 0 {
		t.Fatalf("empty grid %v", got)
	}
}

func TestCPBWSamplesMBALevels(t *testing.T) {
	ft := newFakeTarget(cbpCores())
	c, err := NewController(DefaultConfig(), ft, &CPBW{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunEpochs(1); err != nil {
		t.Fatal(err)
	}
	d := c.LastDecision()
	if d.Policy != "CP+BW" {
		t.Fatalf("policy %q", d.Policy)
	}
	if !reflect.DeepEqual(d.Unfriendly, []int{1}) {
		t.Fatalf("unfriendly %v", d.Unfriendly)
	}
	// Prefetchers stay ON for everyone: CP+BW never throttles them.
	for core := 0; core < 3; core++ {
		if !ft.prefetchOn(core) {
			t.Fatalf("core %d prefetchers off under CP+BW", core)
		}
	}
	if len(d.Disabled) != 0 {
		t.Fatalf("CP+BW disabled prefetchers: %v", d.Disabled)
	}
	// The search profiles both entities and must pick the unfriendly core
	// at the deepest level (relief to both victims outweighs its own
	// slowdown; throttling the friendly streamer helps no one).
	if d.MBAPercent != 40 {
		t.Fatalf("MBAPercent %d, want 40", d.MBAPercent)
	}
	if !reflect.DeepEqual(d.MBAThrottled, []int{1}) {
		t.Fatalf("MBAThrottled %v", d.MBAThrottled)
	}
	if want := []uint64{0, 40, 0}; !reflect.DeepEqual(d.MBALevels, want) {
		t.Fatalf("MBALevels %v, want %v", d.MBALevels, want)
	}
	if d.MBAGain <= 1.1 || d.MBAGain >= 1.13 {
		t.Fatalf("MBAGain %.4f, want the profiled hm-speedup (~1.118)", d.MBAGain)
	}
	// The delay lands on the dedicated sampled CLOS, with the winner's
	// PQR moved there; the recorded plan keeps the core in its home class
	// (the cache layout is unchanged by the bandwidth partition).
	v, err := ft.ReadMSR(0, msr.MBAThrottleBase+mbaCLOSSampled)
	if err != nil || v != 40 {
		t.Fatalf("sampled CLOS MBA register = %d, %v; want 40", v, err)
	}
	pqr, err := ft.ReadMSR(1, msr.PQRAssoc)
	if err != nil || msr.ClosOf(pqr) != mbaCLOSSampled {
		t.Fatalf("winner PQR CLOS = %d, %v; want %d", msr.ClosOf(pqr), err, mbaCLOSSampled)
	}
	if d.Plan == nil || d.Plan.ClosByCore[1] != mbaCLOSUnfriendly {
		t.Fatalf("recorded plan lost the home class: %+v", d.Plan)
	}
	// probe + split + MBA baseline + 2 entities x 2 levels.
	if d.SampledCombos != 7 {
		t.Fatalf("SampledCombos %d, want 7", d.SampledCombos)
	}
	// The class CLOSes never carry sampling leftovers.
	for _, clos := range []uint32{mbaCLOSFriendly, mbaCLOSUnfriendly} {
		if v, _ := ft.ReadMSR(0, msr.MBAThrottleBase+clos); v != 0 {
			t.Fatalf("class CLOS %d keeps MBA delay %d", clos, v)
		}
	}
}

func TestCPBWPTCoordinatesAllThreeKnobs(t *testing.T) {
	ft := newFakeTarget(cbpCores())
	c, err := NewController(DefaultConfig(), ft, &CPBWPT{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunEpochs(1); err != nil {
		t.Fatal(err)
	}
	d := c.LastDecision()
	if d.Policy != "CP+BW+PT" {
		t.Fatalf("policy %q", d.Policy)
	}
	// Knob 1, cache: two disjoint partitions (Fig. 6c layout).
	if d.Plan == nil {
		t.Fatal("no CAT plan")
	}
	if d.Plan.Masks[d.Plan.ClosByCore[0]]&d.Plan.Masks[d.Plan.ClosByCore[1]] != 0 {
		t.Fatal("partitions overlap")
	}
	// Knob 2, prefetching: the unfriendly core's prefetchers go off (its
	// prefetches hurt), the friendly core's stay on.
	if !reflect.DeepEqual(d.Disabled, []int{1}) {
		t.Fatalf("Disabled %v, want [1]", d.Disabled)
	}
	if ft.prefetchOn(1) || !ft.prefetchOn(0) {
		t.Fatal("prefetcher state does not match the decision")
	}
	// Knob 3, bandwidth: demand-side pressure remains after the prefetch
	// cut, so the search still finds relief on the unfriendly entity.
	if d.MBAPercent != 40 || !reflect.DeepEqual(d.MBAThrottled, []int{1}) {
		t.Fatalf("MBA decision: percent %d throttled %v", d.MBAPercent, d.MBAThrottled)
	}
	v, err := ft.ReadMSR(0, msr.MBAThrottleBase+mbaCLOSSampled)
	if err != nil || v != 40 {
		t.Fatalf("sampled CLOS MBA register = %d, %v; want 40", v, err)
	}
	if d.MBAGain <= 1 {
		t.Fatalf("MBAGain %.4f, want > 1", d.MBAGain)
	}
}

// runCountTarget counts RunCycles invocations — every one inside Epoch is
// one profiling sampling interval, since the controller's execution epoch
// runs outside the policy.
type runCountTarget struct {
	*fakeTarget
	runs int
}

func (r *runCountTarget) RunCycles(n uint64) {
	r.runs++
	r.fakeTarget.RunCycles(n)
}

// TestCBPSampledCombosCountsEveryProfilingRun pins the decision-accounting
// rule: SampledCombos equals the number of simulated profiling runs even
// when a policy samples MBA levels in the same epoch as prefetch combos.
// (An undercount would flatter the CBP policies in the epoch-overhead
// comparison of sampled intervals vs. decision quality.)
func TestCBPSampledCombosCountsEveryProfilingRun(t *testing.T) {
	for _, p := range []Policy{&CPBW{}, &CPBWPT{}} {
		t.Run(p.Name(), func(t *testing.T) {
			rt := &runCountTarget{fakeTarget: newFakeTarget(cbpCores())}
			dec, err := p.Epoch(rt, DefaultConfig(), make([]pmu.Sample, 3))
			if err != nil {
				t.Fatal(err)
			}
			if dec.SampledCombos != rt.runs {
				t.Fatalf("SampledCombos %d, but %d profiling runs were simulated", dec.SampledCombos, rt.runs)
			}
			if rt.runs == 0 {
				t.Fatal("no profiling ran — mix not aggressive?")
			}
		})
	}
	// CP+BW+PT's full breakdown: probe + split + 2 prefetch combos (one
	// unfriendly entity) + MBA baseline + 2 entities x 2 levels.
	rt := &runCountTarget{fakeTarget: newFakeTarget(cbpCores())}
	dec, err := (&CPBWPT{}).Epoch(rt, DefaultConfig(), make([]pmu.Sample, 3))
	if err != nil {
		t.Fatal(err)
	}
	if dec.SampledCombos != 9 || rt.runs != 9 {
		t.Fatalf("CP+BW+PT sampled %d (ran %d), want 9", dec.SampledCombos, rt.runs)
	}
}

// TestCPBWReusesCachedMBAChoice pins the refresh schedule: a profiled
// bandwidth partition is reasserted from cache on the following epochs (no
// MBA sampling intervals) as long as the Agg split holds.
func TestCPBWReusesCachedMBAChoice(t *testing.T) {
	rt := &runCountTarget{fakeTarget: newFakeTarget(cbpCores())}
	p := &CPBW{}
	cfg := DefaultConfig()
	if _, err := p.Epoch(rt, cfg, make([]pmu.Sample, 3)); err != nil {
		t.Fatal(err)
	}
	if rt.runs != 7 {
		t.Fatalf("first epoch ran %d intervals, want 7", rt.runs)
	}
	rt.runs = 0
	dec, err := p.Epoch(rt, cfg, make([]pmu.Sample, 3))
	if err != nil {
		t.Fatal(err)
	}
	// Second epoch: probe + split only — the MBA choice comes from cache
	// but is still reasserted and recorded in full.
	if rt.runs != 2 || dec.SampledCombos != 2 {
		t.Fatalf("cached epoch ran %d intervals (sampled %d), want 2", rt.runs, dec.SampledCombos)
	}
	if dec.MBAPercent != 40 || !reflect.DeepEqual(dec.MBALevels, []uint64{0, 40, 0}) {
		t.Fatalf("cached decision lost the choice: percent %d levels %v", dec.MBAPercent, dec.MBALevels)
	}
	if v, _ := rt.ReadMSR(0, msr.MBAThrottleBase+mbaCLOSSampled); v != 40 {
		t.Fatalf("cached choice not reasserted: register %d", v)
	}
}

// TestCPBWCloneIsolation pins Clone's contract for the stateful policies:
// a clone starts with an empty bandwidth cache (it must re-profile), and
// cloning leaves the original's cache intact.
func TestCPBWCloneIsolation(t *testing.T) {
	rt := &runCountTarget{fakeTarget: newFakeTarget(cbpCores())}
	p := &CPBW{}
	cfg := DefaultConfig()
	if _, err := p.Epoch(rt, cfg, make([]pmu.Sample, 3)); err != nil {
		t.Fatal(err)
	}
	clone, ok := p.Clone().(*CPBW)
	if !ok {
		t.Fatalf("Clone returned %T", p.Clone())
	}
	crt := &runCountTarget{fakeTarget: newFakeTarget(cbpCores())}
	if _, err := clone.Epoch(crt, cfg, make([]pmu.Sample, 3)); err != nil {
		t.Fatal(err)
	}
	if crt.runs != 7 {
		t.Fatalf("clone ran %d intervals, want 7 (fresh profile)", crt.runs)
	}
	rt.runs = 0
	if _, err := p.Epoch(rt, cfg, make([]pmu.Sample, 3)); err != nil {
		t.Fatal(err)
	}
	if rt.runs != 2 {
		t.Fatalf("original ran %d intervals after Clone, want 2 (cache kept)", rt.runs)
	}
}

func TestCPBWEmptyAggReleasesEverything(t *testing.T) {
	ft := newFakeTarget([]fakeCore{
		{ipcOn: 0.3, ipcOff: 0.3}, {ipcOn: 2.0, ipcOff: 2.0},
	})
	// Stale MBA from a previous epoch must be cleared on the quiet path —
	// any of the programmed CLOSes could have been the last target.
	for clos, stale := range map[uint32]uint64{
		mbaCLOSFriendly: 30, mbaCLOSUnfriendly: 90, mbaCLOSSampled: 40,
	} {
		if err := ft.WriteMSR(0, msr.MBAThrottleBase+clos, stale); err != nil {
			t.Fatal(err)
		}
	}
	c, _ := NewController(DefaultConfig(), ft, &CPBW{})
	if err := c.RunEpochs(1); err != nil {
		t.Fatal(err)
	}
	d := c.LastDecision()
	if len(d.Detection.Agg) != 0 || d.MBAPercent != 0 || d.MBALevels != nil {
		t.Fatalf("quiet epoch decision: %+v", d)
	}
	for _, clos := range []uint32{mbaCLOSFriendly, mbaCLOSUnfriendly, mbaCLOSSampled} {
		if v, _ := ft.ReadMSR(0, msr.MBAThrottleBase+clos); v != 0 {
			t.Fatalf("stale MBA throttle %d on CLOS %d survives empty Agg", v, clos)
		}
	}
}

func TestCPBWPTEmptyAggFallsBackToDunn(t *testing.T) {
	ft := newFakeTarget([]fakeCore{
		{ipcOn: 0.3, ipcOff: 0.3}, {ipcOn: 2.0, ipcOff: 2.0},
	})
	if err := ft.WriteMSR(0, msr.MBAThrottleBase+mbaCLOSUnfriendly, 90); err != nil {
		t.Fatal(err)
	}
	c, _ := NewController(DefaultConfig(), ft, &CPBWPT{})
	if err := c.RunEpochs(1); err != nil {
		t.Fatal(err)
	}
	d := c.LastDecision()
	if !d.FellBackToDunn {
		t.Fatal("no Dunn fallback on empty Agg")
	}
	if v, _ := ft.ReadMSR(0, msr.MBAThrottleBase+mbaCLOSUnfriendly); v != 0 {
		t.Fatalf("stale MBA throttle %d survives fallback", v)
	}
}

// TestSummarizeDecisionsCountsMBAChanges covers the new aggregate: an MBA
// repartition counts once per change, not per epoch.
func TestSummarizeDecisionsCountsMBAChanges(t *testing.T) {
	decs := []Decision{
		{MBALevels: []uint64{0, 60, 0}}, // change vs reset state
		{MBALevels: []uint64{0, 60, 0}}, // steady
		{MBALevels: nil},                // released: change
		{MBALevels: []uint64{0, 0, 0}},  // all-zero == nil: steady
		{MBALevels: []uint64{20, 0, 0}}, // change
	}
	s := SummarizeDecisions(decs)
	if s.MBAChanges != 3 {
		t.Fatalf("MBAChanges %d, want 3", s.MBAChanges)
	}
}
