package cmm_test

// Integration tests: the policies driving the real simulator (the unit
// tests in package cmm use a scripted fake target). External test package
// to exercise the public surface the way the facade does.

import (
	"testing"

	"cmm/internal/cmm"
	"cmm/internal/mixes"
	"cmm/internal/msr"
	"cmm/internal/sim"
	"cmm/internal/workload"
)

func quadSystem(t testing.TB) *sim.System {
	t.Helper()
	var specs []workload.Spec
	for _, n := range []string{"410.bwaves", "rand_access", "429.mcf", "453.povray"} {
		s, ok := workload.ByName(n)
		if !ok {
			t.Fatalf("unknown benchmark %s", n)
		}
		specs = append(specs, s)
	}
	sys, err := sim.New(sim.DefaultConfig(), specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func quickCfg() cmm.Config {
	cfg := cmm.DefaultConfig()
	cfg.ExecutionEpoch = 1_200_000
	cfg.SamplingInterval = 100_000
	return cfg
}

func TestSimCMMADetectsAndActs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator integration is slow")
	}
	sys := quadSystem(t)
	ctrl, err := cmm.NewController(quickCfg(), cmm.NewSimTarget(sys), &cmm.Coordinated{Variant: cmm.VariantA})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.RunEpochs(2); err != nil {
		t.Fatal(err)
	}
	d := ctrl.LastDecision()
	// bwaves (core 0) and rand_access (core 1) are the aggressive pair.
	if !d.Detection.InAgg(0) || !d.Detection.InAgg(1) {
		t.Fatalf("Agg = %v, want cores 0 and 1", d.Detection.Agg)
	}
	// bwaves friendly, rand_access unfriendly and throttled.
	found := false
	for _, c := range d.Friendly {
		if c == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("bwaves not friendly: %+v", d)
	}
	throttled := false
	for _, c := range d.Disabled {
		if c == 1 {
			throttled = true
		}
	}
	if !throttled {
		t.Fatalf("rand_access not throttled: %+v", d)
	}
	// The MSR state matches the decision.
	v, err := sys.Bank().Read(1, msr.MiscFeatureControl)
	if err != nil || v != msr.DisableAll {
		t.Fatalf("core 1 MSR %#x, %v", v, err)
	}
	v, err = sys.Bank().Read(0, msr.MiscFeatureControl)
	if err != nil || v != 0 {
		t.Fatalf("core 0 MSR %#x, %v", v, err)
	}
	// The CAT masks match the plan.
	mask, err := sys.CAT().EffectiveMask(0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Plan == nil || mask != d.Plan.Masks[d.Plan.ClosByCore[0]] {
		t.Fatalf("effective mask %#x does not match plan", mask)
	}
}

func TestSimPTConvergesToStableDecision(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator integration is slow")
	}
	sys := quadSystem(t)
	ctrl, err := cmm.NewController(quickCfg(), cmm.NewSimTarget(sys), cmm.PT{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.RunEpochs(4); err != nil {
		t.Fatal(err)
	}
	ds := ctrl.Decisions()
	// Later epochs should agree on the throttle set (steady workloads).
	last := ds[len(ds)-1]
	prev := ds[len(ds)-2]
	if len(last.Disabled) != len(prev.Disabled) {
		t.Logf("decision flapping: %v vs %v (tolerated, but worth watching)",
			prev.Disabled, last.Disabled)
	}
	if ctrl.OverheadFraction() <= 0 || ctrl.OverheadFraction() > 0.6 {
		t.Fatalf("overhead fraction %g out of range", ctrl.OverheadFraction())
	}
}

func TestSimDunnProducesNestedMasks(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator integration is slow")
	}
	sys := quadSystem(t)
	ctrl, err := cmm.NewController(quickCfg(), cmm.NewSimTarget(sys), cmm.Dunn{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.RunEpochs(2); err != nil {
		t.Fatal(err)
	}
	d := ctrl.LastDecision()
	if d.Plan == nil {
		t.Fatal("no plan")
	}
	for _, clos := range d.Plan.ClosByCore {
		m := d.Plan.Masks[clos]
		if m&1 == 0 {
			t.Fatalf("mask %#x not anchored at way 0 (not nested)", m)
		}
	}
}

// TestSimMBAPolicyProgramsThrottle follows a bandwidth decision down to
// the memory controller: on a bandwidth-saturated mix CP+BW+PT's profiled
// MBA delay must reach mem.Controller.Throttle for exactly the cores the
// decision names.
func TestSimMBAPolicyProgramsThrottle(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator integration is slow")
	}
	fam, err := mixes.BWSaturated(8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := sim.New(sim.DefaultConfig(), fam[0].Specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := cmm.NewController(quickCfg(), cmm.NewSimTarget(sys), &cmm.CPBWPT{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.RunEpochs(2); err != nil {
		t.Fatal(err)
	}
	// The machine applies CAT/MBA register writes when it next runs.
	sys.Run(1)
	d := ctrl.LastDecision()
	if len(d.MBAThrottled) == 0 || d.MBAPercent == 0 {
		t.Fatalf("no MBA throttling applied: %+v", d)
	}
	for c := 0; c < sys.NumCores(); c++ {
		got := sys.Memory().Throttle(c)
		want := 0.0
		if containsCore(d.MBAThrottled, c) {
			want = float64(d.MBAPercent) / 100
		}
		if got != want {
			t.Errorf("core %d throttled %.2f at the memory controller, decision says %.2f", c, got, want)
		}
	}
}

func containsCore(cores []int, c int) bool {
	for _, x := range cores {
		if x == c {
			return true
		}
	}
	return false
}

func TestSimControllerAdaptsToPhases(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator integration is slow")
	}
	// Core 0 alternates between a streaming phase (prefetch aggressive)
	// and a random phase roughly every execution epoch; the front end
	// must flip its Agg membership across epochs.
	phased := workload.Spec{Name: "phased", Pattern: workload.Phased,
		WorkingSet: 64 << 20, StepBytes: 16, PhaseRefs: 220_000, MLP: 5, GapInstrs: 2}
	quiet, _ := workload.ByName("453.povray")
	sys, err := sim.New(sim.DefaultConfig(), []workload.Spec{phased, quiet, quiet, quiet}, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg()
	ctrl, err := cmm.NewController(cfg, cmm.NewSimTarget(sys), cmm.PT{})
	if err != nil {
		t.Fatal(err)
	}
	inAgg, outAgg := 0, 0
	for e := 0; e < 10; e++ {
		if err := ctrl.RunEpochs(1); err != nil {
			t.Fatal(err)
		}
		if ctrl.LastDecision().Detection.InAgg(0) {
			inAgg++
		} else {
			outAgg++
		}
	}
	if inAgg == 0 || outAgg == 0 {
		t.Fatalf("no phase adaptivity: inAgg=%d outAgg=%d", inAgg, outAgg)
	}
}
