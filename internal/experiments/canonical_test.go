package experiments

import (
	"testing"

	"cmm/internal/mixes"
	"cmm/internal/runstore"
	"cmm/internal/workload"
)

// goldenKeyOptions is a fixed, fully populated key source: the default
// machine and controller (MBA grid included) with quick-mode windows.
func goldenKeyOptions() Options {
	o := QuickOptions()
	o.Seeds = []int64{1, 2, 3}
	o.BaseSeed = 7
	return o
}

// TestHashGoldenKeys pins the store address of one policy run, one solo run
// and one job. A change to the canonical encoder, or to any keyed type, that
// moves these hex strings silently orphans every store on disk: either keep
// the bytes or bump StoreSchema and re-pin.
func TestHashGoldenKeys(t *testing.T) {
	o := goldenKeyOptions()
	mix, err := mixes.Build(mixes.PrefAgg, o.Cores, 1003)
	if err != nil {
		t.Fatal(err)
	}
	mix.Name = "Pref Agg #4"
	spec, ok := workload.ByName("462.libquantum")
	if !ok {
		t.Fatal("462.libquantum missing from the suite")
	}
	policyHash, err := o.policyKeyHash(mix, "CMM-a", 2)
	if err != nil {
		t.Fatal(err)
	}
	soloHash, err := o.soloKeyHash(spec, 3, 0xF, 11)
	if err != nil {
		t.Fatal(err)
	}
	jobHash, err := JobKey("comparison", o, []string{"PT", "CMM-a", "CP+BW+PT"})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, got, want string }{
		{"policyKey", policyHash, "e3ce2e876682d72d58da3d0a6b7f9ef5aa4fe01a11a32cf43692f0323f8acf22"},
		{"soloKey", soloHash, "fb61ebf9171c5b5765aa62e3aeeb93bf5843b399483f80b1297ad8aabf9976b7"},
		{"JobKey", jobHash, "f7fc27de6f18bcbc822ba6581a3010c4d56a92549193f8ef2c10007e16b20f93"},
	} {
		if c.got != c.want {
			t.Errorf("%s hash = %s, want %s", c.name, c.got, c.want)
		}
	}
}

// BenchmarkHashPolicyKey is one run-store address: a policy run's key,
// eight workload specs included, canonically encoded and hashed.
func BenchmarkHashPolicyKey(b *testing.B) {
	o := goldenKeyOptions()
	mix, err := mixes.Build(mixes.PrefAgg, o.Cores, 1003)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := o.policyKeyHash(mix, "CMM-a", 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmComparison is a resubmitted service job's engine work: the
// service benchmark's short-window comparison (one mix per category, one
// policy plus the baseline) over a warm in-memory store, so every run is
// a store hit and nothing is simulated in the timed loop.
func BenchmarkWarmComparison(b *testing.B) {
	o := QuickOptions()
	o.MixesPerCategory = 1
	o.SoloWarmCycles = 500_000
	o.SoloMeasureCycles = 500_000
	o.CMM.ExecutionEpoch = 300_000
	o.CMM.SamplingInterval = 30_000
	o.MeasureEpochs = 1
	o.Workers = 1
	store, err := runstore.Open("")
	if err != nil {
		b.Fatal(err)
	}
	o.Store = store
	policies := tinyPolicies(b, "CMM-a")
	if _, err := RunComparison(o, policies); err != nil { // fill the store
		b.Fatal(err)
	}
	misses := store.Stats().Misses
	b.ReportAllocs()
	for b.Loop() {
		if _, err := RunComparison(o, policies); err != nil {
			b.Fatal(err)
		}
	}
	if m := store.Stats().Misses; m != misses {
		b.Fatalf("warm comparisons missed the store %d times", m-misses)
	}
}
