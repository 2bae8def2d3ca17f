package runstore_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"cmm/internal/cmm"
	"cmm/internal/experiments"
	"cmm/internal/mixes"
	"cmm/internal/pmu"
	"cmm/internal/runstore"
	"cmm/internal/server"
	"cmm/internal/sim"
	"cmm/internal/workload"
)

// The experiments package keys and stores these shapes (policyKey, soloKey,
// jobKey in store.go; policyRun, soloRun beside the runners); they are
// unexported there, so they are mirrored here field for field from the
// same exported types.
type policyKey struct {
	Schema                    int
	Kind                      string
	Sim                       sim.Config
	CMM                       cmm.Config
	WarmEpochs, MeasureEpochs int
	Mix                       string
	Specs                     []workload.Spec
	Policy                    string
	Seed                      int64
}

type jobKey struct {
	Schema                            int
	Kind                              string
	Sim                               sim.Config
	CMM                               cmm.Config
	Cores                             int
	WarmEpochs, MeasureEpochs         int
	SoloWarmCycles, SoloMeasureCycles uint64
	Seeds                             []int64
	MixesPerCategory                  int
	BaseSeed                          int64
	Policies                          []string
}

type soloKey struct {
	Schema                 int
	Kind                   string
	Sim                    sim.Config
	WarmCycles, MeasCycles uint64
	Spec                   workload.Spec
	Seed                   int64
	MSR                    uint64
	Ways                   int
}

type policyRun struct {
	IPC                    []float64
	Bytes                  uint64
	Stalls                 uint64
	Cycles                 uint64
	NodeBytes              []uint64 `json:",omitempty"`
	Stats                  cmm.DecisionStats
	ExecCycles, ProfCycles uint64
}

type soloRun struct {
	IPC     float64
	TotalBW float64
	Sample  pmu.Sample
}

// fuzzValues builds every store key and value shape, plus generic maps,
// slices and strings, from one fuzz input.
func fuzzValues(s string, i int64, u uint64, f1, f2 float64, f32 float32, b bool, n uint8) map[string]any {
	o := experiments.QuickOptions()
	o.Sim.CoreGHz = f1
	o.Sim.RoundCycles = u
	o.CMM.PMRThreshold = f2
	o.CMM.PartitionFactor = float64(f32)
	if b {
		o.CMM.MBALevels = nil // omitempty drops it
	}
	suite := workload.Suite()
	spec := suite[int(n)%len(suite)]
	spec.Name = s
	spec.Locality = f2
	spec.WorkingSet = i
	var sample pmu.Sample
	sample.Set(pmu.Event(int(n)%int(pmu.NumEvents)), u)
	stats := cmm.DecisionStats{Epochs: int(n), MBAChanges: int(i % 3), Predictions: int(n % 2)}
	var nodeBytes []uint64
	if b {
		nodeBytes = []uint64{u, u / 2}
	}
	var policies []string
	if !b {
		policies = []string{s, "PT"}
	}
	mix := experiments.MixResult{Mix: s, Category: mixes.Category(n % 6), NormHS: f1, NormWS: f2,
		WorstCase: float64(f32), NormBW: -f1, NormStalls: 1 / (1 + math.Abs(f2)), WorstBenchmark: s + "<&>"}
	comp := server.ComparisonResult{
		Policies: []string{s},
		Mixes:    []server.MixInfo{{Name: s, Category: mixes.Category(n % 6).String()}},
		Results:  map[string][]experiments.MixResult{s: {mix}, "CMM-a": {mix, mix}},
	}
	if !b {
		comp.Telemetry = map[string]experiments.TelemetrySummary{s: {Runs: int(n), ExecutionCycles: u, OverheadFraction: f2}}
	}
	return map[string]any{
		"policyKey": policyKey{Schema: experiments.StoreSchema, Kind: "policy", Sim: o.Sim, CMM: o.CMM,
			WarmEpochs: int(n), MeasureEpochs: int(i % 7), Mix: s, Specs: []workload.Spec{spec, suite[0]}, Policy: s, Seed: i},
		"soloKey": soloKey{Schema: experiments.StoreSchema, Kind: "solo", Sim: o.Sim, WarmCycles: u, MeasCycles: u >> 3,
			Spec: spec, Seed: i, MSR: uint64(n), Ways: int(n % 21)},
		"jobKey": jobKey{Schema: experiments.StoreSchema, Kind: "job/" + s, Sim: o.Sim, CMM: o.CMM, Cores: int(n),
			Seeds: []int64{i, -i}, MixesPerCategory: int(n % 11), BaseSeed: i, Policies: policies},
		"policyRun": policyRun{IPC: []float64{f1, f2, float64(f32)}, Bytes: u, Stalls: u ^ 1, Cycles: uint64(n),
			NodeBytes: nodeBytes, Stats: stats, ExecCycles: u, ProfCycles: uint64(i)},
		"soloRun":          soloRun{IPC: f1, TotalBW: f2, Sample: sample},
		"ComparisonResult": comp,
		"map":              map[string]any{s: f1, "k" + s: []any{i, u, f32, b, s, nil}, "<&>": map[string]any{" ": f2, s + "\xff": i}},
		"slices":           []any{[]string{s, s + s}, []float32{f32, -f32}, []byte(s), [2]int64{i, -i}, map[int64]string{i: s}},
		"string":           s,
		"float32":          f32,
		"number":           json.Number(s),
	}
}

// FuzzCanonicalDifferential pins the direct encoder to the reference
// round trip: on every store key and value shape and on generic data, both
// produce the same bytes, or both fail.
func FuzzCanonicalDifferential(f *testing.F) {
	f.Add("Pref Agg #1", int64(1), uint64(5_000_000_000), 2.1, 0.7, float32(0.1), false, uint8(3))
	f.Add("", int64(-9), uint64(math.MaxUint64), -1e-300, 1.0/3.0, float32(1e-7), true, uint8(255))
	f.Add("<script>& é\xff", int64(math.MaxInt64), uint64(0), math.MaxFloat64, 1e21, float32(math.MaxFloat32), false, uint8(0))
	f.Add("1.50", int64(0), uint64(1<<53+1), 1e-7, 123.0, float32(16777217), true, uint8(17))
	f.Fuzz(func(t *testing.T, s string, i int64, u uint64, f1, f2 float64, f32 float32, b bool, n uint8) {
		for name, v := range fuzzValues(s, i, u, f1, f2, f32, b, n) {
			want, werr := runstore.OracleCanonical(v)
			got, gerr := runstore.Canonical(v)
			switch {
			case (werr != nil) != (gerr != nil):
				t.Fatalf("%s: oracle error %v, Canonical error %v", name, werr, gerr)
			case !bytes.Equal(got, want):
				t.Fatalf("%s: Canonical drifted from the oracle:\n got %s\nwant %s", name, got, want)
			}
		}
	})
}
