package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"

	"cmm/internal/mixes"
	"cmm/internal/workload"
)

// scoringMix builds an n-core mix with distinguishable benchmark names.
func scoringMix(names ...string) mixes.Mix {
	m := mixes.Mix{Name: "scoring-mix", Category: mixes.PrefUnfri}
	for _, n := range names {
		m.Specs = append(m.Specs, workload.Spec{Name: n})
	}
	return m
}

// TestScoreRunsEdgeCases table-drives the division guards added to
// scoreRuns: a zero-IPC baseline core, zero-stall and zero-byte baseline
// windows, and the healthy single-seed path, asserting descriptive errors
// or finite outputs — never NaN/Inf.
func TestScoreRunsEdgeCases(t *testing.T) {
	opts := Options{Seeds: []int64{7}}
	mix := scoringMix("b0", "b1", "b2", "b3")
	alone := []float64{1, 1, 1, 1}
	policyIPC := []float64{0.9, 1.1, 0.8, 1.0}
	baseIPC := []float64{1.0, 1.0, 1.0, 1.0}

	healthy := func() (policyRun, policyRun) {
		run := policyRun{IPC: append([]float64(nil), policyIPC...), Bytes: 800, Stalls: 400, Cycles: 1000}
		base := policyRun{IPC: append([]float64(nil), baseIPC...), Bytes: 1000, Stalls: 500, Cycles: 1000}
		return run, base
	}

	tests := []struct {
		name    string
		mutate  func(run, base *policyRun)
		wantErr string // empty = expect success
		check   func(t *testing.T, r MixResult)
	}{
		{
			name:   "healthy single seed",
			mutate: func(run, base *policyRun) {},
			check: func(t *testing.T, r MixResult) {
				for _, v := range []float64{r.NormHS, r.NormWS, r.WorstCase, r.NormBW, r.NormStalls} {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("non-finite metric in %+v", r)
					}
				}
				// Core 2 has the lowest policy/baseline ratio (0.8).
				if r.WorstBenchmark != "b2" {
					t.Errorf("WorstBenchmark = %q, want b2", r.WorstBenchmark)
				}
				if math.Abs(r.NormBW-0.8) > 1e-12 || math.Abs(r.NormStalls-0.8) > 1e-12 {
					t.Errorf("NormBW/NormStalls = %g/%g, want 0.8/0.8", r.NormBW, r.NormStalls)
				}
			},
		},
		{
			name: "zero-IPC baseline core",
			mutate: func(run, base *policyRun) {
				base.IPC[1] = 0
			},
			wantErr: "baseline IPC of core 1 (b1)",
		},
		{
			name: "NaN-producing zero-IPC pair",
			mutate: func(run, base *policyRun) {
				// 0/0 was the nondeterministic NaN of the old scan.
				run.IPC[0], base.IPC[0] = 0, 0
			},
			wantErr: "baseline IPC of core 0 (b0)",
		},
		{
			name: "zero stalls both sides is parity",
			mutate: func(run, base *policyRun) {
				run.Stalls, base.Stalls = 0, 0
			},
			check: func(t *testing.T, r MixResult) {
				if r.NormStalls != 1 {
					t.Errorf("NormStalls = %g, want 1.0", r.NormStalls)
				}
			},
		},
		{
			name: "zero-stall baseline with stalling policy",
			mutate: func(run, base *policyRun) {
				base.Stalls = 0
			},
			wantErr: "L2 pending stalls",
		},
		{
			name: "zero bytes both sides is parity",
			mutate: func(run, base *policyRun) {
				run.Bytes, base.Bytes = 0, 0
			},
			check: func(t *testing.T, r MixResult) {
				if r.NormBW != 1 {
					t.Errorf("NormBW = %g, want 1.0", r.NormBW)
				}
			},
		},
		{
			name: "zero-byte baseline with traffic policy",
			mutate: func(run, base *policyRun) {
				base.Bytes = 0
			},
			wantErr: "memory bandwidth",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			run, base := healthy()
			tc.mutate(&run, &base)
			res, err := scoreRuns(opts, mix, []policyRun{run}, alone, []policyRun{base})
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("no error; result %+v", res)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %q does not mention %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, res)
		})
	}
}

// TestSoloRunsOncePerBenchmark checks that one comparison, fanned out
// over eight workers, runs each distinct benchmark's solo simulation
// exactly once.
func TestSoloRunsOncePerBenchmark(t *testing.T) {
	opts := tinyOptions()
	opts.Workers = 8
	selected, err := mixes.Selection(opts.Cores, opts.BaseSeed, opts.MixesPerCategory)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	calls := map[string]int{}
	count := func(o Options, spec workload.Spec, seed int64, msrVal uint64, ways int) (soloRun, error) {
		mu.Lock()
		calls[spec.Name]++
		mu.Unlock()
		return runSolo(o, spec, seed, msrVal, ways)
	}
	if _, err := runComparison(opts, selected, tinyPolicies(t, "PT"), new(prefixCache), count); err != nil {
		t.Fatal(err)
	}
	uniq := uniqueSpecs(selected)
	if len(calls) != len(uniq) {
		t.Errorf("solo runs covered %d benchmarks, want the mixes' %d", len(calls), len(uniq))
	}
	for _, spec := range uniq {
		if n := calls[spec.Name]; n != 1 {
			t.Errorf("benchmark %s: %d solo runs, want 1", spec.Name, n)
		}
	}
}
