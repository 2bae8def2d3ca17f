// Bench harness: one benchmark per table/figure of the paper's evaluation
// plus ablations of the design choices DESIGN.md calls out.
//
// Figures 7–15 derive from policy-comparison datasets that are expensive
// to produce; benches sharing a dataset compute it once per process and
// report the figure's headline aggregates via b.ReportMetric. By default
// the benches use cut-down sizes (one mix per category, short epochs) so
// `go test -bench=.` stays tractable on one core; set CMM_BENCH_FULL=1
// for the paper-size run (10 mixes per category, 3 seeds) used to fill
// EXPERIMENTS.md.
package cmm_test

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cmm"
	icmm "cmm/internal/cmm"
	"cmm/internal/experiments"
	"cmm/internal/mixes"
	"cmm/internal/workload"
)

func benchOptions() experiments.Options {
	if os.Getenv("CMM_BENCH_FULL") != "" {
		o := experiments.DefaultOptions()
		if os.Getenv("CMM_BENCH_SEEDS") == "" {
			// One seed keeps the paper-size sweep tractable on one CPU;
			// set CMM_BENCH_SEEDS=3 for the paper's median-of-three.
			o.Seeds = []int64{1}
		}
		return o
	}
	o := experiments.QuickOptions()
	o.MixesPerCategory = 1
	return o
}

var allPolicies = []string{"PT", "Dunn", "Pref-CP", "Pref-CP2", "CMM-a", "CMM-b", "CMM-c"}

var (
	compMu    sync.Mutex
	compCache = map[string]*experiments.Comparison{}
)

// comparison returns the comparison dataset covering the named policies.
// All figure benches share one all-policy dataset computed once per
// process (every requested subset is contained in it).
func comparison(b *testing.B, names ...string) *experiments.Comparison {
	b.Helper()
	compMu.Lock()
	defer compMu.Unlock()
	if c, ok := compCache["all"]; ok {
		return c
	}
	var policies []icmm.Policy
	for _, n := range allPolicies {
		p, ok := icmm.PolicyByName(n)
		if !ok {
			b.Fatalf("unknown policy %s", n)
		}
		policies = append(policies, p)
	}
	c, err := experiments.RunComparison(benchOptions(), policies)
	if err != nil {
		b.Fatal(err)
	}
	compCache["all"] = c
	return c
}

var (
	charOnce sync.Once
	charF1   []experiments.Fig1Row
	charF2   []experiments.Fig2Row
	charErr  error
)

// characterization runs the shared Fig. 1/2 measurement once per process.
func characterization(b *testing.B) ([]experiments.Fig1Row, []experiments.Fig2Row) {
	b.Helper()
	charOnce.Do(func() {
		charF1, charF2, charErr = experiments.Characterize(benchOptions(), workload.Suite())
	})
	if charErr != nil {
		b.Fatal(charErr)
	}
	return charF1, charF2
}

func reportCategoryMeans(b *testing.B, c *experiments.Comparison, policy, unit string, metric func(experiments.MixResult) float64) {
	b.Helper()
	means := c.CategoryMeans(policy, metric)
	for cat := mixes.Category(0); cat < mixes.NumCategories; cat++ {
		label := strings.ReplaceAll(strings.ToLower(cat.String()), " ", "_")
		b.ReportMetric(means[cat], unit+"_"+label)
	}
}

// BenchmarkTable1_Metrics regenerates Table I: it derives every M-1…M-7
// metric from a live PMU sample of a streaming core.
func BenchmarkTable1_Metrics(b *testing.B) {
	m, err := cmm.NewMachine([]string{"410.bwaves"}, 1)
	if err != nil {
		b.Fatal(err)
	}
	m.Run(1_000_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MeasureIPC(100_000)
	}
}

// BenchmarkFig1_MemoryBandwidth regenerates Fig. 1: per-benchmark memory
// bandwidth with and without prefetching.
func BenchmarkFig1_MemoryBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := characterization(b)
		// Headline: the demand bandwidth of the heaviest streamer and
		// the largest prefetch increase.
		maxBW, maxInc := 0.0, 0.0
		for _, r := range rows {
			if r.DemandGBs > maxBW {
				maxBW = r.DemandGBs
			}
			if r.IncreasePct > maxInc {
				maxInc = r.IncreasePct
			}
		}
		b.ReportMetric(maxBW, "max_demand_GBs")
		b.ReportMetric(maxInc, "max_increase_pct")
	}
}

// BenchmarkFig2_PrefetchSpeedup regenerates Fig. 2: solo IPC speedup from
// prefetching.
func BenchmarkFig2_PrefetchSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows := characterization(b)
		maxUp, minUp := 0.0, 0.0
		for _, r := range rows {
			if r.SpeedupPct > maxUp {
				maxUp = r.SpeedupPct
			}
			if r.SpeedupPct < minUp {
				minUp = r.SpeedupPct
			}
		}
		b.ReportMetric(maxUp, "max_speedup_pct")
		b.ReportMetric(minUp, "min_speedup_pct") // Rand Access slowdown
	}
}

// BenchmarkFig3_WaySensitivity regenerates Fig. 3: IPC across LLC ways.
// Way sensitivity needs the multi-MB working sets resident, so the solo
// windows are lengthened beyond the other benches' quick sizes.
func BenchmarkFig3_WaySensitivity(b *testing.B) {
	opts := benchOptions()
	if opts.SoloWarmCycles < 30_000_000 {
		opts.SoloWarmCycles = 30_000_000
		opts.SoloMeasureCycles = 10_000_000
	}
	ways := []int{2, 4, 8, 12, 20}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig3Of(opts, workload.Suite(), ways)
		if err != nil {
			b.Fatal(err)
		}
		sensitive := 0
		for _, r := range rows {
			if r.Needs80 >= 8 {
				sensitive++
			}
		}
		b.ReportMetric(float64(sensitive), "llc_sensitive_count")
	}
}

// BenchmarkFig7_PT regenerates Fig. 7: normalized HS/WS of prefetch
// throttling per workload category.
func BenchmarkFig7_PT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := comparison(b, "PT")
		reportCategoryMeans(b, c, "PT", "hs", experiments.MetricHS)
	}
}

// BenchmarkFig8_PTWorstCase regenerates Fig. 8: the lowest per-app
// normalized IPC under PT.
func BenchmarkFig8_PTWorstCase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := comparison(b, "PT")
		worst := 1.0
		for _, r := range c.Results["PT"] {
			if r.WorstCase < worst {
				worst = r.WorstCase
			}
		}
		b.ReportMetric(worst, "min_worst_case")
	}
}

// BenchmarkFig9_CP regenerates Fig. 9: HS/WS of Dunn vs Pref-CP vs
// Pref-CP2.
func BenchmarkFig9_CP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := comparison(b, "Dunn", "Pref-CP", "Pref-CP2")
		reportCategoryMeans(b, c, "Pref-CP", "prefcp_hs", experiments.MetricHS)
		reportCategoryMeans(b, c, "Dunn", "dunn_hs", experiments.MetricHS)
	}
}

// BenchmarkFig10_CPWorstCase regenerates Fig. 10: worst-case speedups of
// the CP mechanisms.
func BenchmarkFig10_CPWorstCase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := comparison(b, "Dunn", "Pref-CP", "Pref-CP2")
		reportCategoryMeans(b, c, "Pref-CP", "prefcp", experiments.MetricWorstCase)
		reportCategoryMeans(b, c, "Dunn", "dunn", experiments.MetricWorstCase)
	}
}

// BenchmarkFig11_CMM regenerates Fig. 11: HS/WS of CMM-a/b/c.
func BenchmarkFig11_CMM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := comparison(b, "CMM-a", "CMM-b", "CMM-c")
		reportCategoryMeans(b, c, "CMM-a", "cmma_hs", experiments.MetricHS)
		reportCategoryMeans(b, c, "CMM-b", "cmmb_hs", experiments.MetricHS)
	}
}

// BenchmarkFig12_CMMWorstCase regenerates Fig. 12: worst-case speedups of
// CMM-a/b/c (the paper's "80%+ for all workloads" claim).
func BenchmarkFig12_CMMWorstCase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := comparison(b, "CMM-a", "CMM-b", "CMM-c")
		worst := 1.0
		for _, p := range []string{"CMM-a", "CMM-b", "CMM-c"} {
			for _, r := range c.Results[p] {
				if r.WorstCase < worst {
					worst = r.WorstCase
				}
			}
		}
		b.ReportMetric(worst, "min_worst_case")
	}
}

// BenchmarkFig13_All regenerates Fig. 13: all 7 mechanisms side by side.
func BenchmarkFig13_All(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := comparison(b, allPolicies...)
		for _, p := range allPolicies {
			means := c.CategoryMeans(p, experiments.MetricHS)
			b.ReportMetric(means[mixes.PrefUnfri], strings.ReplaceAll(p, "-", "_")+"_hs_unfri")
		}
	}
}

// BenchmarkFig14_Bandwidth regenerates Fig. 14: normalized memory
// bandwidth of the 7 mechanisms.
func BenchmarkFig14_Bandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := comparison(b, allPolicies...)
		for _, p := range []string{"PT", "CMM-a"} {
			means := c.CategoryMeans(p, experiments.MetricBW)
			b.ReportMetric(means[mixes.PrefUnfri], strings.ReplaceAll(p, "-", "_")+"_bw_unfri")
		}
	}
}

// BenchmarkFig15_L2Stalls regenerates Fig. 15: normalized
// STALLS_L2_PENDING per workload.
func BenchmarkFig15_L2Stalls(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := comparison(b, allPolicies...)
		for _, p := range []string{"PT", "CMM-a"} {
			means := c.CategoryMeans(p, experiments.MetricStalls)
			b.ReportMetric(means[mixes.PrefFri], strings.ReplaceAll(p, "-", "_")+"_stalls_fri")
		}
	}
}

// evaluateMix scores one policy on one mix (ablation helper).
func evaluateMix(b *testing.B, cat mixes.Category, policy string, opt ...cmm.Option) cmm.Evaluation {
	b.Helper()
	names, err := cmm.MixBenchmarks(cat.String(), 0, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := cmm.Evaluate(names, policy, 1, 1, 2, opt...)
	if err != nil {
		b.Fatal(err)
	}
	return ev
}

// BenchmarkAblationPartitionFactor sweeps the Agg-partition sizing factor
// (paper: 1.5 ways per Agg core).
func BenchmarkAblationPartitionFactor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, factor := range []float64{1.0, 1.5, 2.5} {
			cfg := cmm.CMMDefaults()
			cfg.PartitionFactor = factor
			ev := evaluateMix(b, mixes.PrefAgg, "CMM-a", cmm.WithCMMConfig(cfg))
			b.ReportMetric(ev.NormWS, "ws_factor_"+trimFloat(factor))
		}
	}
}

// BenchmarkAblationEpochRatio sweeps the execution:sampling ratio (paper:
// 50:1; it reports other ratios behave similarly).
func BenchmarkAblationEpochRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, ratio := range []uint64{10, 20, 50} {
			cfg := cmm.CMMDefaults()
			cfg.SamplingInterval = 100_000
			cfg.ExecutionEpoch = ratio * cfg.SamplingInterval
			ev := evaluateMix(b, mixes.PrefUnfri, "PT", cmm.WithCMMConfig(cfg))
			b.ReportMetric(ev.NormWS, "ws_ratio_"+trimFloat(float64(ratio)))
		}
	}
}

// BenchmarkAblationGroups compares K-Means group counts for group-level
// throttling (paper: 3 groups; Panda et al. used a coarse 2).
func BenchmarkAblationGroups(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, groups := range []int{2, 3} {
			cfg := cmm.CMMDefaults()
			cfg.Groups = groups
			cfg.MaxIndividual = 1 // force grouping even for small Agg sets
			ev := evaluateMix(b, mixes.PrefUnfri, "PT", cmm.WithCMMConfig(cfg))
			b.ReportMetric(ev.NormWS, "ws_groups_"+trimFloat(float64(groups)))
		}
	}
}

// BenchmarkAblationThresholds sweeps the friendliness threshold (paper:
// 50% speedup) on a mixed-aggressor workload managed by CMM-a.
func BenchmarkAblationThresholds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, th := range []float64{0.3, 0.5, 0.8} {
			cfg := cmm.CMMDefaults()
			cfg.FriendlyThreshold = th
			ev := evaluateMix(b, mixes.PrefAgg, "CMM-a", cmm.WithCMMConfig(cfg))
			b.ReportMetric(ev.NormWS, "ws_friendly_"+trimFloat(th))
		}
	}
}

// trimFloat renders a sweep value as a metric-name suffix: 1.5 → "1p5",
// 50 → "50".
func trimFloat(f float64) string {
	s := strconv.FormatFloat(f, 'f', -1, 64)
	return strings.ReplaceAll(s, ".", "p")
}

// BenchmarkRunEpochs measures the controller's full epoch loop — the
// simulator inner loop plus profiling intervals, detection, and combo
// sampling — on an 8-core prefetch-unfriendly mix under CMM-a. This is
// the hot path every cold run-store miss pays; BENCH_*.json snapshots
// track its ns/epoch and allocs/epoch over time.
func BenchmarkRunEpochs(b *testing.B) {
	names, err := cmm.MixBenchmarks(mixes.PrefUnfri.String(), 0, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := cmm.CMMDefaults()
	// Cut-down epochs keep one iteration ~ms-scale on a single CPU
	// while exercising the same code path as the paper-size epochs.
	cfg.ExecutionEpoch = 400_000
	cfg.SamplingInterval = 40_000
	m, err := cmm.NewMachine(names, 1, cmm.WithCMMConfig(cfg))
	if err != nil {
		b.Fatal(err)
	}
	if err := m.UsePolicy("CMM-a"); err != nil {
		b.Fatal(err)
	}
	// Warm epoch so steady-state behaviour (caches resident, detection
	// stabilized) is what gets measured.
	if err := m.RunEpochs(1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.RunEpochs(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComparisonWorkers measures the parallel experiment engine:
// the same cut-down comparison with the serial Workers=1 path vs one
// worker per CPU. The sweep's wall-clock ratio is the engine's speedup
// (≈ min(NumCPU, runs) on idle multicore hardware; no gain on 1 CPU).
// Every variant produces bit-identical results — only the wall clock may
// differ.
func BenchmarkComparisonWorkers(b *testing.B) {
	opts := experiments.QuickOptions()
	opts.CMM.ExecutionEpoch = 400_000
	opts.CMM.SamplingInterval = 40_000
	opts.WarmEpochs = 0
	opts.MeasureEpochs = 1
	opts.SoloWarmCycles = 400_000
	opts.SoloMeasureCycles = 400_000
	opts.MixesPerCategory = 1
	var policies []icmm.Policy
	for _, n := range []string{"PT", "CMM-a"} {
		p, ok := icmm.PolicyByName(n)
		if !ok {
			b.Fatalf("unknown policy %s", n)
		}
		policies = append(policies, p)
	}
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			o := opts
			o.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunComparison(o, policies); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
