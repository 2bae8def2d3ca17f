package experiments

import (
	"fmt"

	"cmm/internal/cmm"
	"cmm/internal/metrics"
	"cmm/internal/mixes"
	"cmm/internal/parallel"
	"cmm/internal/pmu"
	"cmm/internal/telemetry"
	"cmm/internal/workload"
)

// policyRun is the raw measurement of one (mix, policy, seed) run.
type policyRun struct {
	IPC    []float64 // per core, over the measurement window
	Bytes  uint64    // memory bytes moved during the window, summed over nodes
	Stalls uint64    // summed STALLS_L2_PENDING deltas
	Cycles uint64    // wall cycles of the window

	// NodeBytes is the per-NUMA-node breakdown of Bytes (one entry per
	// node's memory controller; a single entry on single-socket machines).
	NodeBytes []uint64 `json:",omitempty"`

	// Stats and the cycle split summarize the controller's behaviour over
	// the whole run (warm + measure epochs) for Comparison.Telemetry.
	Stats                  cmm.DecisionStats
	ExecCycles, ProfCycles uint64
}

// runPolicy drives policy over t, a run at the root of its mix's history
// tree (see prefixCache), and measures the run: the controller finishes
// the first execution epoch, which started from the cold PMU state
// t.p.start, runs the rest of the warm-up, and then the measured epochs.
// Every measurement is read from the node the run ends at.
func runPolicy(opts Options, t *runTarget, mix string, policy cmm.Policy, seed int64) (policyRun, error) {
	ctrl, err := cmm.NewController(opts.CMM, t, policy)
	if err != nil {
		return policyRun{}, err
	}
	if opts.Telemetry != nil {
		ctrl.SetSink(telemetry.WithRun(opts.Telemetry, mix, seed))
	}
	if err := ctrl.FinishEpoch(t.p.start); err != nil {
		return policyRun{}, err
	}
	// Bandwidth is tracked per node: each NUMA node owns a controller, so
	// machine-wide traffic is the sum over node controllers, never a single
	// controller's field. Without warm-up the measurement spans the first
	// epoch too, from the cold machine: its snapshots are start, and at
	// cycle 0 it has moved no bytes.
	from := &histNode{snaps: t.p.start, nodeBytes: make([]uint64, len(t.at.nodeBytes))}
	measure := opts.MeasureEpochs - 1
	if opts.WarmEpochs > 0 {
		if err := ctrl.RunEpochs(opts.WarmEpochs - 1); err != nil {
			return policyRun{}, err
		}
		from, measure = t.at, opts.MeasureEpochs
	}
	if err := ctrl.RunEpochs(measure); err != nil {
		return policyRun{}, err
	}
	to := t.at
	run := policyRun{
		IPC:       make([]float64, len(to.snaps)),
		Cycles:    to.now - from.now,
		NodeBytes: make([]uint64, len(to.nodeBytes)),
	}
	for c := range to.snaps {
		d := to.snaps[c].Delta(from.snaps[c])
		run.IPC[c] = d.IPC()
		run.Stalls += d.Value(pmu.StallsL2Pending)
	}
	for nd := range run.NodeBytes {
		run.NodeBytes[nd] = to.nodeBytes[nd] - from.nodeBytes[nd]
		run.Bytes += run.NodeBytes[nd]
	}
	run.Stats = cmm.SummarizeDecisions(ctrl.Decisions())
	run.ExecCycles, run.ProfCycles = ctrl.Overhead()
	return run, nil
}

// MixResult is one mix's scores for one policy — one point of each of
// Figs. 7–15, already normalized to the baseline run of the same seed and
// median-reduced across seeds.
type MixResult struct {
	Mix      string
	Category mixes.Category
	// NormHS is HS(policy)/HS(baseline) (Figs. 7/9/11/13, left bars).
	NormHS float64
	// NormWS is the normalized weighted speedup over baseline, divided
	// by the core count (Figs. 7/9/11/13, right bars).
	NormWS float64
	// WorstCase is min-over-apps IPC(policy)/IPC(baseline)
	// (Figs. 8/10/12).
	WorstCase float64
	// NormBW is bytes-per-cycle relative to baseline (Fig. 14).
	NormBW float64
	// NormStalls is summed STALLS_L2_PENDING per cycle relative to
	// baseline (Fig. 15).
	NormStalls float64
	// WorstBenchmark names the application behind WorstCase — the
	// "at least one application is significantly reduced" discussion
	// around Fig. 8 (taken from the last seed's run).
	WorstBenchmark string
}

// TelemetrySummary aggregates the controller telemetry of every run of
// one policy in a comparison (all mixes and seeds, warm plus measured
// epochs), so figure runs can report controller overhead alongside HS/WS
// — the analogue of the paper's <0.1% kernel-module overhead claim.
type TelemetrySummary struct {
	// Runs is how many (mix, seed) simulations the policy drove.
	Runs int
	// Epochs, Detections, ThrottleFlips, PartitionChanges and
	// SampledCombos sum cmm.DecisionStats over those runs.
	Epochs           int
	Detections       int
	ThrottleFlips    int
	PartitionChanges int
	SampledCombos    int
	// Predictions and LearnFallbacks count the learned policy's (CMM-L)
	// model-decided versus sampling-fallback epochs (zero elsewhere).
	Predictions    int
	LearnFallbacks int
	// ExecutionCycles and ProfilingCycles split the controllers' machine
	// time; OverheadFraction is the profiling share of the total.
	ExecutionCycles  uint64
	ProfilingCycles  uint64
	OverheadFraction float64
}

// Comparison holds the full policy-comparison dataset.
type Comparison struct {
	Options  Options
	Mixes    []mixes.Mix
	Policies []string
	// Results[policy][i] scores mix i under the policy.
	Results map[string][]MixResult
	// Telemetry summarizes controller behaviour per policy (the baseline
	// included, under "baseline").
	Telemetry map[string]TelemetrySummary
}

// soloIPCs runs the alone-IPC simulation (needed by HS) of each distinct
// benchmark once, fanning the runs out across the worker pool, and returns
// the IPCs by benchmark name. runFn is runSolo, or a test double counting
// invocations.
func soloIPCs(opts Options, specs []workload.Spec, prog *progressCounter, runFn soloRunner) (map[string]float64, error) {
	ipcs := make([]float64, len(specs))
	err := parallel.ForEachCtx(opts.ctx(), opts.Workers, len(specs), func(i int) error {
		r, err := runSoloCached(opts, specs[i], opts.BaseSeed, 0, 0, runFn)
		if err != nil {
			return fmt.Errorf("alone IPC %s: %w", specs[i].Name, err)
		}
		ipcs[i] = r.IPC
		prog.tick()
		return nil
	})
	if err != nil {
		return nil, err
	}
	byName := make(map[string]float64, len(specs))
	for i, spec := range specs {
		byName[spec.Name] = ipcs[i]
	}
	return byName, nil
}

// uniqueSpecs lists each distinct benchmark of the mixes once, in first-
// appearance order.
func uniqueSpecs(ms []mixes.Mix) []workload.Spec {
	seen := map[string]bool{}
	var out []workload.Spec
	for _, m := range ms {
		for _, s := range m.Specs {
			if !seen[s.Name] {
				seen[s.Name] = true
				out = append(out, s)
			}
		}
	}
	return out
}

// RunComparison measures every mix under every given policy (plus the
// baseline), computing all Figs. 7–15 metrics. Policies are identified by
// their report names; pass cmm.Policies()[1:] for the paper's full set.
//
// Every (mix, policy, seed) simulation run is independent, so the engine
// fans them out across Options.Workers goroutines; each run drives a Clone
// of the policy over its own target, which follows the recorded history of
// the mix's earlier runs and simulates on a machine of its own only where
// it departs from them (see prefixCache), so no two runs alias mutable
// state. Results land in slots keyed by (mix, policy, seed) index
// and the final scoring pass walks them in deterministic order — the
// output is bit-identical for any worker count.
//
// With Options.Store set, every run is consulted against the
// content-addressed result store first: a warm store serves the whole
// comparison without simulating anything, bit-identical to the cold run
// (the stored values are the canonical JSON of each run's measurements).
// Options.Context, when set, cancels the sweep between runs.
func RunComparison(opts Options, policies []cmm.Policy) (*Comparison, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	selected, err := mixes.Selection(opts.Cores, opts.BaseSeed, opts.MixesPerCategory)
	if err != nil {
		return nil, err
	}
	return RunComparisonMixes(opts, selected, policies)
}

// RunComparisonMixes is RunComparison over an explicit mix list instead of
// the paper's category selection — the entry point for sweeps outside the
// Fig. 13 set (e.g. the bandwidth-saturated family). Every mix must be
// sized for opts.Cores.
func RunComparisonMixes(opts Options, selected []mixes.Mix, policies []cmm.Policy) (*Comparison, error) {
	return runComparison(opts, selected, policies, new(prefixCache), runSolo)
}

// runComparison is RunComparisonMixes with the sweep's prefix cache and
// solo runner supplied, so tests can inspect the one afterwards and count
// the other's invocations.
func runComparison(opts Options, selected []mixes.Mix, policies []cmm.Policy, prefixes *prefixCache, runSoloFn soloRunner) (*Comparison, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	for _, m := range selected {
		if len(m.Specs) != opts.Cores {
			return nil, fmt.Errorf("experiments: mix %q has %d specs, options want %d cores",
				m.Name, len(m.Specs), opts.Cores)
		}
	}

	comp := &Comparison{Options: opts, Mixes: selected, Results: map[string][]MixResult{}}
	for _, p := range policies {
		comp.Policies = append(comp.Policies, p.Name())
	}

	// Run index 0 is the baseline; index i+1 is policies[i].
	runPolicies := append([]cmm.Policy{cmm.Baseline{}}, policies...)
	uniq := uniqueSpecs(selected)
	nRuns := len(selected) * len(runPolicies) * len(opts.Seeds)
	prog := newProgress(opts, len(uniq)+nRuns)

	// Phase 1: per-benchmark alone-IPC runs (needed by HS), in parallel.
	solo, err := soloIPCs(opts, uniq, prog, runSoloFn)
	if err != nil {
		return nil, err
	}

	// Phase 2: every (mix, policy, seed) run, in parallel. runs[mi][pi]
	// holds per-seed results for mix mi under runPolicies[pi].
	runs := make([][][]policyRun, len(selected))
	for mi := range runs {
		runs[mi] = make([][]policyRun, len(runPolicies))
		for pi := range runs[mi] {
			runs[mi][pi] = make([]policyRun, len(opts.Seeds))
		}
	}
	// Jobs run (mix, seed)-major, so each (mix, seed)'s runs follow one
	// another and a worker holds at most one prefix at a time.
	type job struct{ mi, pi, si int }
	jobs := make([]job, 0, nRuns)
	for mi := range selected {
		for si := range opts.Seeds {
			for pi := range runPolicies {
				jobs = append(jobs, job{mi, pi, si})
			}
		}
	}
	prefixes.init(opts, len(selected), len(opts.Seeds), len(runPolicies))
	defer prefixes.close()
	err = parallel.ForEachCtx(opts.ctx(), opts.Workers, len(jobs), func(j int) error {
		jb := jobs[j]
		mix, p, seed := selected[jb.mi], runPolicies[jb.pi], opts.Seeds[jb.si]
		k := prefixKey{jb.mi, jb.si}
		simulated := false
		r, err := runPolicyCached(opts, mix, p, seed, func(policy cmm.Policy) (policyRun, error) {
			simulated = true
			t, err := prefixes.acquire(k, mix, seed)
			if err != nil {
				return policyRun{}, err
			}
			defer prefixes.finish(t)
			return runPolicy(opts, t, mix.Name, policy, seed)
		})
		if !simulated {
			prefixes.skip(k)
		}
		if err != nil {
			return fmt.Errorf("%s %s: %w", mix.Name, p.Name(), err)
		}
		runs[jb.mi][jb.pi][jb.si] = r
		prog.tick()
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Aggregate per-policy controller telemetry in deterministic
	// (policy, mix, seed) order; integer sums, so ordering is moot, but
	// the habit keeps every reduction in this engine order-independent.
	comp.Telemetry = map[string]TelemetrySummary{}
	for pi, p := range runPolicies {
		var ts TelemetrySummary
		for mi := range selected {
			for si := range opts.Seeds {
				r := runs[mi][pi][si]
				ts.Runs++
				ts.Epochs += r.Stats.Epochs
				ts.Detections += r.Stats.Detections
				ts.ThrottleFlips += r.Stats.ThrottleFlips
				ts.PartitionChanges += r.Stats.PartitionChanges
				ts.SampledCombos += r.Stats.SampledCombos
				ts.Predictions += r.Stats.Predictions
				ts.LearnFallbacks += r.Stats.LearnFallbacks
				ts.ExecutionCycles += r.ExecCycles
				ts.ProfilingCycles += r.ProfCycles
			}
		}
		if total := ts.ExecutionCycles + ts.ProfilingCycles; total > 0 {
			ts.OverheadFraction = float64(ts.ProfilingCycles) / float64(total)
		}
		comp.Telemetry[p.Name()] = ts
	}

	// Phase 3: serial scoring in mix/policy order — cheap arithmetic whose
	// inputs are already fixed, so the reduction order (and therefore the
	// floating-point result) never depends on run completion order.
	for mi, mix := range selected {
		alone := make([]float64, len(mix.Specs))
		for i, spec := range mix.Specs {
			alone[i] = solo[spec.Name]
		}
		base := runs[mi][0]
		for pi, p := range policies {
			res, err := scoreRuns(opts, mix, runs[mi][pi+1], alone, base)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", mix.Name, p.Name(), err)
			}
			comp.Results[p.Name()] = append(comp.Results[p.Name()], res)
		}
	}
	return comp, nil
}

// scoreRuns reduces one policy's per-seed runs on one mix to the median
// MixResult, normalizing each seed against the same-seed baseline run.
func scoreRuns(opts Options, mix mixes.Mix, seedRuns []policyRun, alone []float64, base []policyRun) (MixResult, error) {
	var hs, ws, wc, bw, st []float64
	worstBench := ""
	for si := range opts.Seeds {
		run := seedRuns[si]
		b := base[si]
		if len(run.NodeBytes) != len(b.NodeBytes) {
			// Mixed geometries (e.g. a stale store entry from a different
			// topology) would make the bandwidth normalization compare
			// different machines.
			return MixResult{}, fmt.Errorf("experiments: seed %d: policy run counts %d memory nodes, baseline %d",
				opts.Seeds[si], len(run.NodeBytes), len(b.NodeBytes))
		}
		// Guard the per-core division like metrics.WorstCaseSpeedup does:
		// a zero-IPC baseline core would otherwise make the worst-core
		// scan NaN-driven (every NaN comparison is false, so the winner
		// depends on core order) and silently poison WorstBenchmark.
		worstCore, worstRatio := -1, 0.0
		for c := 0; c < len(run.IPC); c++ {
			if b.IPC[c] <= 0 {
				return MixResult{}, fmt.Errorf("experiments: seed %d: baseline IPC of core %d (%s) is %g, not positive",
					opts.Seeds[si], c, mix.Specs[c].Name, b.IPC[c])
			}
			if r := run.IPC[c] / b.IPC[c]; worstCore < 0 || r < worstRatio {
				worstCore, worstRatio = c, r
			}
		}
		worstBench = mix.Specs[worstCore].Name
		hsP, err := metrics.HarmonicSpeedup(alone, run.IPC)
		if err != nil {
			return MixResult{}, err
		}
		hsB, err := metrics.HarmonicSpeedup(alone, b.IPC)
		if err != nil {
			return MixResult{}, err
		}
		wsN, err := metrics.NormalizedWS(run.IPC, b.IPC)
		if err != nil {
			return MixResult{}, err
		}
		worst, err := metrics.WorstCaseSpeedup(run.IPC, b.IPC)
		if err != nil {
			return MixResult{}, err
		}
		bwR, err := normRatio(run.Bytes, run.Cycles, b.Bytes, b.Cycles)
		if err != nil {
			return MixResult{}, fmt.Errorf("experiments: seed %d: memory bandwidth: %w", opts.Seeds[si], err)
		}
		stR, err := normRatio(run.Stalls, run.Cycles, b.Stalls, b.Cycles)
		if err != nil {
			return MixResult{}, fmt.Errorf("experiments: seed %d: L2 pending stalls: %w", opts.Seeds[si], err)
		}
		hs = append(hs, hsP/hsB)
		ws = append(ws, wsN)
		wc = append(wc, worst)
		bw = append(bw, bwR)
		st = append(st, stR)
	}
	return MixResult{
		Mix:            mix.Name,
		Category:       mix.Category,
		NormHS:         metrics.Median(hs),
		NormWS:         metrics.Median(ws),
		WorstCase:      metrics.Median(wc),
		NormBW:         metrics.Median(bw),
		NormStalls:     metrics.Median(st),
		WorstBenchmark: worstBench,
	}, nil
}

func perCycle(v, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(v) / float64(cycles)
}

// normRatio is the policy/baseline ratio of two per-cycle rates (Fig. 14
// bandwidth, Fig. 15 stalls). A compute-bound mix can legitimately move
// zero bytes (or record zero stalls) in a short window under both runs —
// that is parity, 1.0, not 0/0 — while a zero baseline rate against a
// non-zero policy rate has no meaningful normalization and is an error
// (the old code returned Inf and the median silently propagated it).
func normRatio(v, cycles, baseV, baseCycles uint64) (float64, error) {
	p, b := perCycle(v, cycles), perCycle(baseV, baseCycles)
	switch {
	case b > 0:
		return p / b, nil
	case p == 0:
		return 1, nil
	default:
		return 0, fmt.Errorf("baseline rate is zero while the policy rate is %g/cycle", p)
	}
}

// CategoryMeans averages a metric per workload category (the grey bars of
// the paper's figures).
func (c *Comparison) CategoryMeans(policy string, metric func(MixResult) float64) map[mixes.Category]float64 {
	sums := map[mixes.Category]float64{}
	counts := map[mixes.Category]int{}
	for _, r := range c.Results[policy] {
		sums[r.Category] += metric(r)
		counts[r.Category]++
	}
	out := map[mixes.Category]float64{}
	for cat, s := range sums {
		out[cat] = s / float64(counts[cat])
	}
	return out
}

// Metric selectors for CategoryMeans and the table printers.
var (
	MetricHS        = func(r MixResult) float64 { return r.NormHS }
	MetricWS        = func(r MixResult) float64 { return r.NormWS }
	MetricWorstCase = func(r MixResult) float64 { return r.WorstCase }
	MetricBW        = func(r MixResult) float64 { return r.NormBW }
	MetricStalls    = func(r MixResult) float64 { return r.NormStalls }
)
