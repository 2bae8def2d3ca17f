package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"time"

	icmm "cmm/internal/cmm"
	"cmm/internal/experiments"
	"cmm/internal/mixes"
	"cmm/internal/telemetry"
)

// fig13Golden mirrors the golden quick Fig. 13 snapshot kept beside the
// experiments package's TestGoldenFig13Shape.
type fig13Golden struct {
	Policies   []string
	Mixes      []string
	MeanNormHS map[string]float64
	Results    map[string][]experiments.MixResult
}

func loadGolden(path string) (fig13Golden, error) {
	var g fig13Golden
	data, err := os.ReadFile(path)
	if err != nil {
		return g, err
	}
	if err := json.Unmarshal(data, &g); err != nil {
		return g, fmt.Errorf("parse %s: %w", path, err)
	}
	return g, nil
}

// fig13Options is the golden test's configuration: quick mode, one mix
// per category, on one worker. One worker makes each Progress tick one
// simulation run's latency, and keeps two runs from contending for one
// physical core, which made two-worker sweep times spread by a tenth.
func fig13Options() experiments.Options {
	o := experiments.QuickOptions()
	o.MixesPerCategory = 1
	o.Workers = 1
	return o
}

// fig13Policies returns the seven Fig. 13 policies in an order drawn from
// seed: the seed moves the schedule of the runs, never their results.
func fig13Policies(seed int64) []icmm.Policy {
	all := icmm.Policies()[1:]
	out := make([]icmm.Policy, len(all))
	for i, j := range rand.New(rand.NewSource(seed)).Perm(len(all)) {
		out[i] = all[j]
	}
	return out
}

// checkFig13 compares a comparison with the golden snapshot bit for bit:
// the mix list, every MixResult and every policy's mean NormHS, summed in
// the golden's mix order. Each comparison is one checked operation.
func checkFig13(comp *experiments.Comparison, want fig13Golden, out *outcome) {
	var mixNames []string
	for _, m := range comp.Mixes {
		mixNames = append(mixNames, m.Name)
	}
	var err error
	if !reflect.DeepEqual(mixNames, want.Mixes) {
		err = fmt.Errorf("fig13: mixes %v, golden %v", mixNames, want.Mixes)
	} else if len(comp.Policies) != len(want.Policies) {
		err = fmt.Errorf("fig13: %d policies, golden %d", len(comp.Policies), len(want.Policies))
	}
	out.check(err)
	for _, p := range want.Policies {
		got, w := comp.Results[p], want.Results[p]
		for i := range w {
			var err error
			switch {
			case i >= len(got):
				err = fmt.Errorf("fig13: %s has %d results, golden %d", p, len(got), len(w))
			case !reflect.DeepEqual(got[i], w[i]):
				err = fmt.Errorf("fig13: %s %s drifted from golden: got %+v", p, w[i].Mix, got[i])
			}
			out.check(err)
		}
		sum := 0.0
		for _, r := range got {
			sum += r.NormHS
		}
		var merr error
		if len(got) == 0 || sum/float64(len(got)) != want.MeanNormHS[p] {
			merr = fmt.Errorf("fig13: %s mean NormHS differs from golden %v", p, want.MeanNormHS[p])
		}
		out.check(merr)
	}
}

// sweepStats is one timed sweep.
type sweepStats struct {
	wall, cpu  time.Duration
	solo, runs time.Duration   // phase wall times, from Progress
	runTimes   []time.Duration // each policy run, from Progress ticks
	simCycles  float64         // simulated machine cycles, solo runs included
	soloRuns   int
}

// goldenMixes builds the paper's mixes for opts and returns the golden's,
// in the golden's order: the first mix of each category, which is what
// RunComparison selects at one mix per category.
func goldenMixes(opts experiments.Options, names []string) ([]mixes.Mix, error) {
	all, err := mixes.All(opts.Cores, opts.BaseSeed)
	if err != nil {
		return nil, err
	}
	byName := map[string]mixes.Mix{}
	for _, m := range all {
		byName[m.Name] = m
	}
	var out []mixes.Mix
	for _, n := range names {
		m, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("golden mix %q not built", n)
		}
		out = append(out, m)
	}
	return out, nil
}

// sweep runs one cold comparison over selected and times it through
// Progress. With a tracer it records the sweep, its solo and runs phases,
// and one span per controller epoch from a telemetry sink.
func sweep(opts experiments.Options, selected []mixes.Mix, policies []icmm.Policy, tr *tracer, parent int) (*experiments.Comparison, sweepStats, error) {
	var st sweepStats
	nRuns := len(selected) * (len(policies) + 1) * len(opts.Seeds)
	var mu sync.Mutex // guards st.runTimes, last, soloEnd and phase
	root := tr.open("sweep", parent)
	phase := tr.open("phase.solo", root)
	start := time.Now()
	last, soloEnd := start, start
	opts.Progress = func(done, total int) {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		if done > total-nRuns {
			st.runTimes = append(st.runTimes, now.Sub(last))
		}
		last = now
		if done == total-nRuns {
			soloEnd, st.soloRuns = now, done
			tr.close(phase)
			phase = tr.open("phase.runs", root)
		}
	}
	if tr != nil {
		opts.Telemetry = &epochSpans{tr: tr, last: map[string]time.Time{}, parent: func() int {
			mu.Lock()
			defer mu.Unlock()
			return phase
		}}
	}
	cpu0 := cpuTime()
	comp, err := experiments.RunComparisonMixes(opts, selected, policies)
	end := time.Now()
	st.wall, st.cpu = end.Sub(start), cpuTime()-cpu0
	tr.close(phase)
	tr.close(root)
	if err != nil {
		return nil, st, err
	}
	st.solo, st.runs = soloEnd.Sub(start), end.Sub(soloEnd)
	for _, ts := range comp.Telemetry {
		st.simCycles += float64(ts.ExecutionCycles + ts.ProfilingCycles)
	}
	st.simCycles += float64(st.soloRuns) * float64(opts.SoloWarmCycles+opts.SoloMeasureCycles)
	return comp, st, nil
}

// epochSpans is a telemetry sink that records one span per controller
// epoch of a sweep: from the run's previous epoch event to this one. The
// first epoch of each run has no earlier event and is not recorded.
type epochSpans struct {
	tr     *tracer
	parent func() int
	mu     sync.Mutex
	last   map[string]time.Time
}

func (s *epochSpans) Emit(e telemetry.Event) {
	if e.Type != telemetry.TypeEpoch {
		return
	}
	now := time.Now()
	key := fmt.Sprintf("%s/%s/%d", e.Mix, e.Policy, e.Seed)
	s.mu.Lock()
	prev, ok := s.last[key]
	s.last[key] = now
	s.mu.Unlock()
	if ok {
		s.tr.add("run.epoch", s.parent(), prev, now)
	}
}

// runFig13 is the fig13-quick workload: one cold quick-mode Fig. 13
// comparison, checked against the golden snapshot. A sweep takes longer
// than the measured time a run is given, so a run is one sweep.
//
// Set-up loads the golden and builds the comparison's inputs, the options
// and the four mixes; the sweep is RunComparison's own RunComparisonMixes
// over them. Building the mixes takes about a millisecond and times
// steadily; loading the golden alone took a tenth of that, and its median
// moved by a third between sets of runs on the machine in the README.
func runFig13(e env) (outcome, error) {
	var out outcome
	type prepared struct {
		golden   fig13Golden
		opts     experiments.Options
		mixes    []mixes.Mix
		policies []icmm.Policy
	}
	p, setupS, err := timeSetup(e.setupReps, func() (prepared, error) {
		g, err := loadGolden(goldenPath(e.root))
		if err != nil {
			return prepared{}, err
		}
		opts := fig13Options()
		if err := opts.Validate(); err != nil {
			return prepared{}, err
		}
		ms, err := goldenMixes(opts, g.Mixes)
		return prepared{g, opts, ms, fig13Policies(e.seed)}, err
	}, nil)
	if err != nil {
		return out, err
	}
	comp, st, err := sweep(p.opts, p.mixes, p.policies, e.tr, -1)
	if err != nil {
		return out, err
	}
	checkFig13(comp, p.golden, &out)
	out.set("setup_s", "s", setupS)
	if out.failed == 0 { // a sweep that drifted from the golden is not timed
		fig13Metrics(&out, st)
	}
	if e.tr != nil {
		fig13Layers(&out, st)
	}
	out.set("peak_rss_mb", "MB", peakRSSMB())
	return out, nil
}

// fig13Metrics reports the sweep's end-to-end metrics: the whole sweep is
// the primary operation, one policy run (the time between Progress ticks
// on one worker) the secondary one. Solo runs are left out: they are a
// sixth of a policy run. The 32 policy runs of a sweep differ several-fold
// by policy and mix, and their median fell in a gap of that spread that
// moved with the seeded run order (a sixth of the median between seeds),
// so the typical policy run is their mean, the runs phase over 32. The
// sweep's tail is its slowest policy run; the secondary tail is p68, the
// highest percentile with ten runs beyond it.
func fig13Metrics(out *outcome, st sweepStats) {
	runs := durMs(st.runTimes)
	sum := 0.0
	for _, r := range runs {
		sum += r
	}
	out.set("op_ms", "ms", float64(st.wall)/1e6)
	out.set("op_tail_ms", "ms", quantile(runs, 1))
	out.set("op2_ms", "ms", sum/float64(len(runs)))
	out.set("op2_tail_ms", "ms", quantile(runs, 0.68))
	out.set("work_per_s", "1/s", st.simCycles/1e6/st.wall.Seconds())
	out.set("cpu_ms_per_op", "ms", float64(st.cpu)/1e6)
}
