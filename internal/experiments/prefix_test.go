package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"cmm/internal/cmm"
	"cmm/internal/mixes"
	"cmm/internal/msr"
	"cmm/internal/pmu"
	"cmm/internal/runstore"
	"cmm/internal/sim"
	"cmm/internal/telemetry"
)

// prefixOptions is a comparison over 2 mixes and 2 seeds with short
// epochs, small enough for -race.
func prefixOptions(warm int) Options {
	o := tinyOptions()
	o.CMM.ExecutionEpoch = 300_000
	o.CMM.SamplingInterval = 30_000
	o.WarmEpochs = warm
	o.MeasureEpochs = 2
	o.SoloWarmCycles = 200_000
	o.SoloMeasureCycles = 200_000
	o.Seeds = []int64{1, 2}
	o.Workers = 2
	return o
}

// prefixMixes picks the first Pref Agg and Pref Unfri mixes.
func prefixMixes(t *testing.T, o Options) []mixes.Mix {
	t.Helper()
	all, err := mixes.All(o.Cores, o.BaseSeed)
	if err != nil {
		t.Fatal(err)
	}
	var out []mixes.Mix
	for _, c := range []mixes.Category{mixes.PrefAgg, mixes.PrefUnfri} {
		for _, m := range all {
			if m.Category == c {
				out = append(out, m)
				break
			}
		}
	}
	return out
}

// coldRun is the oracle: a run built cold with sim.New and driven by
// Controller.RunEpochs alone, as every run was before runs shared their
// first execution epoch.
func coldRun(t *testing.T, opts Options, mix mixes.Mix, policy cmm.Policy, seed int64, sink telemetry.Sink) policyRun {
	t.Helper()
	sys, err := sim.New(opts.Sim, mix.Specs, seed)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := cmm.NewController(opts.CMM, cmm.NewSimTarget(sys), policy)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.SetSink(telemetry.WithRun(sink, mix.Name, seed))
	if err := ctrl.RunEpochs(opts.WarmEpochs); err != nil {
		t.Fatal(err)
	}
	snaps := sys.Snapshots()
	nodeBefore := make([]uint64, sys.NumNodes())
	for nd := range nodeBefore {
		nodeBefore[nd] = sys.NodeBytes(nd)
	}
	start := sys.Now()
	if err := ctrl.RunEpochs(opts.MeasureEpochs); err != nil {
		t.Fatal(err)
	}
	deltas := sys.Deltas(snaps)
	run := policyRun{IPC: sim.IPCs(deltas), Cycles: sys.Now() - start, NodeBytes: make([]uint64, sys.NumNodes())}
	for nd := range run.NodeBytes {
		run.NodeBytes[nd] = sys.NodeBytes(nd) - nodeBefore[nd]
		run.Bytes += run.NodeBytes[nd]
	}
	for c := range deltas {
		run.Stalls += deltas[c].Value(pmu.StallsL2Pending)
	}
	run.Stats = cmm.SummarizeDecisions(ctrl.Decisions())
	run.ExecCycles, run.ProfCycles = ctrl.Overhead()
	return run
}

// epochLog keeps every epoch event by run.
type epochLog struct {
	mu    sync.Mutex
	byRun map[string][]telemetry.Event
}

func (l *epochLog) Emit(e telemetry.Event) {
	if e.Type != telemetry.TypeEpoch {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.byRun == nil {
		l.byRun = map[string][]telemetry.Event{}
	}
	k := fmt.Sprintf("%s/%s/%d", e.Mix, e.Policy, e.Seed)
	l.byRun[k] = append(l.byRun[k], e)
}

func openStore(t *testing.T) *runstore.Store {
	t.Helper()
	s, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkReleased asserts a finished sweep holds no prefix machine.
func checkReleased(t *testing.T, pc *prefixCache) {
	t.Helper()
	if pc.held != 0 || pc.m != nil || pc.free != nil {
		t.Errorf("prefix cache retains machines after the sweep: held=%d entries=%d free=%d", pc.held, len(pc.m), len(pc.free))
	}
}

// mirrorPolicy programs the machine exactly as inner does for its first
// k epochs and from then on also switches core 0's adjacent-line
// prefetcher off, a setting no paper policy writes: its run follows
// inner's recorded history until it diverges, then replays that head.
type mirrorPolicy struct {
	inner    cmm.Policy
	k, epoch int
}

func (p *mirrorPolicy) Name() string      { return "mirror" }
func (p *mirrorPolicy) Clone() cmm.Policy { return &mirrorPolicy{inner: p.inner.Clone(), k: p.k} }
func (p *mirrorPolicy) Epoch(t cmm.Target, cfg cmm.Config, exec []pmu.Sample) (cmm.Decision, error) {
	dec, err := p.inner.Epoch(t, cfg, exec)
	if err == nil && p.epoch >= p.k {
		err = t.WriteMSR(0, msr.MiscFeatureControl, msr.DisableL2Adjacent)
	}
	p.epoch++
	dec.Policy = p.Name()
	return dec, err
}

// relabelPolicy programs the machine exactly as inner does but reports
// other decisions: its run repeats inner's whole history, so its
// measurements match inner's while its events and decision stats differ.
type relabelPolicy struct{ inner cmm.Policy }

func (p relabelPolicy) Name() string      { return "relabel" }
func (p relabelPolicy) Clone() cmm.Policy { return relabelPolicy{p.inner.Clone()} }
func (p relabelPolicy) Epoch(t cmm.Target, cfg cmm.Config, exec []pmu.Sample) (cmm.Decision, error) {
	dec, err := p.inner.Epoch(t, cfg, exec)
	dec.Policy = p.Name()
	dec.Detection.Agg = nil
	dec.FellBackToDunn = !dec.FellBackToDunn
	return dec, err
}

// TestPrefixSharingMatchesColdOracle runs a comparison with shared
// histories, without warm-up on eight workers and with it on one, and
// checks it against runs built cold: every run's store bytes and epoch
// events are identical, and a comparison scored purely from the oracle's
// runs has the same MixResults and Telemetry summary. Beside PT and CMM-a
// it runs a policy that repeats PT's history with other decisions (its
// runs follow PT's throughout) and one that repeats CMM-a's for an epoch
// (its runs replay CMM-a's head, then run live); on one worker both must
// happen on every (mix, seed).
func TestPrefixSharingMatchesColdOracle(t *testing.T) {
	for _, tc := range []struct{ warm, workers int }{{0, 8}, {1, 1}} {
		t.Run(fmt.Sprintf("warm%d", tc.warm), func(t *testing.T) {
			opts := prefixOptions(tc.warm)
			opts.Workers = tc.workers
			selected := prefixMixes(t, opts)
			policies := tinyPolicies(t, "PT", "CMM-a")
			policies = append(policies, &mirrorPolicy{inner: policies[1], k: 1}, relabelPolicy{policies[0]})

			shared := opts
			shared.Store = openStore(t)
			var sharedLog epochLog
			shared.Telemetry = &sharedLog
			pc := new(prefixCache)
			got, err := runComparison(shared, selected, policies, pc)
			if err != nil {
				t.Fatal(err)
			}
			checkReleased(t, pc)
			if n := len(selected) * len(opts.Seeds); tc.workers == 1 && (pc.followed < n || pc.replayed < n) {
				t.Errorf("%d runs followed a whole history and %d replayed a head, want at least %d each", pc.followed, pc.replayed, n)
			}

			oracleStore := openStore(t)
			var oracleLog epochLog
			for _, mix := range selected {
				for _, seed := range opts.Seeds {
					for _, p := range append([]cmm.Policy{cmm.Baseline{}}, policies...) {
						want, err := runstore.Canonical(coldRun(t, opts, mix, p.Clone(), seed, &oracleLog))
						if err != nil {
							t.Fatal(err)
						}
						key, err := opts.policyKeyHash(mix, PolicyStoreName(p), seed)
						if err != nil {
							t.Fatal(err)
						}
						if b, ok := shared.Store.Get(key); !ok || !bytes.Equal(b, want) {
							t.Errorf("%s %s seed %d: store bytes differ from the cold run:\n got %s\nwant %s", mix.Name, p.Name(), seed, b, want)
						}
						if err := oracleStore.Put(key, want); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			if !reflect.DeepEqual(sharedLog.byRun, oracleLog.byRun) {
				t.Error("epoch telemetry differs from the cold runs")
			}

			scored := opts
			scored.Store = oracleStore
			var counters telemetry.Counters
			scored.Telemetry = &counters
			want, err := RunComparisonMixes(scored, selected, policies)
			if err != nil {
				t.Fatal(err)
			}
			if epochs, _, _, _ := storeCounts(&counters); epochs != 0 {
				t.Fatalf("scoring the oracle's runs simulated %d epochs; its store entries were not used", epochs)
			}
			if !reflect.DeepEqual(got.Results, want.Results) {
				t.Errorf("MixResults differ from the cold runs:\n got %+v\nwant %+v", got.Results, want.Results)
			}
			if !reflect.DeepEqual(got.Telemetry, want.Telemetry) {
				t.Errorf("Telemetry summary differs from the cold runs:\n got %+v\nwant %+v", got.Telemetry, want.Telemetry)
			}
		})
	}
}

// failPolicy fails its first epoch.
type failPolicy struct{}

func (failPolicy) Name() string        { return "fail" }
func (p failPolicy) Clone() cmm.Policy { return p }
func (failPolicy) Epoch(cmm.Target, cmm.Config, []pmu.Sample) (cmm.Decision, error) {
	return cmm.Decision{}, errors.New("injected failure")
}

// failAfter runs inner and fails its epoch at (counted from 0).
type failAfter struct {
	inner     cmm.Policy
	at, epoch int
}

func (p *failAfter) Name() string      { return "fail-after" }
func (p *failAfter) Clone() cmm.Policy { return &failAfter{inner: p.inner.Clone(), at: p.at} }
func (p *failAfter) Epoch(t cmm.Target, cfg cmm.Config, exec []pmu.Sample) (cmm.Decision, error) {
	if p.epoch == p.at {
		return cmm.Decision{}, errors.New("injected failure")
	}
	p.epoch++
	return p.inner.Epoch(t, cfg, exec)
}

// TestPrefixReleasedOnEveryExit: no prefix outlives its sweep, whether
// the sweep completes, is cancelled while a prefix still has runs to
// serve, or stops on a run's error, raised while the run follows a
// recorded history or after it replayed one. A completed one-worker sweep
// makes exactly two machines, however many mixes and seeds it has.
func TestPrefixReleasedOnEveryExit(t *testing.T) {
	opts := prefixOptions(1)
	opts.Workers = 1
	selected := prefixMixes(t, opts)

	t.Run("complete", func(t *testing.T) {
		pc := new(prefixCache)
		if _, err := runComparison(opts, selected, tinyPolicies(t, "PT"), pc); err != nil {
			t.Fatal(err)
		}
		checkReleased(t, pc)
		if pc.made != 2 {
			t.Errorf("one-worker sweep made %d machines, want 2 (a prefix and a working copy)", pc.made)
		}
	})

	t.Run("store hits", func(t *testing.T) {
		o := opts
		o.Store = openStore(t)
		if _, err := RunComparisonMixes(o, selected, tinyPolicies(t, "PT")); err != nil {
			t.Fatal(err)
		}
		pc := new(prefixCache)
		if _, err := runComparison(o, selected, tinyPolicies(t, "PT"), pc); err != nil {
			t.Fatal(err)
		}
		if pc.made != 0 {
			t.Errorf("a sweep served wholly from the store made %d machines", pc.made)
		}
		// A new policy ahead of a stored one: its run builds each prefix,
		// and the stored run after it releases the prefix for the next
		// mix to reuse.
		pc = new(prefixCache)
		if _, err := runComparison(o, selected, tinyPolicies(t, "CMM-a", "PT"), pc); err != nil {
			t.Fatal(err)
		}
		checkReleased(t, pc)
		if pc.made != 2 {
			t.Errorf("one-worker sweep made %d machines, want 2", pc.made)
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		o := opts
		o.Context = ctx
		nRuns := len(selected) * 2 * len(o.Seeds)
		o.Progress = func(done, total int) {
			if done == total-nRuns+1 { // the first policy run finished
				cancel()
			}
		}
		pc := new(prefixCache)
		if _, err := runComparison(o, selected, tinyPolicies(t, "PT"), pc); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if pc.made == 0 {
			t.Fatal("no prefix was built before the cancellation")
		}
		checkReleased(t, pc)
	})

	t.Run("run error", func(t *testing.T) {
		pc := new(prefixCache)
		policies := []cmm.Policy{failPolicy{}, tinyPolicies(t, "PT")[0]}
		if _, err := runComparison(opts, selected, policies, pc); err == nil {
			t.Fatal("failing policy did not fail the sweep")
		}
		if pc.made == 0 {
			t.Fatal("no prefix was built before the failure")
		}
		checkReleased(t, pc)
	})

	t.Run("follower error", func(t *testing.T) {
		pc := new(prefixCache)
		pt := tinyPolicies(t, "PT")[0]
		if _, err := runComparison(opts, selected, []cmm.Policy{pt, &failAfter{inner: relabelPolicy{pt}, at: 2}}, pc); err == nil {
			t.Fatal("failing policy did not fail the sweep")
		}
		if pc.followed != 1 {
			t.Errorf("%d runs ended following a history, want the failed one", pc.followed)
		}
		checkReleased(t, pc)
	})

	t.Run("replayed error", func(t *testing.T) {
		pc := new(prefixCache)
		cmmA := tinyPolicies(t, "CMM-a")[0]
		if _, err := runComparison(opts, selected, []cmm.Policy{cmmA, &failAfter{inner: &mirrorPolicy{inner: cmmA}, at: 2}}, pc); err == nil {
			t.Fatal("failing policy did not fail the sweep")
		}
		if pc.replayed != 1 {
			t.Errorf("%d runs replayed a recorded head, want the failed one", pc.replayed)
		}
		checkReleased(t, pc)
	})
}

// TestHistorySharingAccounting runs the golden quick Fig. 13 sweep on one
// worker with the policies in two orders. Whatever the order, exactly
// eight of the 32 policy runs repeat an earlier run's whole history and
// simulate nothing past their prefix, all runs of a group of identically
// programmed policies but the first: Pref-CP2 and CMM-a/b/c on Pref Fri
// (3); PT, Pref-CP and Pref-CP2 (PT only leaves alone the CAT registers
// the other two rewrite to the values they hold), and CMM-a/b/c, on Pref
// No Agg (4); CMM-a and CMM-c on Pref Unfri (1). The sweep
// makes at most two machines, releases them, and still matches the golden
// snapshot. A sweep cancelled mid-way, or stopped by a run that fails
// while it follows another's history, releases everything too.
func TestHistorySharingAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison runs are slow")
	}
	if raceEnabled {
		t.Skip("serial calibration test; ~10x slower under -race with no added coverage")
	}
	data, err := os.ReadFile(filepath.Join("testdata", "fig13_quick.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden goldenFig13
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	opts := shapeOptions()
	opts.Workers = 1
	selected, err := mixes.Selection(opts.Cores, opts.BaseSeed, opts.MixesPerCategory)
	if err != nil {
		t.Fatal(err)
	}
	all := cmm.Policies()[1:]
	for _, seed := range []int64{1, 2} {
		policies := make([]cmm.Policy, len(all))
		for i, j := range rand.New(rand.NewSource(seed)).Perm(len(all)) {
			policies[i] = all[j]
		}
		pc := new(prefixCache)
		comp, err := runComparison(opts, selected, policies, pc)
		if err != nil {
			t.Fatal(err)
		}
		checkReleased(t, pc)
		if pc.followed != 8 {
			t.Errorf("order %d: %d policy runs simulated nothing past their prefix, want 8", seed, pc.followed)
		}
		if pc.made > 2 {
			t.Errorf("order %d: one-worker sweep made %d machines, want at most 2", seed, pc.made)
		}
		for _, p := range golden.Policies {
			if !reflect.DeepEqual(comp.Results[p], golden.Results[p]) {
				t.Errorf("order %d: %s drifted from the golden snapshot:\n got %+v\nwant %+v", seed, p, comp.Results[p], golden.Results[p])
			}
		}
	}

	t.Run("cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		o := opts
		o.Context = ctx
		nRuns := len(selected) * (len(all) + 1) * len(o.Seeds)
		o.Progress = func(done, total int) {
			if done == total-nRuns+12 { // inside the second mix's history
				cancel()
			}
		}
		pc := new(prefixCache)
		if _, err := runComparison(o, selected, all, pc); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		checkReleased(t, pc)
		if pc.made > 2 {
			t.Errorf("one-worker sweep made %d machines, want at most 2", pc.made)
		}
	})

	t.Run("follower error", func(t *testing.T) {
		byName := map[string]cmm.Policy{}
		for _, p := range all {
			byName[p.Name()] = p
		}
		pc := new(prefixCache)
		policies := []cmm.Policy{byName["CMM-a"], &failAfter{inner: byName["CMM-b"], at: 2}}
		if _, err := runComparison(opts, selected, policies, pc); err == nil {
			t.Fatal("failing policy did not fail the sweep")
		}
		if pc.followed != 1 {
			t.Errorf("%d runs ended following a history, want the failed one", pc.followed)
		}
		checkReleased(t, pc)
	})
}
