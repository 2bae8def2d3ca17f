package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"cmm/internal/cmm"
	"cmm/internal/mixes"
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

// TestPrefixSharingMatchesColdOracle runs a comparison with shared first
// epochs, with and without warm-up, and checks it against runs built
// cold: every run's store bytes and epoch events are identical, and a
// comparison scored purely from the oracle's runs has the same
// MixResults and Telemetry summary.
func TestPrefixSharingMatchesColdOracle(t *testing.T) {
	for _, warm := range []int{0, 1} {
		t.Run(fmt.Sprintf("warm%d", warm), func(t *testing.T) {
			opts := prefixOptions(warm)
			selected := prefixMixes(t, opts)
			policies := tinyPolicies(t, "PT", "CMM-a")

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

// TestPrefixReleasedOnEveryExit: no prefix outlives its sweep, whether
// the sweep completes, is cancelled while a prefix still has runs to
// serve, or stops on a run's error. A completed one-worker sweep makes
// exactly two machines, however many mixes and seeds it has.
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
}
