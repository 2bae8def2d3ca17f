package cmm

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cmm/internal/mixes"
	"cmm/internal/msr"
	"cmm/internal/sim"
	"cmm/internal/workload"
)

var updateDecisions = flag.Bool("update", false, "rewrite the decision-stream golden files from the current run")

// The decision-stream golden pins every back end's machine programming
// epoch by epoch on the real simulator: each epoch's Decision as JSON and
// the MSR image the policy leaves behind for the next execution epoch
// (prefetch control and PQR association per core, L3 masks and MBA delays
// per CLOS on every package). Any refactor of the policies must reproduce
// it bit for bit; regenerate with
//
//	go test ./internal/cmm -run TestDecisionStreamGolden -update
//
// and review the diff only when a change is meant to move decisions.

// goldenEpochs is long enough for a ComboRefreshEpochs=3 run to profile,
// reassert twice from the gate, and profile again.
const goldenEpochs = 4

// goldenScenario is one machine a policy is driven on; refresh is
// Config.ComboRefreshEpochs.
type goldenScenario struct {
	name           string
	nodes, refresh int
	specs          []workload.Spec
}

func goldenScenarios(t *testing.T) []goldenScenario {
	// Every Agg core turns prefetch-unfriendly after the first epoch: the
	// per-group layout without a friendly group, and throttled cores.
	unfri, err := mixes.Build(mixes.PrefUnfri, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	// K-Means groups and per-node CAT/MBA on two NUMA nodes.
	many, err := mixes.ManyCoreFamily(16, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A stable split of both classes with throttled cores and a nonzero
	// bandwidth partition, reasserted from the caches.
	bw, err := mixes.BWSaturated(8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// One core alternates between a streaming and a random phase, so the
	// Agg set empties and refills: the quiet path and a re-profile after
	// it.
	quiet, ok := workload.ByName("453.povray")
	if !ok {
		t.Fatal("unknown benchmark 453.povray")
	}
	phased := workload.Spec{Name: "phased", Pattern: workload.Phased,
		WorkingSet: 64 << 20, StepBytes: 16, PhaseRefs: 30_000, MLP: 5, GapInstrs: 2}
	return []goldenScenario{
		{"8c-prefunfri", 1, 1, unfri.Specs},
		{"8c-prefunfri", 1, 3, unfri.Specs},
		{"16c-2node", 2, 1, many[0].Specs},
		{"16c-2node", 2, 3, many[0].Specs},
		{"8c-bwsat", 1, 3, bw[0].Specs},
		{"4c-phased", 1, 3, []workload.Spec{phased, quiet, quiet, quiet}},
	}
}

// goldenPolicies lists every registered back end plus CMM-L in its three
// modes. Each run gets a fresh instance: CMM-L's drift monitor is shared
// across clones, so a clone would carry one run's demotion into the next.
func goldenPolicies() map[string]func(t *testing.T) Policy {
	out := map[string]func(t *testing.T) Policy{}
	for _, p := range append(Policies(), ExtensionPolicies()...) {
		out[p.Name()] = func(*testing.T) Policy { return p.Clone() }
	}
	learned := func(name string, pLow, pHigh, threshold float64, drift *DriftConfig) {
		out[name] = func(t *testing.T) Policy {
			lp, err := NewLearned(stubModel(t, pLow, pHigh), threshold)
			if err != nil {
				t.Fatal(err)
			}
			if drift != nil {
				lp.EnableDrift(*drift)
			}
			return lp
		}
	}
	// Confident on every core: the predicted path.
	learned("CMM-L-predicted", 0.02, 0.98, 0.5, nil)
	// Threshold above every confidence: the sampling fallback.
	learned("CMM-L-fallback", 0.02, 0.98, 2, nil)
	// Confidently keeps every Agg core: audits disagree with the sampled
	// truth and the policy demotes itself to CMM-a.
	learned("CMM-L-demoted", 0.98, 0.98, 0.5, &DriftConfig{
		Window: 4, MinSamples: 1, AgreementFloor: 0.99, ShadowEvery: 1,
	})
	return out
}

// msrImage is the machine programming a policy leaves for the next
// execution epoch. L3 and MBA hold one row per package leader, one entry
// per CLOS.
type msrImage struct {
	Prefetch []string   `json:"prefetch"`
	PQR      []string   `json:"pqr"`
	L3       [][]string `json:"l3"`
	MBA      [][]string `json:"mba"`
}

func readMSRImage(t *testing.T, tg Target) msrImage {
	t.Helper()
	read := func(cpu int, reg uint32) string {
		v, err := tg.ReadMSR(cpu, reg)
		if err != nil {
			t.Fatalf("read MSR %#x on cpu %d: %v", reg, cpu, err)
		}
		return fmt.Sprintf("%#x", v)
	}
	var img msrImage
	n := tg.NumCores()
	for c := 0; c < n; c++ {
		img.Prefetch = append(img.Prefetch, read(c, msr.MiscFeatureControl))
		img.PQR = append(img.PQR, read(c, msr.PQRAssoc))
	}
	catCfg := tg.CATConfig()
	step := catCfg.CoresPerPackage
	if step <= 0 || step > n {
		step = n
	}
	for leader := 0; leader < n; leader += step {
		var l3, mba []string
		for clos := 0; clos < catCfg.NumCLOS; clos++ {
			l3 = append(l3, read(leader, msr.L3MaskBase+uint32(clos)))
			mba = append(mba, read(leader, msr.MBAThrottleBase+uint32(clos)))
		}
		img.L3 = append(img.L3, l3)
		img.MBA = append(img.MBA, mba)
	}
	return img
}

// runGolden drives the policy on the scenario's machine and appends one
// JSON line per epoch to buf.
func runGolden(t *testing.T, buf *bytes.Buffer, p Policy, sc goldenScenario) {
	t.Helper()
	simCfg := sim.DefaultConfig()
	if sc.nodes > 1 {
		simCfg = sim.NUMAConfig(sc.nodes)
	}
	sys, err := sim.New(simCfg, sc.specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ExecutionEpoch = 100_000
	cfg.SamplingInterval = 20_000
	cfg.ComboRefreshEpochs = sc.refresh
	target := NewSimTarget(sys)
	ctrl, err := NewController(cfg, target, p)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < goldenEpochs; e++ {
		if err := ctrl.RunEpochs(1); err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(struct {
			Scenario string   `json:"scenario"`
			Refresh  int      `json:"combo_refresh_epochs"`
			Epoch    int      `json:"epoch"`
			Decision Decision `json:"decision"`
			MSR      msrImage `json:"msr"`
		}{sc.name, sc.refresh, e, ctrl.LastDecision(), readMSRImage(t, target)})
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(line, '\n'))
	}
}

func TestDecisionStreamGolden(t *testing.T) {
	scenarios := goldenScenarios(t)
	for name, newPolicy := range goldenPolicies() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			for _, sc := range scenarios {
				runGolden(t, &buf, newPolicy(t), sc)
			}
			file := strings.NewReplacer("+", "p", " ", "-").Replace(name) + ".jsonl"
			path := filepath.Join("testdata", "decisions", file)
			if *updateDecisions {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (regenerate with -update): %v", err)
			}
			got, want := strings.Split(buf.String(), "\n"), strings.Split(string(data), "\n")
			for i := 0; i < len(got) || i < len(want); i++ {
				var g, w string
				if i < len(got) {
					g = got[i]
				}
				if i < len(want) {
					w = want[i]
				}
				if g != w {
					t.Fatalf("%s line %d drifted:\n got %s\nwant %s", path, i+1, g, w)
				}
			}
		})
	}
}
