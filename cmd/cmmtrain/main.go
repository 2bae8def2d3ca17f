// Command cmmtrain fits the learned prefetch-control back end (CMM-L)
// from controller telemetry and evaluates it against the sampling policy
// that labeled the data.
//
// Usage:
//
//	cmmtrain runs.jsonl more-runs/           # train from recorded telemetry
//	cmmtrain -synth                          # synthesize a corpus from quick
//	                                         # CMM-a sweeps, then train
//	cmmtrain -eval -artifact TRAIN_cmml.json # A/B sweep CMM-a vs CMM-L,
//	                                         # machine-readable evidence
//	cmmtrain -quick -selftest                # CI smoke: full pipeline with
//	                                         # acceptance assertions
//	cmmtrain -promote -registry models/      # train, then promote into the
//	                                         # registry serving workers
//	cmmtrain -retrain -registry models/ corpus.jsonl
//	                                         # gate a candidate on the
//	                                         # acceptance criteria plus a
//	                                         # holdout duel vs the champion;
//	                                         # promote on pass, archive with
//	                                         # the reason on fail
//	cmmtrain -check-model models/cmml.json   # fail loudly when an envelope's
//	                                         # feature schema lags the binary
//
// Positional arguments are corpus paths: telemetry JSONL files, or
// directories walked for *.jsonl. Without any, -synth (on by default)
// generates a corpus by running the quick comparison sweep under the
// label policy with telemetry captured in memory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"cmm/internal/cmm"
	"cmm/internal/experiments"
	"cmm/internal/learn"
	"cmm/internal/mixes"
	"cmm/internal/pmu"
	"cmm/internal/sim"
	"cmm/internal/telemetry"
)

func main() {
	var (
		out         = flag.String("out", "model.json", "model output path")
		seed        = flag.Int64("seed", 1, "holdout-shuffle seed (the whole pipeline is deterministic given the corpus and this seed)")
		holdout     = flag.Float64("holdout", 0.2, "holdout fraction for the accuracy report")
		labelPolicy = flag.String("policy", "CMM-a", "policy whose sampled decisions label the corpus")
		synth       = flag.Bool("synth", true, "when no corpus paths are given, synthesize one from quick label-policy sweeps")
		synthSeeds  = flag.Int("synth-seeds", 3, "sweep seeds used for corpus synthesis")
		quick       = flag.Bool("quick", true, "quick experiment options for synthesis and eval (-quick=false is paper-size)")
		eval        = flag.Bool("eval", false, "run the A/B evaluation sweep (label policy vs CMM-L) after training")
		confidence  = flag.Float64("confidence", 0, "CMM-L prediction-confidence threshold for eval (0 = default)")
		artifact    = flag.String("artifact", "", "write the machine-readable training/eval artifact (JSON) to this file")
		selftest    = flag.Bool("selftest", false, "full pipeline with acceptance assertions: synthesize, train, eval, exit non-zero on failure")
		minAcc      = flag.Float64("min-accuracy", 0.7, "holdout accuracy floor asserted by -selftest")
		topo        = flag.String("topology", "", "NUMA geometry as NODESxCORES for synthesis and eval, e.g. 2x16 (default: 1x8)")

		registry   = flag.String("registry", "", "model registry directory (required by -promote and -retrain)")
		promote    = flag.Bool("promote", false, "promote the trained model into -registry, unconditionally")
		retrain    = flag.Bool("retrain", false, "retraining mode: train a candidate from the corpus, run the acceptance gates and compare against the registry's current champion on the same holdout; promote on pass, archive under <registry>/rejected with the failure reason otherwise")
		checkModel = flag.String("check-model", "", "load and validate a model envelope (schema version, feature drift), print its identity, and exit")
	)
	flag.Parse()

	// -check-model is a standalone validation probe: it fails loudly when
	// the envelope's feature schema lags the binary's extractor schema.
	if *checkModel != "" {
		m, err := learn.LoadModel(*checkModel)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("cmmtrain: %s ok: kind=%s fingerprint=%s schema v%d (%d features)\n",
			*checkModel, m.Kind, m.Fingerprint(), m.SchemaVersion, len(m.Features))
		return
	}
	if (*promote || *retrain) && *registry == "" {
		fatal(fmt.Errorf("-promote and -retrain require -registry"))
	}
	if *retrain {
		*eval = true // the promotion gates need the A/B sweep
	}

	opts := experiments.QuickOptions()
	if !*quick {
		opts = experiments.DefaultOptions()
	}
	if *topo != "" {
		var nodes, cores int
		if _, err := fmt.Sscanf(*topo, "%dx%d", &nodes, &cores); err != nil {
			fatal(fmt.Errorf("topology %q: want NODESxCORES, e.g. 2x16", *topo))
		}
		if nodes < 1 || cores < nodes || cores%nodes != 0 {
			fatal(fmt.Errorf("topology %q: cores must be a positive multiple of nodes", *topo))
		}
		opts.Cores = cores
		opts.Sim.Topology = sim.Topology{
			Nodes:         nodes,
			RemotePenalty: sim.DefaultRemotePenalty,
			ShardedRun:    true,
		}
	}
	if *selftest {
		*eval = true
	}

	art := &trainArtifact{
		LabelPolicy: *labelPolicy,
		Seed:        *seed,
		Metrics:     map[string]learn.Metrics{},
	}

	// 1. Corpus.
	var exs []learn.Example
	paths := flag.Args()
	switch {
	case len(paths) > 0:
		all, err := learn.LoadCorpus(paths...)
		if err != nil {
			fatal(err)
		}
		exs = learn.FilterPolicy(all, *labelPolicy)
		fmt.Printf("corpus: %d examples from %d path(s) (%d before policy filter %q)\n",
			len(exs), len(paths), len(all), *labelPolicy)
	case *synth:
		var err error
		exs, err = synthesize(opts, *labelPolicy, *synthSeeds)
		if err != nil {
			fatal(err)
		}
		art.Synthesized = true
		fmt.Printf("corpus: %d examples synthesized from %d-seed quick %s sweep\n",
			len(exs), *synthSeeds, *labelPolicy)
	default:
		fatal(fmt.Errorf("no corpus paths given and -synth=false"))
	}
	art.Examples = len(exs)

	// 2. Train.
	model, err := train(exs, *seed, *holdout, *labelPolicy, art)
	if err != nil {
		fatal(err)
	}
	art.Kind = model.Kind
	art.Fingerprint = model.Fingerprint()
	met := art.Metrics[model.Kind]
	fmt.Printf("model: kind=%s fingerprint=%s holdout accuracy=%.3f (base rate %.3f) pos recall=%.3f precision=%.3f\n",
		model.Kind, art.Fingerprint, met.Accuracy, met.BaseRate, met.PosRecall, met.PosPrecision)
	if err := model.Save(*out); err != nil {
		fatal(err)
	}
	art.ModelPath = *out
	fmt.Printf("model: wrote %s\n", *out)

	// 3. Evaluate A/B and benchmark the decision paths.
	if *eval {
		ev, err := evaluate(opts, model, *labelPolicy, *confidence)
		if err != nil {
			fatal(err)
		}
		art.Eval = ev
		fmt.Printf("eval: sampled/epoch %s=%.2f CMM-L=%.2f (reduction %.1f%%), mean NormHS %s=%.4f CMM-L=%.4f (delta %+.2f%%)\n",
			*labelPolicy, ev.MeanSampledPerEpoch[*labelPolicy], ev.MeanSampledPerEpoch["CMM-L"],
			ev.SamplingReduction*100, *labelPolicy, ev.MeanNormHS[*labelPolicy],
			ev.MeanNormHS["CMM-L"], ev.HSDelta*100)
		fmt.Printf("bench: predict epoch %.0f ns vs one sampling interval %.0f ns (predict cheaper: %v)\n",
			ev.PredictEpochNs, ev.SamplingIntervalNs, ev.PredictCheaper)
	}

	// 3.5 Model lifecycle: promotion into the registry. -retrain gates the
	// candidate on the selftest acceptance criteria plus a head-to-head
	// holdout comparison against the current champion; a candidate that
	// fails any gate is archived with the reason instead of promoted, so a
	// retraining cron can never push a regression into serving.
	if *promote || *retrain {
		reg, err := learn.OpenRegistry(*registry)
		if err != nil {
			fatal(err)
		}
		if *retrain {
			fails := acceptance(art, *minAcc, *labelPolicy)
			champion, champFP, err := reg.Current()
			switch {
			case err == nil && champFP == art.Fingerprint:
				// Identical corpus and params reproduce the champion bit for
				// bit; current already points at it.
				art.Promoted = true
				fmt.Printf("retrain: candidate %s is already the champion\n", champFP)
			case err == nil:
				// Score both models on the identical holdout: SplitHoldout is
				// deterministic in (corpus, seed), and the candidate's metric
				// comes from its pre-refit fit on the same split.
				_, hold := learn.SplitHoldout(exs, *seed, *holdout)
				champMet := learn.Evaluate(champion, hold)
				candAcc := art.Metrics[model.Kind].Accuracy
				fmt.Printf("retrain: candidate holdout accuracy %.3f vs champion %s %.3f\n",
					candAcc, champFP, champMet.Accuracy)
				if candAcc < champMet.Accuracy {
					fails = append(fails, fmt.Sprintf("holdout accuracy %.3f below champion %s (%.3f)",
						candAcc, champFP, champMet.Accuracy))
				}
			case errors.Is(err, learn.ErrNoModel):
				fmt.Println("retrain: empty registry, candidate gated on acceptance criteria only")
			default:
				fatal(err)
			}
			switch {
			case len(fails) > 0:
				reason := strings.Join(fails, "; ")
				if _, err := reg.Archive(model, reason); err != nil {
					fatal(err)
				}
				art.RejectReason = reason
				fmt.Printf("retrain: candidate %s REJECTED, archived with reason: %s\n", art.Fingerprint, reason)
			case art.Fingerprint != "" && !art.Promoted:
				if _, err := reg.Promote(model, fmt.Sprintf("retrain: %d examples, holdout accuracy %.3f",
					len(exs), art.Metrics[model.Kind].Accuracy)); err != nil {
					fatal(err)
				}
				art.Promoted = true
				fmt.Printf("retrain: candidate %s promoted to current\n", art.Fingerprint)
			}
		} else {
			if _, err := reg.Promote(model, "cmmtrain -promote"); err != nil {
				fatal(err)
			}
			art.Promoted = true
			fmt.Printf("promote: model %s is now current in %s\n", art.Fingerprint, *registry)
		}
	}

	if *artifact != "" {
		data, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*artifact, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("artifact: wrote %s\n", *artifact)
	}

	// 4. Acceptance assertions.
	if *selftest {
		fails := acceptance(art, *minAcc, *labelPolicy)
		if len(fails) > 0 {
			for _, f := range fails {
				fmt.Fprintln(os.Stderr, "cmmtrain: selftest FAIL:", f)
			}
			os.Exit(1)
		}
		fmt.Println("selftest: PASS")
	}
}

// trainArtifact is the committed evidence format: what was trained on,
// how well it held out, and how CMM-L behaved against the label policy
// on the evaluation sweep.
type trainArtifact struct {
	ModelPath   string                   `json:"model_path"`
	Fingerprint string                   `json:"fingerprint"`
	Kind        string                   `json:"kind"`
	LabelPolicy string                   `json:"label_policy"`
	Seed        int64                    `json:"seed"`
	Examples    int                      `json:"examples"`
	Synthesized bool                     `json:"synthesized"`
	Metrics     map[string]learn.Metrics `json:"metrics"` // keyed by model kind
	Eval        *evalResult              `json:"eval,omitempty"`
	// Promoted and RejectReason record the -promote/-retrain outcome:
	// whether this model became the registry's current, or why it was
	// archived instead.
	Promoted     bool   `json:"promoted,omitempty"`
	RejectReason string `json:"reject_reason,omitempty"`
}

// evalResult is the A/B sweep summary plus the decision-cost benchmark.
type evalResult struct {
	Mixes int     `json:"mixes"`
	Seeds []int64 `json:"seeds"`
	// MeanNormHS and MeanSampledPerEpoch are keyed by policy name.
	MeanNormHS          map[string]float64 `json:"mean_norm_hs"`
	MeanSampledPerEpoch map[string]float64 `json:"mean_sampled_per_epoch"`
	// SamplingReduction is 1 - sampled(CMM-L)/sampled(label policy).
	SamplingReduction float64 `json:"sampling_reduction"`
	// HSDelta is meanNormHS(CMM-L) - meanNormHS(label policy).
	HSDelta     float64 `json:"hs_delta"`
	Predictions int     `json:"predictions"`
	Fallbacks   int     `json:"fallbacks"`
	// PredictEpochNs times one whole predicted decision (8 feature
	// vectors through the model); SamplingIntervalNs times one sampling
	// interval on the simulated machine — the unit the predicted path
	// avoids. Wall-clock, so indicative rather than reproducible.
	PredictEpochNs     float64 `json:"predict_epoch_ns"`
	SamplingIntervalNs float64 `json:"sampling_interval_ns"`
	PredictCheaper     bool    `json:"predict_cheaper"`
}

// memSink buffers telemetry events in memory; safe for concurrent use
// (comparison runs fan out across workers).
type memSink struct {
	mu     sync.Mutex
	events []telemetry.Event
}

func (s *memSink) Emit(e telemetry.Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// synthesize runs the comparison sweep under the label policy with an
// in-memory telemetry sink and harvests the training examples.
func synthesize(opts experiments.Options, labelPolicy string, seeds int) ([]learn.Example, error) {
	policy, ok := cmm.PolicyByName(labelPolicy)
	if !ok {
		return nil, fmt.Errorf("cmmtrain: unknown label policy %q", labelPolicy)
	}
	if seeds < 1 {
		seeds = 1
	}
	opts.Seeds = opts.Seeds[:0]
	for s := int64(1); s <= int64(seeds); s++ {
		opts.Seeds = append(opts.Seeds, s)
	}
	sink := &memSink{}
	opts.Telemetry = sink
	opts.Store = nil // cached runs would skip simulation and emit nothing
	if _, err := experiments.RunComparison(opts, []cmm.Policy{policy}); err != nil {
		return nil, err
	}
	var exs []learn.Example
	for _, e := range sink.events {
		exs = append(exs, learn.FromEvent(e)...)
	}
	return learn.FilterPolicy(exs, labelPolicy), nil
}

// train fits the tree model and records its holdout metrics.
func train(exs []learn.Example, seed int64, holdout float64, labelPolicy string, art *trainArtifact) (*learn.Model, error) {
	m, met, err := learn.Train(exs, learn.TrainParams{
		Seed:        seed,
		HoldoutFrac: holdout,
		LabelPolicy: labelPolicy,
	})
	if err != nil {
		return nil, err
	}
	art.Metrics[m.Kind] = met
	fmt.Printf("train: %s holdout accuracy=%.3f pos recall=%.3f precision=%.3f (%d examples, %d held out)\n",
		m.Kind, met.Accuracy, met.PosRecall, met.PosPrecision, met.Examples, met.Holdout)
	return m, nil
}

// evaluate A/B-runs the label policy against CMM-L on the comparison
// mixes and times both decision paths.
func evaluate(opts experiments.Options, model *learn.Model, labelPolicy string, confidence float64) (*evalResult, error) {
	base, ok := cmm.PolicyByName(labelPolicy)
	if !ok {
		return nil, fmt.Errorf("cmmtrain: unknown label policy %q", labelPolicy)
	}
	learned, err := cmm.NewLearned(model, confidence)
	if err != nil {
		return nil, err
	}
	opts.Telemetry = nil
	opts.Store = nil
	comp, err := experiments.RunComparison(opts, []cmm.Policy{base, learned})
	if err != nil {
		return nil, err
	}

	ev := &evalResult{
		Mixes:               len(comp.Mixes),
		Seeds:               comp.Options.Seeds,
		MeanNormHS:          map[string]float64{},
		MeanSampledPerEpoch: map[string]float64{},
	}
	for _, p := range comp.Policies {
		sum := 0.0
		for _, r := range comp.Results[p] {
			sum += r.NormHS
		}
		if n := len(comp.Results[p]); n > 0 {
			ev.MeanNormHS[p] = sum / float64(n)
		}
		ts := comp.Telemetry[p]
		if ts.Epochs > 0 {
			ev.MeanSampledPerEpoch[p] = float64(ts.SampledCombos) / float64(ts.Epochs)
		}
	}
	lts := comp.Telemetry["CMM-L"]
	ev.Predictions, ev.Fallbacks = lts.Predictions, lts.LearnFallbacks
	if b := ev.MeanSampledPerEpoch[labelPolicy]; b > 0 {
		ev.SamplingReduction = 1 - ev.MeanSampledPerEpoch["CMM-L"]/b
	}
	ev.HSDelta = ev.MeanNormHS["CMM-L"] - ev.MeanNormHS[labelPolicy]

	if err := benchDecision(opts, model, ev); err != nil {
		return nil, err
	}
	return ev, nil
}

// benchDecision times one predicted decision (a full epoch's worth of
// model predictions) against one sampling interval on the simulated
// machine — the profiling unit every confident prediction saves.
func benchDecision(opts experiments.Options, model *learn.Model, ev *evalResult) error {
	all, err := mixes.All(opts.Cores, opts.BaseSeed)
	if err != nil {
		return err
	}
	sys, err := sim.New(opts.Sim, all[0].Specs, opts.Seeds[0])
	if err != nil {
		return err
	}
	target := cmm.NewSimTarget(sys)
	target.RunCycles(opts.CMM.SamplingInterval) // warm the caches a little

	// One predicted decision = NumCores feature vectors through the model
	// (an upper bound: only Agg cores are predicted in practice).
	vecs := make([][]float64, target.NumCores())
	for i := range vecs {
		f := float64(i)
		vecs[i] = learn.Vector(2+f, 0.9, 4e8+f*1e7, 1e8, 0.8, 12+f, 0.3, 5e8)
	}
	pr := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, x := range vecs {
				model.Predict(x)
			}
		}
	})
	ev.PredictEpochNs = float64(pr.NsPerOp())

	// One sampling interval: snapshot, advance the machine, delta — what
	// cmm's profiling loop does per combination.
	n := target.NumCores()
	snaps := make([]pmu.Snapshot, n)
	sr := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for c := 0; c < n; c++ {
				snaps[c] = target.ReadPMU(c)
			}
			target.RunCycles(opts.CMM.SamplingInterval)
			for c := 0; c < n; c++ {
				_ = target.ReadPMU(c).Delta(snaps[c])
			}
		}
	})
	ev.SamplingIntervalNs = float64(sr.NsPerOp())
	ev.PredictCheaper = ev.PredictEpochNs < ev.SamplingIntervalNs
	return nil
}

// acceptance returns the selftest failures (empty = pass).
func acceptance(art *trainArtifact, minAcc float64, labelPolicy string) []string {
	var fails []string
	met, ok := art.Metrics[art.Kind]
	if !ok {
		fails = append(fails, "no metrics for the model's kind")
		return fails
	}
	if met.Accuracy < minAcc {
		fails = append(fails, fmt.Sprintf("holdout accuracy %.3f < floor %.3f", met.Accuracy, minAcc))
	}
	ev := art.Eval
	if ev == nil {
		fails = append(fails, "no evaluation ran")
		return fails
	}
	if ev.SamplingReduction < 0.5 {
		fails = append(fails, fmt.Sprintf("sampling reduction %.1f%% < 50%%", ev.SamplingReduction*100))
	}
	if ev.HSDelta < -0.02 || ev.HSDelta > 0.02 {
		fails = append(fails, fmt.Sprintf("mean NormHS delta %+.2f%% outside ±2%% of %s", ev.HSDelta*100, labelPolicy))
	}
	if !ev.PredictCheaper {
		fails = append(fails, fmt.Sprintf("predicted decision (%.0f ns) not cheaper than one sampling interval (%.0f ns)",
			ev.PredictEpochNs, ev.SamplingIntervalNs))
	}
	return fails
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cmmtrain:", err)
	os.Exit(1)
}
