package cmm

import (
	"fmt"

	"cmm/internal/learn"
	"cmm/internal/pmu"
)

// DefaultConfidence is the prediction-confidence threshold CMM-L requires
// before it skips the sampling path for an epoch.
const DefaultConfidence = 0.8

// Learned is the CMM-L back end: CMM-a's structure with the profiling
// phase replaced by a trained classifier (internal/learn) wherever the
// model is confident. Each epoch it runs the one all-on detection probe
// every policy needs, then predicts a per-core throttle decision for the
// Agg set from the probe's feature vectors:
//
//   - confident (min per-core confidence >= threshold): apply the
//     VariantA partition over the Agg set and the predicted throttle set
//     directly — 1 sampling interval total, versus CMM-a's 2 + 2^n;
//   - not confident: fall back to CMM-a's full sampling path, reusing
//     the probe already taken. The resulting decision is flagged
//     LearnFallback, so its telemetry event doubles as a fresh labeled
//     training example — the online label-collection loop.
//
// The model is read-only after construction, so Learned is safe to share
// across concurrent runs and Clone can return a shallow copy.
//
// EnableDrift adds a runtime drift monitor on top: predictions are
// checked against the sampling path's ground truth (free on fallback
// epochs, forced on periodic shadow audits) and the policy demotes
// itself to pure CMM-a when agreement drops below the configured floor.
// Drift monitoring is opt-in so the deterministic experiment paths stay
// byte-identical; the serving tier (cmmserve -model-dir) enables it.
type Learned struct {
	model     *learn.Model
	threshold float64
	drift     *driftMonitor
	// st is the CMM-a pipeline's state for the sampling path.
	st pipelineState
}

// NewLearned builds the CMM-L policy around a validated model. A
// non-positive threshold selects DefaultConfidence.
func NewLearned(m *learn.Model, threshold float64) (*Learned, error) {
	if m == nil {
		return nil, fmt.Errorf("cmm: learned policy needs a model")
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("cmm: learned policy: %w", err)
	}
	if threshold <= 0 {
		threshold = DefaultConfidence
	}
	return &Learned{model: m, threshold: threshold}, nil
}

// Name implements Policy.
func (p *Learned) Name() string { return "CMM-L" }

// StoreIdentity distinguishes run-store entries by model: two CMM-L
// instances with different models (or thresholds) make different
// decisions and must never share a cache key (see internal/experiments).
func (p *Learned) StoreIdentity() string {
	return fmt.Sprintf("CMM-L@%s/t%.3f", p.model.Fingerprint(), p.threshold)
}

// Fingerprint exposes the loaded model's fingerprint (for /v1/model).
func (p *Learned) Fingerprint() string { return p.model.Fingerprint() }

// EnableDrift attaches a drift monitor and returns p. Clones share the
// monitor, so drift evidence from every concurrent job counts against
// the one served model and a demotion is service-wide and sticky; a
// newly promoted model gets a fresh Learned and with it a fresh monitor.
func (p *Learned) EnableDrift(cfg DriftConfig) *Learned {
	p.drift = newDriftMonitor(cfg)
	return p
}

// DriftStats snapshots the drift monitor; ok is false when EnableDrift
// was never called.
func (p *Learned) DriftStats() (DriftStats, bool) {
	if p.drift == nil {
		return DriftStats{}, false
	}
	return p.drift.stats(), true
}

// Clone implements Policy. The model is immutable, but the CMM-a sampling
// path accumulates gate/scratch state across epochs, so it is reset to a
// fresh state rather than shallow-copied (two clones must never share its
// cached slices). The drift monitor, when enabled, IS shared by the
// shallow copy: demotion is a property of the served model, not of one
// job's clone (see EnableDrift).
func (p *Learned) Clone() Policy {
	cp := *p
	cp.st = pipelineState{}
	return &cp
}

// Epoch implements Policy.
func (p *Learned) Epoch(t Target, cfg Config, exec []pmu.Sample) (Decision, error) {
	// Sampling interval 1: all prefetchers on — detection statistics and
	// the model's features come from the same probe.
	samples, dec, err := probe(t, cfg, p.Name())
	if err != nil {
		return Decision{}, err
	}
	det := dec.Detection

	if len(det.Agg) == 0 {
		// Fig. 6(d): nothing to predict about — same Dunn fallback as
		// CMM-a. Not counted as a learn fallback: no prediction was due.
		return coordinated(VariantA).finish(t, cfg, exec, &p.st, samples, dec)
	}

	if p.drift != nil && p.drift.demotedNow() {
		// Sticky demotion: the model lost the drift monitor's confidence,
		// so every epoch runs the CMM-a sampling path — byte-identical
		// machine programming to CMM-a, no predictions consulted — until a
		// newly promoted model replaces this policy instance.
		return coordinated(VariantA).finish(t, cfg, exec, &p.st, samples, dec)
	}

	throttle, minConf := p.predict(det)
	dec.PredConfidence = minConf
	if minConf < p.threshold {
		// Low confidence: run CMM-a's sampling path on the same probe and
		// let the resulting event re-enter the training corpus.
		dec.LearnFallback = true
		return p.finishSampled(t, cfg, samples, dec, exec, throttle)
	}

	if p.drift != nil && p.drift.auditDue() {
		// Shadow audit: the model is confident, but this epoch runs the
		// full sampling path anyway and the sampled decision is what gets
		// applied — the prediction is only compared against it. Costs one
		// CMM-a epoch; bounds how stale the drift window can get when the
		// model is never unsure.
		dec.ShadowAudit = true
		return p.finishSampled(t, cfg, samples, dec, exec, throttle)
	}

	// Confident: act on the prediction. VariantA's layout depends only on
	// the Agg set, so no friendliness-split interval is needed either.
	dec.Predicted = true
	if _, err := layoutAgg.apply(t, cfg, &dec); err != nil {
		return Decision{}, err
	}
	dec.Disabled = throttle
	if err := setPrefetchers(t, dec.Disabled); err != nil {
		return Decision{}, err
	}
	return dec, nil
}

// finishSampled completes a fallback or shadow-audit epoch: runs CMM-a's
// sampling path on the probe already taken, then feeds the (prediction,
// sampled ground truth) comparison to the drift monitor. The demotion
// transition, when this observation trips it, is flagged on the decision
// so the telemetry stream records the event exactly once.
func (p *Learned) finishSampled(t Target, cfg Config, samples []pmu.Sample,
	dec Decision, exec []pmu.Sample, predicted []int) (Decision, error) {
	res, err := coordinated(VariantA).finish(t, cfg, exec, &p.st, samples, dec)
	if err != nil || p.drift == nil {
		return res, err
	}
	if p.drift.observe(dec.Detection.Agg, predicted, res.Disabled) {
		res.LearnDemoted = true
	}
	return res, nil
}

// predict runs the model on every Agg core's feature vector and returns
// the predicted throttle set (ascending, Agg order) and the minimum
// per-core confidence — the epoch is only as certain as its least
// certain core.
func (p *Learned) predict(det Detection) (throttle []int, minConf float64) {
	minConf = 1
	for _, c := range det.Agg {
		x := learn.Vector(det.PGA[c], det.PMR[c], det.PTR[c], det.LLCPT[c],
			det.IPC[c], det.MPKI[c], det.StallRatio[c], det.MemTraffic[c])
		label, conf := p.model.Predict(x)
		if conf < minConf {
			minConf = conf
		}
		if label == 1 {
			throttle = append(throttle, c)
		}
	}
	return throttle, minConf
}
