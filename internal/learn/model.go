package learn

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
)

// ModelSchema is the serialization envelope version. Bump together with
// any change to the Model JSON shape.
const ModelSchema = "cmm-learn/v1"

// KindTree is the only model kind: a decision tree.
const KindTree = "tree"

// Model is the versioned, serializable envelope the CMM-L policy loads.
// Kind is always KindTree and Tree holds the parameters. Features pins
// the feature schema the model was trained under so a schema drift
// between trainer and policy binary fails Validate instead of
// mispredicting.
type Model struct {
	Schema        string   `json:"schema"`
	SchemaVersion int      `json:"schema_version"`
	Kind          string   `json:"kind"`
	Features      []string `json:"features"`
	// LabelPolicy names the policy whose sampled decisions labeled the
	// corpus (normally CMM-a). Informational.
	LabelPolicy string `json:"label_policy,omitempty"`
	// TrainExamples counts the examples the final fit used.
	TrainExamples int `json:"train_examples"`

	Tree *Tree `json:"tree,omitempty"`
}

// Predict returns the predicted label (1 = throttle the core's
// prefetchers) and the model's confidence in that label, max(p, 1-p),
// for one raw feature vector built with Vector.
func (m *Model) Predict(x []float64) (label int, confidence float64) {
	if m.Kind != KindTree {
		return 0, 0
	}
	p := m.Tree.Predict(x)
	if p >= 0.5 {
		return 1, p
	}
	return 0, 1 - p
}

// Validate checks the model is structurally sound and was trained under
// this binary's feature schema.
func (m *Model) Validate() error {
	if m.Schema != ModelSchema {
		return fmt.Errorf("learn: model schema %q, want %q", m.Schema, ModelSchema)
	}
	if m.SchemaVersion != SchemaVersion {
		return fmt.Errorf("learn: model feature schema v%d, binary has v%d", m.SchemaVersion, SchemaVersion)
	}
	if len(m.Features) != len(FeatureNames) {
		return fmt.Errorf("learn: model has %d features, binary has %d", len(m.Features), len(FeatureNames))
	}
	for i, f := range m.Features {
		if f != FeatureNames[i] {
			return fmt.Errorf("learn: model feature %d is %q, binary has %q", i, f, FeatureNames[i])
		}
	}
	if m.Kind != KindTree {
		return fmt.Errorf("learn: unknown model kind %q", m.Kind)
	}
	if m.Tree == nil {
		return fmt.Errorf("learn: kind tree without tree payload")
	}
	return m.Tree.validate()
}

// Fingerprint returns a short stable digest of the model's canonical JSON
// form. Two models predict identically iff their parameters match, and
// the JSON holds exactly the parameters (no timestamps), so this is safe
// to use as a cache-key component (see the experiments run store).
func (m *Model) Fingerprint() string {
	b, err := json.Marshal(m)
	if err != nil {
		return "invalid"
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:12]
}

// Save writes the model as indented JSON.
func (m *Model) Save(path string) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("learn: marshal model: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadModel reads and validates a model file written by Save.
func LoadModel(path string) (*Model, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("learn: load model: %w", err)
	}
	var m Model
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("learn: parse model %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("learn: %s: %w", path, err)
	}
	return &m, nil
}

// TrainParams configures Train. Zero values select defaults.
type TrainParams struct {
	Seed        int64   // holdout shuffle seed
	HoldoutFrac float64 // fraction held out for eval, default 0.2
	Tree        TreeParams
	LabelPolicy string
}

// Metrics summarizes holdout performance.
type Metrics struct {
	Examples int     `json:"examples"`
	Holdout  int     `json:"holdout"`
	Accuracy float64 `json:"accuracy"`
	// Per-class recall/precision for the positive (throttle) class.
	PosRecall    float64 `json:"pos_recall"`
	PosPrecision float64 `json:"pos_precision"`
	// NegRecall is the true-negative rate (keep-prefetching class).
	NegRecall float64 `json:"neg_recall"`
	// BaseRate is the positive-class share of the holdout, the accuracy a
	// majority-class guesser would score against.
	BaseRate float64 `json:"base_rate"`
}

// Train splits exs into train/holdout with the seeded shuffle, fits a
// tree on the train split, and reports holdout metrics. The
// returned model is refit on ALL examples (train+holdout) so deployment
// uses every label; the metrics still describe the honest holdout fit.
// Deterministic for a fixed (corpus order, params) pair.
func Train(exs []Example, p TrainParams) (*Model, Metrics, error) {
	if p.HoldoutFrac <= 0 || p.HoldoutFrac >= 1 {
		p.HoldoutFrac = 0.2
	}
	if len(exs) < 10 {
		return nil, Metrics{}, fmt.Errorf("learn: %d examples is too few to train (need >= 10)", len(exs))
	}

	train, hold := SplitHoldout(exs, p.Seed, p.HoldoutFrac)

	fit := func(data []Example) (*Model, error) {
		tree, err := TrainTree(data, p.Tree)
		if err != nil {
			return nil, err
		}
		return &Model{
			Schema:        ModelSchema,
			SchemaVersion: SchemaVersion,
			Kind:          KindTree,
			Features:      append([]string(nil), FeatureNames...),
			LabelPolicy:   p.LabelPolicy,
			TrainExamples: len(data),
			Tree:          tree,
		}, nil
	}

	holdModel, err := fit(train)
	if err != nil {
		return nil, Metrics{}, err
	}
	met := Evaluate(holdModel, hold)
	met.Examples = len(exs)

	final, err := fit(exs)
	if err != nil {
		return nil, Metrics{}, err
	}
	return final, met, nil
}

// SplitHoldout deterministically splits exs into train/holdout sets with
// a seeded shuffle, holding out frac of the examples (at least one; frac
// outside (0,1) defaults to 0.2). Train uses this internally; the retrain
// loop reuses it to score a candidate and the incumbent champion on the
// same holdout split.
func SplitHoldout(exs []Example, seed int64, frac float64) (train, hold []Example) {
	if frac <= 0 || frac >= 1 {
		frac = 0.2
	}
	idx := make([]int, len(exs))
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	nHold := int(float64(len(exs)) * frac)
	if nHold < 1 {
		nHold = 1
	}
	hold = make([]Example, 0, nHold)
	train = make([]Example, 0, len(exs)-nHold)
	for k, i := range idx {
		if k < nHold {
			hold = append(hold, exs[i])
		} else {
			train = append(train, exs[i])
		}
	}
	return train, hold
}

// Evaluate scores the model on a labeled set.
func Evaluate(m *Model, exs []Example) Metrics {
	var met Metrics
	met.Holdout = len(exs)
	if len(exs) == 0 {
		return met
	}
	correct, tp, fp, fn, tn, pos := 0, 0, 0, 0, 0, 0
	for _, e := range exs {
		pred, _ := m.Predict(e.Features)
		if pred == e.Label {
			correct++
		}
		if e.Label == 1 {
			pos++
			if pred == 1 {
				tp++
			} else {
				fn++
			}
		} else {
			if pred == 1 {
				fp++
			} else {
				tn++
			}
		}
	}
	met.Accuracy = float64(correct) / float64(len(exs))
	met.BaseRate = float64(pos) / float64(len(exs))
	if tp+fn > 0 {
		met.PosRecall = float64(tp) / float64(tp+fn)
	}
	if tp+fp > 0 {
		met.PosPrecision = float64(tp) / float64(tp+fp)
	}
	if tn+fp > 0 {
		met.NegRecall = float64(tn) / float64(tn+fp)
	}
	return met
}
