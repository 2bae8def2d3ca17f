package learn

import (
	"encoding/json"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
)

// synthExamples builds a learnable dataset: cores with high PGA/PMR and
// low IPC get throttled (label 1), the rest do not, plus a little noise
// in the untouched features.
func synthExamples(n int, seed int64) []Example {
	rng := rand.New(rand.NewSource(seed))
	exs := make([]Example, n)
	for i := range exs {
		label := i % 2
		pga := 0.5 + rng.Float64()
		ipc := 1.0 + rng.Float64()*0.5
		pmr := 0.1 + rng.Float64()*0.2
		if label == 1 {
			pga = 2.5 + rng.Float64()
			ipc = 0.3 + rng.Float64()*0.3
			pmr = 0.7 + rng.Float64()*0.3
		}
		exs[i] = Example{
			Features: Vector(pga, pmr, rng.Float64()*1e9, rng.Float64()*1e8,
				ipc, rng.Float64()*20, rng.Float64(), rng.Float64()*1e9),
			Label: label,
			Core:  i % 8,
		}
	}
	return exs
}

func TestTrainBothKindsLearnSeparableData(t *testing.T) {
	exs := synthExamples(400, 7)
	m, met, err := Train(exs, TrainParams{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if met.Accuracy < 0.95 {
		t.Errorf("holdout accuracy %.3f on separable data, want >= 0.95", met.Accuracy)
	}
	if err := m.Validate(); err != nil {
		t.Error(err)
	}
	label, conf := m.Predict(Vector(3, 0.8, 5e8, 5e7, 0.4, 10, 0.5, 5e8))
	if label != 1 {
		t.Errorf("clear throttle case predicted %d (conf %.2f)", label, conf)
	}
	if conf < 0.5 || conf > 1 {
		t.Errorf("confidence %.3f outside (0.5, 1]", conf)
	}
}

func TestTrainDeterministic(t *testing.T) {
	exs := synthExamples(200, 3)
	a, metA, err := Train(exs, TrainParams{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, metB, err := Train(exs, TrainParams{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("same corpus+seed produced different models: %s vs %s",
			a.Fingerprint(), b.Fingerprint())
	}
	if metA != metB {
		t.Errorf("metrics differ across identical runs: %+v vs %+v", metA, metB)
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	exs := synthExamples(120, 9)
	m, _, err := Train(exs, TrainParams{Seed: 1, LabelPolicy: "CMM-a"})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != m.Fingerprint() {
		t.Errorf("fingerprint changed across save/load: %s vs %s", got.Fingerprint(), m.Fingerprint())
	}
	if !reflect.DeepEqual(got, m) {
		t.Error("model not identical after save/load")
	}
	for i := 0; i < 20; i++ {
		x := synthExamples(1, int64(i))[0].Features
		l1, c1 := m.Predict(x)
		l2, c2 := got.Predict(x)
		if l1 != l2 || c1 != c2 {
			t.Errorf("prediction differs after round-trip: (%d,%.4f) vs (%d,%.4f)", l1, c1, l2, c2)
		}
	}
}

func TestValidateRejectsDrift(t *testing.T) {
	exs := synthExamples(60, 2)
	m, _, err := Train(exs, TrainParams{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Model){
		func(m *Model) { m.Schema = "cmm-learn/v0" },
		func(m *Model) { m.SchemaVersion = SchemaVersion + 1 },
		func(m *Model) { m.Features = m.Features[:len(m.Features)-1] },
		func(m *Model) { m.Features[0] = "renamed" },
		func(m *Model) { m.Kind = "forest" },
		func(m *Model) { m.Tree = nil },
		func(m *Model) { m.Tree.Nodes = nil },
	}
	for i, mutate := range mutations {
		var cp Model
		b, _ := json.Marshal(m)
		if err := json.Unmarshal(b, &cp); err != nil {
			t.Fatal(err)
		}
		mutate(&cp)
		if err := cp.Validate(); err == nil {
			t.Errorf("mutation %d passed Validate, want error", i)
		}
	}
}

func TestTreeValidateRejectsCycles(t *testing.T) {
	tr := &Tree{Nodes: []TreeNode{
		{Leaf: false, Feature: 0, Threshold: 1, Left: 0, Right: 0, Prob: 0.5},
	}}
	if err := tr.validate(); err == nil {
		t.Error("self-referencing tree passed validate")
	}
	tr = &Tree{Nodes: []TreeNode{
		{Leaf: false, Feature: NumFeatures + 3, Threshold: 1, Left: 1, Right: 1, Prob: 0.5},
		{Leaf: true, Prob: 1},
	}}
	if err := tr.validate(); err == nil {
		t.Error("out-of-schema feature index passed validate")
	}
}

func TestTrainDegenerateInputs(t *testing.T) {
	if _, _, err := Train(nil, TrainParams{}); err == nil {
		t.Error("empty corpus trained without error")
	}
	if _, _, err := Train(synthExamples(5, 1), TrainParams{}); err == nil {
		t.Error("5-example corpus trained without error, want too-few failure")
	}
	// Single-class corpora are legal: the tree is a single leaf and must
	// stay finite.
	exs := synthExamples(40, 1)
	for i := range exs {
		exs[i].Label = 0
	}
	m, _, err := Train(exs, TrainParams{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	label, conf := m.Predict(exs[0].Features)
	if label != 0 {
		t.Errorf("single-class corpus predicts %d, want 0", label)
	}
	if math.IsNaN(conf) {
		t.Error("NaN confidence")
	}
}

func TestVectorSanitizes(t *testing.T) {
	v := Vector(math.NaN(), math.Inf(1), -5, math.Inf(-1), math.NaN(), 3, 0.5, 1e6)
	if len(v) != NumFeatures {
		t.Fatalf("len = %d, want %d", len(v), NumFeatures)
	}
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Errorf("feature %d (%s) = %v, want finite", i, FeatureNames[i], x)
		}
	}
	if v[2] != 0 { // negative rate clamps to 0 before the log transform
		t.Errorf("log_l2_ptr of negative rate = %v, want 0", v[2])
	}
}
