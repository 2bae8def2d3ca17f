package learn

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cmm/internal/faultinject"
)

// trainN trains n distinct models (different seeds produce different
// fingerprints on the synthetic corpus).
func trainN(t *testing.T, n int) []*Model {
	t.Helper()
	ms := make([]*Model, n)
	for i := range ms {
		m, _, err := Train(synthExamples(120+i*10, int64(i+1)), TrainParams{Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = m
		for j := 0; j < i; j++ {
			if ms[j].Fingerprint() == m.Fingerprint() {
				t.Fatalf("models %d and %d collide on fingerprint %s", j, i, m.Fingerprint())
			}
		}
	}
	return ms
}

func TestRegistryPromoteCurrentRollback(t *testing.T) {
	reg, err := OpenRegistry(filepath.Join(t.TempDir(), "models"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.CurrentFingerprint(); !errors.Is(err, ErrNoModel) {
		t.Fatalf("empty registry CurrentFingerprint err = %v, want ErrNoModel", err)
	}
	if _, err := reg.Rollback(); !errors.Is(err, ErrNoModel) {
		t.Fatalf("empty registry Rollback err = %v, want ErrNoModel", err)
	}

	ms := trainN(t, 3)
	var fps []string
	for i, m := range ms {
		fp, err := reg.Promote(m, "test promotion")
		if err != nil {
			t.Fatalf("promote %d: %v", i, err)
		}
		if fp != m.Fingerprint() {
			t.Fatalf("promote returned %s, model fingerprint %s", fp, m.Fingerprint())
		}
		fps = append(fps, fp)
		cur, curFP, err := reg.Current()
		if err != nil {
			t.Fatalf("current after promote %d: %v", i, err)
		}
		if curFP != fp || cur.Fingerprint() != fp {
			t.Fatalf("current is %s, want %s", curFP, fp)
		}
	}

	hist, err := reg.History()
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 3 || hist[2].Fingerprint != fps[2] {
		t.Fatalf("history = %+v, want 3 entries ending in %s", hist, fps[2])
	}
	if hist[0].PromotedAt.IsZero() {
		t.Error("history entry missing timestamp")
	}

	// Roll back twice: 2 -> 1 -> 0, then nothing earlier remains.
	for i := 1; i >= 0; i-- {
		got, err := reg.Rollback()
		if err != nil {
			t.Fatalf("rollback to %d: %v", i, err)
		}
		if got != fps[i] {
			t.Fatalf("rollback landed on %s, want %s", got, fps[i])
		}
		if fp, _ := reg.CurrentFingerprint(); fp != fps[i] {
			t.Fatalf("current pointer %s after rollback, want %s", fp, fps[i])
		}
	}
	if _, err := reg.Rollback(); !errors.Is(err, ErrNoModel) {
		t.Fatalf("rollback past the first model err = %v, want ErrNoModel", err)
	}
	if fp, _ := reg.CurrentFingerprint(); fp != fps[0] {
		t.Fatalf("failed rollback moved the pointer to %s", fp)
	}
}

func TestRegistryQuarantinesCorruptModel(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "models")
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := trainN(t, 1)[0]
	fp, err := reg.Promote(m, "")
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the envelope with garbage: the shape a torn write leaves.
	p := filepath.Join(dir, fp+".json")
	if err := os.WriteFile(p, []byte(`{"schema":"cmm-learn/v1","kind":"tr`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Current(); err == nil {
		t.Fatal("Current() loaded a corrupt model")
	}
	if _, err := os.Stat(p + ".corrupt"); err != nil {
		t.Errorf("corrupt model not quarantined: %v", err)
	}
	if _, err := os.Stat(p); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("corrupt file still present under its model name: %v", err)
	}
}

func TestRegistryTornPointerWriteKeepsOldReadable(t *testing.T) {
	ffs := faultinject.Wrap(nil)
	dir := filepath.Join(t.TempDir(), "models")
	reg, err := OpenRegistry(dir, WithRegistryFS(ffs))
	if err != nil {
		t.Fatal(err)
	}
	ms := trainN(t, 2)
	fp0, err := reg.Promote(ms[0], "")
	if err != nil {
		t.Fatal(err)
	}

	// Tear the very write that flips the current pointer. Promote's
	// sequence per model is: envelope write, history write, pointer write
	// — three WriteFile calls; tear the third.
	ffs.Inject(faultinject.Fault{Op: faultinject.OpWrite, EveryN: 3, Times: 1, Torn: true, Err: os.ErrDeadlineExceeded})
	if _, err := reg.Promote(ms[1], ""); err == nil {
		t.Fatal("promote with torn pointer write should error")
	}
	ffs.Reset()

	// The rename never happened, so the pointer still names model 0 and it
	// still loads.
	m, fp, err := reg.Current()
	if err != nil {
		t.Fatalf("current after torn promote: %v", err)
	}
	if fp != fp0 || m.Fingerprint() != fp0 {
		t.Fatalf("current is %s after torn promote, want %s", fp, fp0)
	}
}

func TestRegistryRollbackSkipsUnloadableModel(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "models")
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	ms := trainN(t, 3)
	fp0, _ := reg.Promote(ms[0], "")
	fp1, _ := reg.Promote(ms[1], "")
	if _, err := reg.Promote(ms[2], ""); err != nil {
		t.Fatal(err)
	}
	// Corrupt the middle model; rollback should skip it and land on fp0.
	if err := os.WriteFile(filepath.Join(dir, fp1+".json"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := reg.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if got != fp0 {
		t.Fatalf("rollback landed on %s, want %s (skipping corrupt %s)", got, fp0, fp1)
	}
}

func TestRegistryRetentionPrunes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "models")
	clock := faultinject.NewFakeClock(time.Unix(1_700_000_000, 0))
	reg, err := OpenRegistry(dir, WithRegistryKeep(2), WithRegistryClock(clock))
	if err != nil {
		t.Fatal(err)
	}
	ms := trainN(t, 4)
	var fps []string
	for _, m := range ms {
		fp, err := reg.Promote(m, "")
		if err != nil {
			t.Fatal(err)
		}
		fps = append(fps, fp)
		clock.Advance(time.Minute)
	}
	// Keep=2: the last two fingerprints stay, earlier envelopes are gone.
	for _, fp := range fps[:2] {
		if _, err := os.Stat(filepath.Join(dir, fp+".json")); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("model %s should have been pruned: %v", fp, err)
		}
	}
	for _, fp := range fps[2:] {
		if _, err := reg.Load(fp); err != nil {
			t.Errorf("retained model %s failed to load: %v", fp, err)
		}
	}
}

// TestRegistryConcurrentHandlesPromote pins that two registry handles on
// one directory may promote concurrently: every Promote succeeds and the
// history always parses, because no two writes share a temp file.
func TestRegistryConcurrentHandlesPromote(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "models")
	var regs [2]*Registry
	for i := range regs {
		reg, err := OpenRegistry(dir)
		if err != nil {
			t.Fatal(err)
		}
		regs[i] = reg
	}
	ms := trainN(t, 8)
	for round := range 40 {
		errs := make(chan error, len(ms))
		for i, m := range ms {
			go func() {
				_, err := regs[i%2].Promote(m, "")
				errs <- err
			}()
		}
		for range ms {
			if err := <-errs; err != nil {
				t.Fatalf("round %d: promote: %v", round, err)
			}
		}
		if _, err := regs[round%2].History(); err != nil {
			t.Fatalf("round %d: history: %v", round, err)
		}
	}
}

func TestRegistryArchive(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "models")
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := trainN(t, 1)[0]
	fp, err := reg.Archive(m, "holdout accuracy 0.61 below champion 0.93")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "rejected", fp+".json")); err != nil {
		t.Errorf("archived envelope missing: %v", err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "rejected", fp+".reason"))
	if err != nil {
		t.Fatalf("archived reason missing: %v", err)
	}
	if len(b) == 0 {
		t.Error("archived reason is empty")
	}
	// Archiving must not create a current pointer.
	if _, err := reg.CurrentFingerprint(); !errors.Is(err, ErrNoModel) {
		t.Errorf("archive touched the current pointer: %v", err)
	}
}

func TestSplitHoldoutDeterministicAndDisjoint(t *testing.T) {
	exs := synthExamples(100, 5)
	tr1, h1 := SplitHoldout(exs, 42, 0.2)
	tr2, h2 := SplitHoldout(exs, 42, 0.2)
	if len(h1) != 20 || len(tr1) != 80 {
		t.Fatalf("split sizes %d/%d, want 80/20", len(tr1), len(h1))
	}
	if len(tr2) != len(tr1) || len(h2) != len(h1) {
		t.Fatal("same seed produced different split sizes")
	}
	for i := range h1 {
		if h1[i].Core != h2[i].Core || h1[i].Label != h2[i].Label {
			t.Fatal("same seed produced different holdout order")
		}
	}
	_, h3 := SplitHoldout(exs, 43, 0.2)
	same := true
	for i := range h1 {
		if h1[i].Features[0] != h3[i].Features[0] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical holdout (suspicious)")
	}
}
