package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cmm/internal/cmm"
	"cmm/internal/experiments"
	"cmm/internal/faultinject"
	"cmm/internal/learn"
	"cmm/internal/telemetry"
)

// trainTestModel trains a small separable model; different seeds yield
// different fingerprints.
func trainTestModel(t *testing.T, seed int64) *learn.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var exs []learn.Example
	for i := 0; i < 80; i++ {
		label := i % 2
		pga, ipc := 0.5+rng.Float64(), 1.2+rng.Float64()
		if label == 1 {
			pga, ipc = 3+rng.Float64(), 0.3+rng.Float64()*0.2
		}
		exs = append(exs, learn.Example{
			Features: learn.Vector(pga, 0.5, 1e8, 1e7, ipc, 5, 0.3, 1e8),
			Label:    label,
			Core:     i % 8,
		})
	}
	m, _, err := learn.Train(exs, learn.TrainParams{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// testManager builds a registry (optionally over a fault FS) and a
// manager with fresh counters.
func testManager(t *testing.T, fsys faultinject.FS) (*learn.Registry, *ModelManager, *telemetry.Counters) {
	t.Helper()
	var opts []learn.RegistryOption
	if fsys != nil {
		opts = append(opts, learn.WithRegistryFS(fsys))
	}
	reg, err := learn.OpenRegistry(filepath.Join(t.TempDir(), "models"), opts...)
	if err != nil {
		t.Fatal(err)
	}
	counters := &telemetry.Counters{}
	return reg, NewModelManager(reg, 0, cmm.DriftConfig{}, counters), counters
}

func TestModelReloadHotSwap(t *testing.T) {
	reg, mgr, counters := testManager(t, nil)

	// Cold start: an empty registry is not an error state.
	if _, ok := mgr.Policy(); ok {
		t.Fatal("Policy() ok before any promotion")
	}
	if _, err := mgr.Reload(); !errors.Is(err, learn.ErrNoModel) {
		t.Fatalf("cold Reload err = %v, want ErrNoModel", err)
	}
	if st := mgr.Status(); st.Loaded || st.LastError != "" {
		t.Fatalf("cold status = %+v, want unloaded with no error", st)
	}

	m1, m2 := trainTestModel(t, 1), trainTestModel(t, 2)
	if m1.Fingerprint() == m2.Fingerprint() {
		t.Fatal("test models collided; pick different seeds")
	}
	if _, err := reg.Promote(m1, "first"); err != nil {
		t.Fatal(err)
	}
	changed, err := mgr.Reload()
	if err != nil || !changed {
		t.Fatalf("Reload after promote: changed=%v err=%v", changed, err)
	}
	if fp := mgr.Fingerprint(); fp != m1.Fingerprint() {
		t.Fatalf("serving %s, want %s", fp, m1.Fingerprint())
	}
	p, ok := mgr.Policy()
	if !ok || p.Fingerprint() != m1.Fingerprint() {
		t.Fatal("Policy() does not serve the promoted model")
	}
	if _, ok := p.DriftStats(); !ok {
		t.Error("served policy has no drift monitor")
	}

	// Unchanged pointer: no-op.
	if changed, err := mgr.Reload(); err != nil || changed {
		t.Fatalf("no-op Reload: changed=%v err=%v", changed, err)
	}

	// A second promotion hot-swaps.
	if _, err := reg.Promote(m2, "second"); err != nil {
		t.Fatal(err)
	}
	if changed, err := mgr.Reload(); err != nil || !changed {
		t.Fatalf("Reload after second promote: changed=%v err=%v", changed, err)
	}
	if fp := mgr.Fingerprint(); fp != m2.Fingerprint() {
		t.Fatalf("serving %s after swap, want %s", fp, m2.Fingerprint())
	}
	st := mgr.Status()
	if !st.Loaded || st.Fingerprint != m2.Fingerprint() || st.Demoted {
		t.Errorf("status after swap = %+v", st)
	}
	if got := counters.Snapshot()["model_reloads_total"]; got != 2 {
		t.Errorf("model_reloads_total = %d, want 2", got)
	}
}

func TestModelReloadTornWriteKeepsOldServing(t *testing.T) {
	ffs := faultinject.Wrap(nil)
	reg, mgr, counters := testManager(t, ffs)
	m1, m2 := trainTestModel(t, 1), trainTestModel(t, 2)
	if _, err := reg.Promote(m1, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Reload(); err != nil {
		t.Fatal(err)
	}

	// Promote m2 with a silently torn envelope write (nil Err): the
	// pointer flips to a fingerprint whose file holds half a JSON document
	// — exactly what a crash mid-promotion leaves behind.
	ffs.Inject(faultinject.Fault{Op: faultinject.OpWrite, Times: 1, Torn: true})
	if _, err := reg.Promote(m2, "torn"); err != nil {
		t.Fatalf("torn promote should 'succeed' silently: %v", err)
	}
	ffs.Reset()

	if _, err := mgr.Reload(); err == nil {
		t.Fatal("Reload of a torn model file returned nil error")
	}
	// The worker keeps serving the old model and records the failure.
	if fp := mgr.Fingerprint(); fp != m1.Fingerprint() {
		t.Fatalf("serving %s after failed reload, want old %s", fp, m1.Fingerprint())
	}
	if _, ok := mgr.Policy(); !ok {
		t.Fatal("old policy gone after failed reload")
	}
	st := mgr.Status()
	if st.LastError == "" || !st.Loaded || st.Fingerprint != m1.Fingerprint() {
		t.Errorf("status after failed reload = %+v", st)
	}
	if counters.Snapshot()["model_reload_errors_total"] == 0 {
		t.Error("model_reload_errors_total not bumped")
	}

	// The torn file was quarantined; a clean re-promotion of m2 heals.
	if _, err := reg.Promote(m2, "healed"); err != nil {
		t.Fatal(err)
	}
	if changed, err := mgr.Reload(); err != nil || !changed {
		t.Fatalf("healing reload: changed=%v err=%v", changed, err)
	}
	if fp := mgr.Fingerprint(); fp != m2.Fingerprint() {
		t.Errorf("serving %s after heal, want %s", fp, m2.Fingerprint())
	}
	if mgr.Status().LastError != "" {
		t.Error("LastError not cleared by successful reload")
	}
}

// TestModelReloadConcurrentWithJobs hammers the manager from reader
// goroutines (the job path: resolve + clone + store identity) while a
// writer promotes and reloads — the -race target for the hot-swap lock.
func TestModelReloadConcurrentWithJobs(t *testing.T) {
	reg, mgr, _ := testManager(t, nil)
	if _, err := reg.Promote(trainTestModel(t, 1), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Reload(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p, ok := mgr.Policy()
				if !ok {
					t.Error("policy vanished mid-run")
					return
				}
				clone := p.Clone().(*cmm.Learned)
				_ = experiments.PolicyStoreName(clone)
				_, _ = clone.DriftStats()
				_ = mgr.Status()
			}
		}()
	}
	for i := int64(2); i < 8; i++ {
		if _, err := reg.Promote(trainTestModel(t, i), ""); err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.Reload(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if fp := mgr.Fingerprint(); fp != trainTestModel(t, 7).Fingerprint() {
		t.Errorf("final model %s, want the seed-7 model", fp)
	}
}

// TestModelReloadRollbackMidSweep runs a CMM-L job that blocks mid-run,
// rolls the model back underneath it via the HTTP endpoint, and asserts
// the in-flight job finishes untouched while the worker reports the
// rolled-back model.
func TestModelReloadRollbackMidSweep(t *testing.T) {
	reg, mgr, counters := testManager(t, nil)
	m1, m2 := trainTestModel(t, 1), trainTestModel(t, 2)
	for _, m := range []*learn.Model{m1, m2} {
		if _, err := reg.Promote(m, ""); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mgr.Reload(); err != nil {
		t.Fatal(err)
	}

	started := make(chan string, 1)
	release := make(chan struct{})
	_, ts := tinyServer(t, Config{
		Workers:  1,
		Counters: counters,
		Models:   mgr,
		execute: func(ctx context.Context, j *job) (any, error) {
			started <- experiments.PolicyStoreName(j.policies[0])
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return map[string]string{"ok": "yes"}, nil
		},
	})

	sweep := postJob(t, ts, `{"kind":"comparison","preset":"tiny","policies":["CMM-L"]}`)
	var jobIdentity string
	select {
	case jobIdentity = <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("job never started")
	}
	if !strings.Contains(jobIdentity, m2.Fingerprint()) {
		t.Fatalf("job runs %s, want the current model %s", jobIdentity, m2.Fingerprint())
	}

	// Roll back mid-sweep.
	resp, err := http.Post(ts.URL+"/v1/model/rollback", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rb struct {
		Fingerprint string      `json:"fingerprint"`
		Model       ModelStatus `json:"model"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rb.Fingerprint != m1.Fingerprint() {
		t.Fatalf("rollback: status %d fingerprint %s, want 200/%s", resp.StatusCode, rb.Fingerprint, m1.Fingerprint())
	}
	if fp := mgr.Fingerprint(); fp != m1.Fingerprint() {
		t.Fatalf("manager serves %s after rollback, want %s", fp, m1.Fingerprint())
	}

	// The in-flight job keeps its model instance and finishes cleanly.
	close(release)
	awaitState(t, ts, sweep.ID, StateDone)

	// /v1/model reflects the rollback.
	var st ModelStatus
	getJSON(t, ts.URL+"/v1/model", &st)
	if !st.Loaded || st.Fingerprint != m1.Fingerprint() {
		t.Errorf("/v1/model = %+v, want loaded %s", st, m1.Fingerprint())
	}
	if got := counters.Snapshot()["model_rollbacks_total"]; got != 1 {
		t.Errorf("model_rollbacks_total = %d, want 1", got)
	}

	// Rolling back past the first model is refused with 409 and the
	// serving model is untouched.
	resp2, err := http.Post(ts.URL+"/v1/model/rollback", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("second rollback status %d, want 409", resp2.StatusCode)
	}
	if fp := mgr.Fingerprint(); fp != m1.Fingerprint() {
		t.Errorf("failed rollback moved the model to %s", fp)
	}
}

func TestModelReloadEndpointsWithoutRegistry(t *testing.T) {
	_, ts := tinyServer(t, Config{Workers: 1})
	for _, probe := range []struct {
		method, path string
	}{
		{http.MethodGet, "/v1/model"},
		{http.MethodPost, "/v1/model/rollback"},
	} {
		req, err := http.NewRequest(probe.method, ts.URL+probe.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s without registry: %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
	}
	// CMM-L submissions are rejected at build time, not at run time.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"comparison","preset":"tiny","policies":["CMM-L"]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("CMM-L submit without registry: %d, want 400", resp.StatusCode)
	}
}

// TestModelReloadChangesJobResultKey pins the cache-correctness property
// hot swap depends on: the same request under two different models must
// address two different results, while classic policies keep stable keys.
func TestModelReloadChangesJobResultKey(t *testing.T) {
	reg, mgr, _ := testManager(t, nil)
	if _, err := reg.Promote(trainTestModel(t, 1), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Reload(); err != nil {
		t.Fatal(err)
	}
	s, _ := tinyServer(t, Config{Workers: 1, Models: mgr})
	req := jobRequest{Kind: "comparison", Preset: "tiny", Policies: []string{"CMM-L"}}
	j1, err := s.buildJob(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Promote(trainTestModel(t, 2), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Reload(); err != nil {
		t.Fatal(err)
	}
	j2, err := s.buildJob(req)
	if err != nil {
		t.Fatal(err)
	}
	if j1.resultKey == j2.resultKey {
		t.Error("identical result key across different models")
	}
	reqA := jobRequest{Kind: "comparison", Preset: "tiny", Policies: []string{"CMM-a"}}
	k1, err := s.buildJob(reqA)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := s.buildJob(reqA)
	if err != nil {
		t.Fatal(err)
	}
	if k1.resultKey != k2.resultKey {
		t.Error("classic policy result key unstable")
	}
}

// getJSON fetches a URL and decodes its 200 JSON body.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
