package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"cmm/internal/cmm"
	"cmm/internal/experiments"
	"cmm/internal/jobstore"
	"cmm/internal/runstore"
)

// tinyPreset is the smallest full-engine configuration, mirroring the
// experiments package's tiny test options.
func tinyPreset() experiments.Options {
	o := experiments.QuickOptions()
	o.CMM.ExecutionEpoch = 400_000
	o.CMM.SamplingInterval = 40_000
	o.WarmEpochs = 0
	o.MeasureEpochs = 1
	o.SoloWarmCycles = 400_000
	o.SoloMeasureCycles = 400_000
	o.MixesPerCategory = 1
	return o
}

// tinyServer starts a server on the tiny preset behind an httptest
// listener. A nil Store gets a memory-only run store; a nil Jobs gets a
// private jobstore with millisecond retry backoff and a fast scanner.
func tinyServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Presets == nil {
		cfg.Presets = map[string]experiments.Options{"tiny": tinyPreset()}
	}
	if cfg.Store == nil {
		store, err := runstore.Open("")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = store
	}
	if cfg.Jobs == nil {
		cfg.Jobs = testJobstore(t, t.TempDir(), "w")
		if cfg.ScanInterval == 0 {
			cfg.ScanInterval = 20 * time.Millisecond
		}
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

// testJobstore opens a jobstore at dir for worker id with millisecond
// retry backoff.
func testJobstore(t *testing.T, dir, id string) *jobstore.Store {
	t.Helper()
	js, err := jobstore.Open(dir, jobstore.WithWorker(id), jobstore.WithBackoff(time.Millisecond, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// postJob submits a job and decodes the 202 status.
func postJob(t *testing.T, ts *httptest.Server, body string) jobStatus {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, b)
	}
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.State != StateQueued {
		t.Fatalf("submit returned %+v", st)
	}
	return st
}

// getStatus fetches one job's status.
func getStatus(t *testing.T, ts *httptest.Server, id string) jobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// listJobs fetches the job listing.
func listJobs(t *testing.T, ts *httptest.Server) []jobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []jobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	return list.Jobs
}

// scrape fetches /metrics.
func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// awaitState polls a job until it reaches want (failing on a terminal
// state that isn't want).
func awaitState(t *testing.T, ts *httptest.Server, id, want string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st := getStatus(t, ts, id)
		if st.State == want {
			return st
		}
		switch st.State {
		case StateDone, StateFailed, StateCanceled:
			t.Fatalf("job %s reached %q (err %q), want %q", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q waiting for %q", id, st.State, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestE2EComparisonJob is the acceptance-criteria end-to-end: a job
// submitted over HTTP, polled to completion, must return exactly what the
// direct library call computes, and the CSV rendering must be served.
func TestE2EComparisonJob(t *testing.T) {
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := tinyServer(t, Config{Store: store})

	st := postJob(t, ts, `{"kind":"comparison","preset":"tiny","policies":["PT"],"priority":1}`)
	done := awaitState(t, ts, st.ID, StateDone)
	if done.Progress.Total == 0 || done.Progress.Done != done.Progress.Total {
		t.Errorf("finished job progress %d/%d, want complete and non-empty", done.Progress.Done, done.Progress.Total)
	}
	if done.StartedAt == "" || done.FinishedAt == "" {
		t.Errorf("finished job missing timestamps: %+v", done)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d", resp.StatusCode)
	}
	var got ComparisonResult
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}

	// The direct library call with the same preset must agree exactly.
	// JSON's shortest-float encoding round-trips float64 bit-exactly, so
	// DeepEqual over the decoded payload is a bit comparison.
	p, ok := cmm.PolicyByName("PT")
	if !ok {
		t.Fatal("no PT policy")
	}
	want, err := experiments.RunComparison(tinyPreset(), []cmm.Policy{p})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Policies, want.Policies) {
		t.Errorf("policies: %v, want %v", got.Policies, want.Policies)
	}
	if len(got.Mixes) != len(want.Mixes) {
		t.Fatalf("%d mixes, want %d", len(got.Mixes), len(want.Mixes))
	}
	for i, m := range want.Mixes {
		if got.Mixes[i].Name != m.Name || got.Mixes[i].Category != m.Category.String() {
			t.Errorf("mix %d: %+v, want %s/%s", i, got.Mixes[i], m.Name, m.Category)
		}
	}
	for _, pol := range want.Policies {
		if !reflect.DeepEqual(got.Results[pol], want.Results[pol]) {
			t.Errorf("%s: HTTP results differ from direct call:\n http %+v\n lib  %+v", pol, got.Results[pol], want.Results[pol])
		}
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	csvBody, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("csv: status %d", resp.StatusCode)
	}
	lines := strings.Split(strings.TrimSpace(string(csvBody)), "\n")
	if wantRows := 1 + len(want.Policies)*len(want.Mixes); len(lines) != wantRows {
		t.Errorf("csv has %d lines, want %d:\n%s", len(lines), wantRows, csvBody)
	}
	if !strings.HasPrefix(lines[0], "policy,mix,category,norm_hs") {
		t.Errorf("csv header = %q", lines[0])
	}

	// A resubmission of the identical job must be served from the store:
	// hits recorded, and the result identical.
	rerun := postJob(t, ts, `{"kind":"comparison","preset":"tiny","policies":["PT"]}`)
	awaitState(t, ts, rerun.ID, StateDone)
	if st := store.Stats(); st.Hits == 0 {
		t.Errorf("rerun recorded no store hits: %+v", st)
	}
}

// blockingServer installs an execute stub that parks jobs until released,
// returning the stub's release channel and a started signal.
func blockingServer(t *testing.T, cfg Config) (*Server, *httptest.Server, chan struct{}, chan string) {
	t.Helper()
	s, ts := tinyServer(t, cfg)
	release := make(chan struct{})
	started := make(chan string, 64)
	s.execute = func(ctx context.Context, j *job) (any, error) {
		started <- j.id
		select {
		case <-release:
			return map[string]string{"ok": j.id}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return s, ts, release, started
}

// TestQueueFullRejects pins the 503 admission contract and that the
// rejected job does not linger in the listing.
func TestQueueFullRejects(t *testing.T) {
	_, ts, release, started := blockingServer(t, Config{Workers: 1, QueueDepth: 1})
	defer close(release)

	running := postJob(t, ts, `{"preset":"tiny"}`)
	<-started // worker is parked on the first job
	queued := postJob(t, ts, `{"preset":"tiny"}`)

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"preset":"tiny"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: status %d: %s", resp.StatusCode, body)
	}

	if jobs := listJobs(t, ts); len(jobs) != 2 {
		t.Fatalf("listing has %d jobs, want 2 (rejected job must not appear): %+v", len(jobs), jobs)
	}
	_ = running
	_ = queued
}

// TestPriorityOrdersQueue submits low- then high-priority jobs onto a
// parked worker and checks the high one runs first.
func TestPriorityOrdersQueue(t *testing.T) {
	_, ts, release, started := blockingServer(t, Config{Workers: 1, QueueDepth: 8})
	defer close(release)

	// Distinct seeds give each job its own result hash, so none is
	// answered from the store the parked job fills.
	postJob(t, ts, `{"preset":"tiny","seeds":[1]}`) // parks the worker
	first := <-started
	low := postJob(t, ts, `{"preset":"tiny","seeds":[2],"priority":1}`)
	high := postJob(t, ts, `{"preset":"tiny","seeds":[3],"priority":9}`)
	_ = first

	release <- struct{}{} // finish the parked job; worker pops next
	if next := <-started; next != high.ID {
		t.Errorf("worker picked %s, want high-priority %s before %s", next, high.ID, low.ID)
	}
	release <- struct{}{}
	<-started // low runs last
}

// TestCancelJob covers both cancellation paths: a queued job flips to
// canceled immediately; a running job's context is cancelled and the
// worker records the state.
func TestCancelJob(t *testing.T) {
	_, ts, release, started := blockingServer(t, Config{Workers: 1, QueueDepth: 8})
	defer close(release)

	running := postJob(t, ts, `{"preset":"tiny"}`)
	<-started
	queued := postJob(t, ts, `{"preset":"tiny"}`)

	del := func(id string) jobStatus {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st jobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	if st := del(queued.ID); st.State != StateCanceled {
		t.Errorf("queued job after cancel: %q, want canceled", st.State)
	}
	del(running.ID)
	if st := awaitState(t, ts, running.ID, StateCanceled); st.Error == "" {
		t.Errorf("cancelled running job carries no error: %+v", st)
	}

	// The result endpoint must refuse non-done jobs.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + queued.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("result of cancelled job: status %d, want 409", resp.StatusCode)
	}
}

// TestShutdownDrains verifies the drain contract: admission stops with
// 503, running jobs finish within the grace, and queued jobs stay queued
// in the jobstore — unleased — so a server restarted on the same jobs
// directory adopts and finishes them.
func TestShutdownDrains(t *testing.T) {
	jobsDir := t.TempDir()
	js := testJobstore(t, jobsDir, "w-old")
	s, ts, release, started := blockingServer(t, Config{Jobs: js, Workers: 1, QueueDepth: 8})

	running := postJob(t, ts, `{"preset":"tiny"}`)
	<-started
	queued := postJob(t, ts, `{"preset":"tiny"}`)

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	// Admission must close before the drain completes.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"preset":"tiny"}`))
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("submissions still accepted during shutdown")
		}
		time.Sleep(10 * time.Millisecond)
	}

	close(release) // let the running job finish
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if st := awaitState(t, ts, running.ID, StateDone); st.State != StateDone {
		t.Errorf("running job after drain: %+v", st)
	}
	if st := getStatus(t, ts, queued.ID); st.State != StateQueued {
		t.Errorf("queued job status after drain = %q, want queued", st.State)
	}
	if rec, err := js.Get(queued.ID); err != nil || rec.State != jobstore.StateQueued {
		t.Errorf("queued job record after drain = (%+v, %v), want queued", rec, err)
	}
	if leases, err := js.Leases(); err != nil || len(leases) != 0 {
		t.Errorf("leases after drain = (%v, %v), want none", leases, err)
	}

	// A fresh server on the same jobs directory adopts the queued job.
	_, ts2 := tinyServer(t, Config{
		Jobs: testJobstore(t, jobsDir, "w-new"),
		execute: func(ctx context.Context, j *job) (any, error) {
			return map[string]string{"adopted": j.id}, nil
		},
	})
	if st := awaitState(t, ts2, queued.ID, StateDone); st.Worker != "w-new" {
		t.Errorf("adopted job finished by %q, want w-new", st.Worker)
	}
}

// TestForcedDrainRequeuesJob pins what a forced drain leaves behind: the
// job running when Shutdown's deadline passes is queued again in its
// record, the listing and the job gauge say so, and a second server on
// the same jobs directory finishes it.
func TestForcedDrainRequeuesJob(t *testing.T) {
	jobsDir := t.TempDir()
	s, ts, _, started := blockingServer(t, Config{Jobs: testJobstore(t, jobsDir, "w-old"), Workers: 1})
	st := postJob(t, ts, `{"preset":"tiny"}`)
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced shutdown = %v, want %v", err, context.DeadlineExceeded)
	}
	if rec, err := s.cfg.Jobs.Get(st.ID); err != nil || rec.State != jobstore.StateQueued {
		t.Fatalf("record after forced drain = (%+v, %v), want queued", rec, err)
	}
	if jobs := listJobs(t, ts); len(jobs) != 1 || jobs[0].State != StateQueued {
		t.Errorf("listing after forced drain = %+v, want the job queued", jobs)
	}
	s.scanOnceNow()
	if body := scrape(t, ts); !strings.Contains(body, `cmm_jobs{state="queued"} 1`) {
		t.Errorf("metrics after forced drain miss cmm_jobs{state=\"queued\"} 1:\n%s", body)
	}

	_, ts2 := tinyServer(t, Config{
		Jobs: testJobstore(t, jobsDir, "w-new"),
		execute: func(ctx context.Context, j *job) (any, error) {
			return map[string]string{"finished_by": "w-new"}, nil
		},
	})
	if got := awaitState(t, ts2, st.ID, StateDone); got.Worker != "w-new" || got.Attempt != 2 {
		t.Errorf("requeued job finished by %q on attempt %d, want w-new on attempt 2", got.Worker, got.Attempt)
	}
}

// TestLocalStateBounded pins that the server keeps per-job state only
// for the jobs in its heap or running: while 2,000 jobs pass through,
// local never holds more than QueueDepth + Workers of them, afterwards
// it holds none, and the listing still reports every job done.
func TestLocalStateBounded(t *testing.T) {
	const n, workers, depth = 2000, 2, 16
	s, ts := tinyServer(t, Config{
		Workers: workers, QueueDepth: depth, ScanInterval: time.Hour,
		execute: func(ctx context.Context, j *job) (any, error) {
			return map[string]bool{"ok": true}, nil
		},
	})
	held := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.local)
	}
	most := 0
	for range n {
		for {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"preset":"tiny"}`))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode == http.StatusAccepted {
				break
			}
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("submit: status %d", resp.StatusCode)
			}
			time.Sleep(time.Millisecond) // queue full: let the workers catch up
		}
		most = max(most, held())
	}
	for deadline := time.Now().Add(time.Minute); held() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d jobs still held locally", held())
		}
	}
	if most > depth+workers {
		t.Errorf("local held up to %d jobs, want at most QueueDepth + Workers = %d", most, depth+workers)
	}
	jobs := listJobs(t, ts)
	if len(jobs) != n {
		t.Fatalf("listing has %d jobs, want %d", len(jobs), n)
	}
	for _, st := range jobs {
		if st.State != StateDone {
			t.Fatalf("job %s is %q, want done", st.ID, st.State)
		}
	}
}

// TestBadRequests pins the 400 family.
func TestBadRequests(t *testing.T) {
	_, ts := tinyServer(t, Config{})
	for name, body := range map[string]string{
		"malformed json": `{`,
		"unknown kind":   `{"kind":"nope"}`,
		"unknown preset": `{"preset":"nope"}`,
		"unknown policy": `{"preset":"tiny","policies":["PT","nope"]}`,
		"bad timeout":    `{"preset":"tiny","timeout_seconds":-1}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, bytes.TrimSpace(b))
		}
	}
	// Unknown job IDs are 404 on every job endpoint.
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestMetricsEndpoint checks the exposition format carries the queue,
// job-state, store, and lease gauges.
func TestMetricsEndpoint(t *testing.T) {
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put("ab"+strings.Repeat("0", 62), []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	s, ts, release, started := blockingServer(t, Config{Workers: 1, QueueDepth: 8, Store: store})
	defer close(release)
	postJob(t, ts, `{"preset":"tiny"}`)
	<-started
	s.stopScanner()
	s.scanOnceNow() // the job gauges are as of the last scan

	body := scrape(t, ts)
	for _, want := range []string{
		"cmm_epochs_total ",
		"cmm_store_hits_total ",
		`cmm_jobs{state="running"} 1`,
		"cmm_queue_depth 0",
		"cmm_store_disk_entries 1",
		"cmm_store_disk_bytes ",
		"cmm_leases_active 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestServeUntil exercises the graceful HTTP helper shared with cmmd: it
// serves while the context lives and drains cleanly on cancellation.
func TestServeUntil(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/ping", func(w http.ResponseWriter, _ *http.Request) { fmt.Fprint(w, "pong") })
	srv := NewHTTPServer(ln.Addr().String(), mux)
	if srv.ReadHeaderTimeout == 0 || srv.ReadTimeout == 0 || srv.IdleTimeout == 0 {
		t.Fatal("NewHTTPServer returned a server without timeouts")
	}

	ctx, cancel := context.WithCancel(context.Background())
	doneServing := make(chan error, 1)
	go func() { doneServing <- ServeUntil(ctx, srv, ln, 5*time.Second) }()

	resp, err := http.Get("http://" + ln.Addr().String() + "/ping")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "pong" {
		t.Fatalf("ping returned %q", body)
	}

	cancel()
	select {
	case err := <-doneServing:
		if err != nil {
			t.Fatalf("ServeUntil: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeUntil did not drain")
	}
}
