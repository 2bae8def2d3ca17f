package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cmm/internal/experiments"
	"cmm/internal/faultinject"
	"cmm/internal/jobstore"
	"cmm/internal/runstore"
	"cmm/internal/telemetry"
)

// getRaw issues a GET with optional headers and returns status, headers
// and body.
func getRaw(t *testing.T, url string, hdr map[string]string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// postLookup posts a config to /v1/results/lookup and returns status and
// body.
func postLookup(t *testing.T, ts *httptest.Server, query, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/results/lookup"+query, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

// TestReadPathConformance is the serving-tier acceptance test: for one
// finished job, GET /v1/results/{hash} must serve bytes identical to
// GET /v1/jobs/{id}/result, in JSON and in CSV, with the caching
// headers (strong ETag, immutable Cache-Control) and 304 revalidation
// working on both endpoints.
func TestReadPathConformance(t *testing.T) {
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := tinyServer(t, Config{Store: store})

	st := postJob(t, ts, `{"kind":"comparison","preset":"tiny","policies":["PT"]}`)
	if st.ResultHash == "" {
		t.Fatal("submitted job status carries no result_hash")
	}
	if !validResultHash(st.ResultHash) {
		t.Fatalf("result_hash %q is not a store key", st.ResultHash)
	}
	awaitState(t, ts, st.ID, StateDone)

	jobCode, jobHdr, jobBody := getRaw(t, ts.URL+"/v1/jobs/"+st.ID+"/result", nil)
	readCode, readHdr, readBody := getRaw(t, ts.URL+"/v1/results/"+st.ResultHash, nil)
	if jobCode != http.StatusOK || readCode != http.StatusOK {
		t.Fatalf("status: job endpoint %d, read path %d", jobCode, readCode)
	}
	if !bytes.Equal(jobBody, readBody) {
		t.Fatalf("payloads differ: job endpoint %d bytes, read path %d bytes", len(jobBody), len(readBody))
	}

	wantETag := `"` + st.ResultHash + `"`
	for name, hdr := range map[string]http.Header{"job endpoint": jobHdr, "read path": readHdr} {
		if got := hdr.Get("ETag"); got != wantETag {
			t.Errorf("%s ETag %q, want %q", name, got, wantETag)
		}
		if got := hdr.Get("Cache-Control"); !strings.Contains(got, "immutable") {
			t.Errorf("%s Cache-Control %q, want immutable", name, got)
		}
		if got := hdr.Get("X-Result-Hash"); got != st.ResultHash {
			t.Errorf("%s X-Result-Hash %q, want %q", name, got, st.ResultHash)
		}
	}

	// CSV renderings must also match byte-for-byte across endpoints.
	_, _, jobCSV := getRaw(t, ts.URL+"/v1/jobs/"+st.ID+"/result?format=csv", nil)
	_, _, readCSV := getRaw(t, ts.URL+"/v1/results/"+st.ResultHash+"?format=csv", nil)
	if !bytes.Equal(jobCSV, readCSV) || len(jobCSV) == 0 {
		t.Fatalf("csv differs: job endpoint %q, read path %q", jobCSV, readCSV)
	}

	// Revalidation: the correct tag gets 304 with no body on both paths,
	// a stale tag gets the full 200.
	inm := map[string]string{"If-None-Match": wantETag}
	for _, url := range []string{ts.URL + "/v1/jobs/" + st.ID + "/result", ts.URL + "/v1/results/" + st.ResultHash} {
		code, hdr, body := getRaw(t, url, inm)
		if code != http.StatusNotModified || len(body) != 0 {
			t.Errorf("GET %s If-None-Match: status %d body %d bytes, want 304 empty", url, code, len(body))
		}
		if got := hdr.Get("ETag"); got != wantETag {
			t.Errorf("304 ETag %q, want %q", got, wantETag)
		}
	}
	if code, _, _ := getRaw(t, ts.URL+"/v1/results/"+st.ResultHash, map[string]string{"If-None-Match": `"stale"`}); code != http.StatusOK {
		t.Errorf("stale If-None-Match: status %d, want 200", code)
	}

	// The CSV variant revalidates under its own tag, not the JSON one.
	code, hdr, _ := getRaw(t, ts.URL+"/v1/results/"+st.ResultHash+"?format=csv", inm)
	if code != http.StatusOK {
		t.Errorf("csv with JSON ETag: status %d, want 200 (different variant)", code)
	}
	if got := hdr.Get("ETag"); got != `"`+st.ResultHash+`-csv"` {
		t.Errorf("csv ETag %q, want variant tag", got)
	}

	// POST /v1/results/lookup with the same config resolves to the same
	// hash and serves the same bytes.
	lkCode, lkHdr, lkBody := postLookup(t, ts, "", `{"kind":"comparison","preset":"tiny","policies":["PT"]}`)
	if lkCode != http.StatusOK {
		t.Fatalf("lookup: status %d: %s", lkCode, lkBody)
	}
	if got := lkHdr.Get("X-Result-Hash"); got != st.ResultHash {
		t.Errorf("lookup resolved hash %q, want %q", got, st.ResultHash)
	}
	if !bytes.Equal(lkBody, readBody) {
		t.Fatal("lookup payload differs from read path")
	}
}

// TestLookupSingleflight pins the compute-on-miss dedup: N concurrent
// lookups for one uncached config run exactly one compute, and every
// request gets the identical payload.
func TestLookupSingleflight(t *testing.T) {
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts := tinyServer(t, Config{Store: store, Workers: 4})
	var execs atomic.Int64
	s.execute = func(ctx context.Context, j *job) (any, error) {
		execs.Add(1)
		time.Sleep(50 * time.Millisecond) // hold the window open so lookups overlap
		return map[string]string{"payload": "singleflight"}, nil
	}

	const n = 16
	codes := make([]int, n)
	hashes := make([]string, n)
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var hdr http.Header
			codes[i], hdr, bodies[i] = postLookup(t, ts, "?wait=30s", `{"kind":"comparison","preset":"tiny","policies":["PT"]}`)
			hashes[i] = hdr.Get("X-Result-Hash")
		}(i)
	}
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Fatalf("%d concurrent lookups ran %d computes, want exactly 1", n, got)
	}
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("lookup %d: status %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("lookup %d payload differs from lookup 0", i)
		}
	}

	// The record lookup-<hash> did the deduping: it ends done, and it is
	// the only job the lookups left.
	awaitState(t, ts, lookupID(hashes[0]), StateDone)
	if jobs := listJobs(t, ts); len(jobs) != 1 {
		t.Errorf("%d lookups left %d jobs, want 1: %+v", n, len(jobs), jobs)
	}
}

// TestDrainReadWriteSplit pins shutdown behavior: after BeginDrain,
// cached reads keep serving 200 while job submission and compute-on-miss
// are refused with 503.
func TestDrainReadWriteSplit(t *testing.T) {
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts := tinyServer(t, Config{Store: store})
	s.execute = func(ctx context.Context, j *job) (any, error) {
		return map[string]string{"payload": "drain"}, nil
	}

	cfgJSON := `{"kind":"comparison","preset":"tiny","policies":["PT"]}`
	st := postJob(t, ts, cfgJSON)
	awaitState(t, ts, st.ID, StateDone)

	s.BeginDrain()

	// Cached reads still serve.
	if code, _, body := getRaw(t, ts.URL+"/v1/results/"+st.ResultHash, nil); code != http.StatusOK {
		t.Errorf("draining cached GET: status %d (%s), want 200", code, body)
	}
	if code, _, _ := postLookup(t, ts, "", cfgJSON); code != http.StatusOK {
		t.Errorf("draining cached lookup: status %d, want 200", code)
	}

	// Writes and compute-on-miss are refused.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(cfgJSON))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining submit: status %d, want 503", resp.StatusCode)
	}
	uncached := `{"kind":"comparison","preset":"tiny","policies":["PT"],"seeds":[99]}`
	code, _, body := postLookup(t, ts, "", uncached)
	if code != http.StatusServiceUnavailable {
		t.Errorf("draining uncached lookup: status %d (%s), want 503", code, body)
	}
}

// TestGetResultValidation covers the read path's error contract.
func TestGetResultValidation(t *testing.T) {
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := tinyServer(t, Config{Store: store})

	cases := []struct {
		url  string
		want int
	}{
		{"/v1/results/nothex", http.StatusBadRequest},
		{"/v1/results/" + strings.Repeat("g", 64), http.StatusBadRequest},
		{"/v1/results/" + strings.Repeat("ab", 32), http.StatusNotFound},
		{"/v1/results/" + strings.Repeat("ab", 32) + "?wait=bogus", http.StatusBadRequest},
		{"/v1/results/" + strings.Repeat("ab", 32) + "?wait=-1s", http.StatusBadRequest},
	}
	for _, c := range cases {
		if code, _, body := getRaw(t, ts.URL+c.url, nil); code != c.want {
			t.Errorf("GET %s: status %d (%s), want %d", c.url, code, body, c.want)
		}
	}

	// Uppercase hashes normalize to the canonical lowercase key.
	if code, _, _ := getRaw(t, ts.URL+"/v1/results/"+strings.ToUpper(strings.Repeat("ab", 32)), nil); code != http.StatusNotFound {
		t.Errorf("uppercase hash: want 404 after normalization")
	}
}

// TestLookupWaitDeadline pins the blocking contract: a lookup whose wait
// expires before the compute finishes gets 202 with the hash and job to
// poll, and a later wait sees the published result; a GET with ?wait=
// blocks for a result another request is computing.
func TestLookupWaitDeadline(t *testing.T) {
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts := tinyServer(t, Config{Store: store})
	release := make(chan struct{})
	s.execute = func(ctx context.Context, j *job) (any, error) {
		select {
		case <-release:
			return map[string]string{"payload": "deadline"}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	cfgJSON := `{"kind":"comparison","preset":"tiny","policies":["PT"]}`
	code, hdr, body := postLookup(t, ts, "?wait=50ms", cfgJSON)
	if code != http.StatusAccepted {
		t.Fatalf("expired wait: status %d (%s), want 202", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "json") {
		t.Errorf("202 Content-Type %q", ct)
	}
	var accepted struct {
		ResultHash string    `json:"result_hash"`
		Job        jobStatus `json:"job"`
	}
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatalf("202 body %q: %v", body, err)
	}
	if !validResultHash(accepted.ResultHash) || accepted.Job.ID == "" {
		t.Fatalf("202 body lacks hash/job: %+v", accepted)
	}

	// A GET ?wait= on the announced hash blocks until the job publishes.
	type get struct {
		code int
		body []byte
	}
	done := make(chan get, 1)
	go func() {
		c, _, b := getRaw(t, ts.URL+"/v1/results/"+accepted.ResultHash+"?wait=30s", nil)
		done <- get{c, b}
	}()
	time.Sleep(30 * time.Millisecond) // let the GET reach its poll loop
	close(release)
	g := <-done
	if g.code != http.StatusOK {
		t.Fatalf("waiting GET: status %d (%s), want 200 after release", g.code, g.body)
	}

	// And the lookup now serves from cache instantly.
	if code, _, body := postLookup(t, ts, "", cfgJSON); code != http.StatusOK || !bytes.Equal(body, g.body) {
		t.Fatalf("post-release lookup: status %d, bytes equal %v", code, bytes.Equal(body, g.body))
	}
}

// TestLookupComputeFailure maps a failed compute to 502 for waiting
// requests instead of a silent deadline expiry.
func TestLookupComputeFailure(t *testing.T) {
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts := tinyServer(t, Config{Store: store, MaxAttempts: 1})
	s.execute = func(ctx context.Context, j *job) (any, error) {
		return nil, fmt.Errorf("synthetic compute failure")
	}

	code, _, body := postLookup(t, ts, "?wait=30s", `{"kind":"comparison","preset":"tiny","policies":["PT"]}`)
	if code != http.StatusBadGateway {
		t.Fatalf("failed compute: status %d (%s), want 502", code, body)
	}
	if !strings.Contains(string(body), "synthetic compute failure") {
		t.Errorf("502 body %q does not carry the cause", body)
	}
}

// TestLookupCanceledAnswersNotFound pins that a canceled lookup leaves
// its hash with no compute in flight: GET answers 404 with or without a
// wait (the wait reads the record lookup-<hash> and finds it ended, not a
// per-process memory of the job), and the next lookup starts a fresh
// generation of the same record that computes the result.
func TestLookupCanceledAnswersNotFound(t *testing.T) {
	_, ts, release, started := blockingServer(t, Config{Workers: 1, QueueDepth: 8})
	postJob(t, ts, `{"preset":"tiny","seeds":[1]}`) // parks the only worker
	<-started

	const cfgJSON = `{"preset":"tiny","seeds":[2]}`
	code, _, body := postLookup(t, ts, "", cfgJSON)
	if code != http.StatusAccepted {
		t.Fatalf("lookup behind a busy worker: status %d (%s), want 202", code, body)
	}
	var accepted struct {
		ResultHash string    `json:"result_hash"`
		Job        jobStatus `json:"job"`
	}
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+accepted.Job.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	for _, q := range []string{"", "?wait=50ms"} {
		if code, _, body := getRaw(t, ts.URL+"/v1/results/"+accepted.ResultHash+q, nil); code != http.StatusNotFound {
			t.Errorf("GET%s after the lookup was canceled: status %d (%s), want 404", q, code, body)
		}
	}
	if want := lookupID(accepted.ResultHash); accepted.Job.ID != want {
		t.Errorf("lookup job id %q, want %q", accepted.Job.ID, want)
	}

	close(release)
	if code, _, body := postLookup(t, ts, "?wait=30s", cfgJSON); code != http.StatusOK {
		t.Fatalf("lookup after the cancel: status %d (%s), want 200", code, body)
	}
	if st := awaitState(t, ts, accepted.Job.ID, StateDone); st.Attempt != 1 || len(st.Attempts) != 0 {
		t.Errorf("new generation %+v, want attempt 1 with no history", st)
	}
}

// TestLookupSharedAcrossWorkers pins the cluster-wide singleflight: two
// servers on one run store and jobs directory take concurrent waiting
// lookups of one config and run the compute once. Whichever way the two
// admissions interleave, both name the record lookup-<hash>: if both
// enqueue it, the lease lets one execute, and a generation rewritten after
// the result was stored is answered from the store at claim.
func TestLookupSharedAcrossWorkers(t *testing.T) {
	storeDir, jobsDir := t.TempDir(), t.TempDir()
	var execs atomic.Int64
	exec := func(ctx context.Context, j *job) (any, error) {
		execs.Add(1)
		time.Sleep(100 * time.Millisecond) // both lookups arrive while it runs
		return map[string]string{"payload": "shared"}, nil
	}
	_, tsA, _ := chaosWorker(t, storeDir, jobsDir, "w-a", 2*time.Second, exec)
	sB, tsB, _ := chaosWorker(t, storeDir, jobsDir, "w-b", 2*time.Second, exec)

	const cfgJSON = `{"preset":"tiny","policies":["PT"]}`
	servers := []*httptest.Server{tsA, tsB}
	codes := make([]int, len(servers))
	bodies := make([][]byte, len(servers))
	var wg sync.WaitGroup
	for i, ts := range servers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i], _, bodies[i] = postLookup(t, ts, "?wait=30s", cfgJSON)
		}()
	}
	wg.Wait()

	for i := range servers {
		if codes[i] != http.StatusOK || !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("lookup on worker %d: status %d (%s), want 200 and worker 0's bytes", i, codes[i], bodies[i])
		}
	}
	if n := execs.Load(); n != 1 {
		t.Errorf("concurrent lookups on two workers ran %d computes, want 1", n)
	}
	if jobs := listJobs(t, tsB); len(jobs) != 1 || !strings.HasPrefix(jobs[0].ID, "lookup-") {
		t.Errorf("two workers' lookups left jobs %+v, want one lookup-<hash>", jobs)
	}

	// A worker that found no live record before the compute started may
	// enqueue only after it ended, over the done record: the new
	// generation is answered from the store at claim, without a second
	// compute. The waiters return once the bytes are stored, just before
	// the done write, so wait for that first.
	j, err := sB.buildJob(jobRequest{Preset: "tiny", Policies: []string{"PT"}})
	if err != nil {
		t.Fatal(err)
	}
	j.id = lookupID(j.resultKey)
	awaitState(t, tsB, j.id, StateDone)
	if _, err := sB.enqueueJob(j, []byte(cfgJSON)); err != nil {
		t.Fatal(err)
	}
	awaitState(t, tsB, j.id, StateDone)
	if rec, err := sB.cfg.Jobs.Get(j.id); err != nil || rec.Attempt != 0 {
		t.Errorf("rewritten generation %+v (%v), want done at attempt 0 (answered from the store)", rec, err)
	}
	if n := execs.Load(); n != 1 {
		t.Errorf("a generation enqueued after the result was stored ran the compute again (%d computes)", n)
	}
}

// renameCounter counts the atomic-write renames landing on each file name.
type renameCounter struct {
	faultinject.OS
	mu      sync.Mutex
	renames map[string]int
}

func (c *renameCounter) Rename(oldpath, newpath string) error {
	c.mu.Lock()
	c.renames[filepath.Base(newpath)]++
	c.mu.Unlock()
	return c.OS.Rename(oldpath, newpath)
}

func (c *renameCounter) count(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.renames[name]
}

// TestResultPublishedOnlyWhenMissing checks that a finished job writes its
// result to the run store only when the store lacks it: a resubmitted
// job leaves the stored entry alone, and a corrupt entry is rewritten.
func TestResultPublishedOnlyWhenMissing(t *testing.T) {
	dir := t.TempDir()
	const body = `{"kind":"comparison","preset":"tiny","policies":["PT"]}`
	run := func() (*renameCounter, jobStatus, []byte, int32) {
		t.Helper()
		fsys := &renameCounter{renames: map[string]int{}}
		store, err := runstore.Open(dir, runstore.WithFS(fsys))
		if err != nil {
			t.Fatal(err)
		}
		s, ts := tinyServer(t, Config{Store: store})
		var runs atomic.Int32
		s.execute = func(ctx context.Context, j *job) (any, error) {
			runs.Add(1)
			return s.executeJob(ctx, j)
		}
		st := postJob(t, ts, body)
		awaitState(t, ts, st.ID, StateDone)
		_, _, res := getRaw(t, ts.URL+"/v1/jobs/"+st.ID+"/result", nil)
		again := postJob(t, ts, body)
		awaitState(t, ts, again.ID, StateDone)
		return fsys, st, res, runs.Load()
	}

	fsys, st, res, _ := run()
	file := st.ResultHash + ".json"
	if n := fsys.count(file); n != 1 {
		t.Fatalf("two jobs of one configuration wrote the result %d times, want 1", n)
	}

	// Corrupt the entry on disk; a fresh store finds it on its first Get.
	path := filepath.Join(dir, st.ResultHash[:2], file)
	if err := os.WriteFile(path, []byte(`{"truncated`), 0o644); err != nil {
		t.Fatal(err)
	}
	fsys, _, _, runs := run()
	if n := fsys.count(file); n != 1 {
		t.Fatalf("a corrupt result entry was rewritten %d times, want 1", n)
	}
	if runs != 1 {
		t.Errorf("a corrupt entry then its rewrite took %d executions, want 1 (the rewrite answers the second job)", runs)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, res) {
		t.Errorf("rewritten entry differs from the job's result (%d vs %d bytes)", len(got), len(res))
	}
}

// TestWarmJobAnsweredFromStore checks that a job whose result hash the
// run store already holds finishes from those bytes without executing:
// no attempt charged, a start time stamped, complete progress, and the
// first job's bytes on /result.
func TestWarmJobAnsweredFromStore(t *testing.T) {
	var runs atomic.Int32
	counters := &telemetry.Counters{}
	s, ts := tinyServer(t, Config{Counters: counters, execute: func(ctx context.Context, j *job) (any, error) {
		runs.Add(1)
		return map[string]string{"payload": "warm"}, nil
	}})
	const body = `{"preset":"tiny","policies":["PT"]}`
	first := postJob(t, ts, body)
	awaitState(t, ts, first.ID, StateDone)
	_, _, want := getRaw(t, ts.URL+"/v1/jobs/"+first.ID+"/result", nil)

	again := postJob(t, ts, body)
	st := awaitState(t, ts, again.ID, StateDone)
	if n := runs.Load(); n != 1 {
		t.Errorf("two identical jobs executed %d times, want 1", n)
	}
	if st.ResultHash != first.ResultHash {
		t.Errorf("warm job result hash %s, want %s", st.ResultHash, first.ResultHash)
	}
	rec, err := s.cfg.Jobs.Get(again.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Attempt != 0 {
		t.Errorf("warm job charged %d attempts, want 0", rec.Attempt)
	}
	if rec.StartedAt.IsZero() {
		t.Error("warm job has no started_at")
	}
	if p := rec.Progress; p.Total == 0 || p.Done != p.Total {
		t.Errorf("warm job progress %d/%d, want complete and non-empty", p.Done, p.Total)
	}
	if code, _, got := getRaw(t, ts.URL+"/v1/jobs/"+again.ID+"/result", nil); code != http.StatusOK || !bytes.Equal(got, want) {
		t.Errorf("warm job result: status %d, %q; want 200, %q", code, got, want)
	}
	if n := counters.Snapshot()["jobs_answered_from_store_total"]; n != 1 {
		t.Errorf("jobs_answered_from_store_total = %d, want 1", n)
	}
}

// TestWarmJobMatchesForcedRun pins that the bytes a warm job is answered
// with are the ones the engine produces: a second server over the first
// one's store directory answers the configuration without executing, and
// its bytes equal a forced run of that configuration on a fresh store.
func TestWarmJobMatchesForcedRun(t *testing.T) {
	const body = `{"kind":"comparison","preset":"tiny","policies":["PT"]}`
	// Shorter windows than tinyPreset: the test runs the engine twice,
	// and CI repeats it under the race detector.
	preset := tinyPreset()
	preset.CMM.ExecutionEpoch = 50_000
	preset.CMM.SamplingInterval = 5_000
	preset.SoloWarmCycles = 50_000
	preset.SoloMeasureCycles = 50_000
	presets := map[string]experiments.Options{"tiny": preset}
	dir := t.TempDir()
	result := func(store *runstore.Store) (*jobstore.Record, []byte) {
		t.Helper()
		s, ts := tinyServer(t, Config{Store: store, Presets: presets})
		st := postJob(t, ts, body)
		awaitState(t, ts, st.ID, StateDone)
		rec, err := s.cfg.Jobs.Get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		code, _, raw := getRaw(t, ts.URL+"/v1/jobs/"+st.ID+"/result", nil)
		if code != http.StatusOK {
			t.Fatalf("result: status %d: %s", code, raw)
		}
		return rec, raw
	}
	openStore := func(dir string) *runstore.Store {
		t.Helper()
		store, err := runstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return store
	}

	if cold, _ := result(openStore(dir)); cold.Attempt != 1 {
		t.Fatalf("cold job ran %d attempts, want 1", cold.Attempt)
	}
	warm, warmRaw := result(openStore(dir))
	if warm.Attempt != 0 {
		t.Fatalf("warm job ran %d attempts, want 0 (answered from the store)", warm.Attempt)
	}
	forced, forcedRaw := result(openStore(t.TempDir()))
	if forced.Attempt != 1 {
		t.Fatalf("forced job ran %d attempts, want 1", forced.Attempt)
	}
	if forced.ResultHash != warm.ResultHash {
		t.Errorf("forced run hash %s, warm %s", forced.ResultHash, warm.ResultHash)
	}
	if !bytes.Equal(warmRaw, forcedRaw) {
		t.Errorf("warm answer differs from a forced run (%d vs %d bytes)", len(warmRaw), len(forcedRaw))
	}
}

// TestHotResultSurvivesAgeSweep is the read-path/sweeper regression test
// at the server level: a result read through GET /v1/results/{hash} must
// refresh its run-store entry, so a hot result is not deleted by an age
// sweep while it is being served. The clock is fake but anchored at the
// real time so the store's real file mtimes and the fake ages agree.
func TestHotResultSurvivesAgeSweep(t *testing.T) {
	clk := faultinject.NewFakeClock(time.Now())
	store, err := runstore.Open(t.TempDir(), runstore.WithMaxAge(time.Hour), runstore.WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := tinyServer(t, Config{
		Store: store,
		execute: func(ctx context.Context, j *job) (any, error) {
			return map[string]string{"job": j.id}, nil
		},
	})
	st := postJob(t, ts, `{"preset":"tiny","policies":["PT"]}`)
	awaitState(t, ts, st.ID, StateDone)
	read := func() {
		t.Helper()
		if code, _, body := getRaw(t, ts.URL+"/v1/results/"+st.ResultHash, nil); code != http.StatusOK {
			t.Fatalf("GET result: status %d: %s", code, body)
		}
	}

	read()
	clk.Advance(35 * time.Minute) // past the store's touch window (max-age/8)
	read()
	clk.Advance(30 * time.Minute) // 65 minutes since the write, 30 since the read
	if _, err := store.Sweep(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(store.Dir(), st.ResultHash[:2], st.ResultHash+".json")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("a result read 30 minutes before the sweep was swept: %v", err)
	}
	read()
}

// TestEvictedResultAnswersGone follows a done job whose result the run
// store no longer holds: its result endpoint answers 410 pointing at the
// lookup, the lookup recomputes the result from the stored runs alone,
// and the job's result endpoint then serves the original bytes again.
func TestEvictedResultAnswersGone(t *testing.T) {
	clk := faultinject.NewFakeClock(time.Now())
	// A one-entry memory front: an entry outlives the next Get only on disk.
	store, err := runstore.Open(t.TempDir(), runstore.WithMaxAge(time.Hour),
		runstore.WithClock(clk), runstore.WithMemoryEntries(1))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := tinyServer(t, Config{Store: store})
	const body = `{"kind":"comparison","preset":"tiny","policies":["PT"]}`
	st := postJob(t, ts, body)
	awaitState(t, ts, st.ID, StateDone)
	resultFile := filepath.Join(store.Dir(), st.ResultHash[:2], st.ResultHash+".json")
	first, err := os.ReadFile(resultFile)
	if err != nil {
		t.Fatalf("done job's result is not in the run store: %v", err)
	}

	// 35 minutes in, other jobs read every stored run, but nobody reads
	// the result.
	clk.Advance(35 * time.Minute)
	var runs int
	err = filepath.WalkDir(store.Dir(), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" || path == resultFile {
			return err
		}
		if _, ok := store.Get(strings.TrimSuffix(d.Name(), ".json")); !ok {
			t.Errorf("stored run %s unreadable", d.Name())
		}
		runs++
		return nil
	})
	if err != nil || runs == 0 {
		t.Fatalf("walked %d stored runs: %v", runs, err)
	}
	clk.Advance(30 * time.Minute)
	if n, err := store.Sweep(); err != nil || n != 1 {
		t.Fatalf("Sweep evicted %d entries (%v), want 1: the result", n, err)
	}

	code, _, gone := getRaw(t, ts.URL+"/v1/jobs/"+st.ID+"/result", nil)
	if code != http.StatusGone || !strings.Contains(string(gone), "/v1/results/lookup") {
		t.Fatalf("result of an evicted job: status %d: %s; want 410 pointing at the lookup", code, gone)
	}

	computes := store.Stats().Computes
	code, _, again := postLookup(t, ts, "?wait=60s", body)
	if code != http.StatusOK || !bytes.Equal(again, first) {
		t.Fatalf("lookup: status %d, %d bytes; want 200 and the first run's %d bytes", code, len(again), len(first))
	}
	if n := store.Stats().Computes - computes; n != 0 {
		t.Errorf("the recompute simulated %d runs, want 0 (every run a store hit)", n)
	}
	code, _, after := getRaw(t, ts.URL+"/v1/jobs/"+st.ID+"/result", nil)
	if code != http.StatusOK || !bytes.Equal(after, first) {
		t.Fatalf("result after the recompute: status %d, %d bytes; want 200 and the first run's %d bytes", code, len(after), len(first))
	}
}
