package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cmm/internal/faultinject"
	"cmm/internal/jobstore"
	"cmm/internal/runstore"
	"cmm/internal/telemetry"
)

// chaosWorker builds one cluster member: its own runstore and jobstore
// handles on shared directories, a single-job worker pool, a fast
// scanner, and an injected execute stub (installed before New so the
// scanner can never race the real engine into running).
func chaosWorker(t *testing.T, storeDir, jobsDir, id string, ttl time.Duration,
	exec func(ctx context.Context, j *job) (any, error)) (*Server, *httptest.Server, *telemetry.Counters) {
	t.Helper()
	store, err := runstore.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	js, err := jobstore.Open(jobsDir,
		jobstore.WithWorker(id),
		jobstore.WithTTL(ttl),
		jobstore.WithBackoff(2*time.Millisecond, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	counters := &telemetry.Counters{}
	s, ts := tinyServer(t, Config{
		Store:        store,
		Jobs:         js,
		Workers:      1,
		QueueDepth:   8,
		Counters:     counters,
		MaxAttempts:  3,
		ScanInterval: 20 * time.Millisecond,
		execute:      exec,
	})
	return s, ts, counters
}

// crash simulates a SIGKILL: heartbeats stop, the scanner dies, and no
// durable state is ever written again by this server.
func (s *Server) crash() { s.dead.Store(true) }

// TestChaosKilledWorkerJobFinishesElsewhere is the headline fault drill:
// worker A is SIGKILLed mid-job, and the job must still reach done —
// exactly once — on worker B, which reaps A's expired lease.
func TestChaosKilledWorkerJobFinishesElsewhere(t *testing.T) {
	storeDir, jobsDir := t.TempDir(), t.TempDir()
	const ttl = 250 * time.Millisecond

	killA := make(chan struct{})
	aStarted := make(chan string, 4)
	a, tsA, _ := chaosWorker(t, storeDir, jobsDir, "w-a", ttl,
		func(ctx context.Context, j *job) (any, error) {
			aStarted <- j.id
			select {
			case <-killA:
				return nil, errors.New("worker killed")
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		})

	st := postJob(t, tsA, `{"preset":"tiny"}`)
	select {
	case <-aStarted:
	case <-time.After(10 * time.Second):
		t.Fatal("worker A never started the job")
	}
	// SIGKILL worker A: the dead flag first, so when the stub unblocks the
	// run loop sees a dead process and writes nothing durable.
	a.crash()
	close(killA)

	// Worker B joins the cluster afterwards and discovers everything from
	// the shared directories alone.
	var bCompleted atomic.Int64
	_, tsB, countersB := chaosWorker(t, storeDir, jobsDir, "w-b", ttl,
		func(ctx context.Context, j *job) (any, error) {
			bCompleted.Add(1)
			return map[string]string{"finished_by": "w-b"}, nil
		})

	got := awaitState(t, tsB, st.ID, StateDone)
	if got.Attempt != 2 {
		t.Errorf("job finished on attempt %d, want 2 (A burned attempt 1)", got.Attempt)
	}
	if got.Worker != "w-b" {
		t.Errorf("finishing worker = %q, want w-b", got.Worker)
	}
	if n := bCompleted.Load(); n != 1 {
		t.Errorf("B completed the job %d times, want exactly 1", n)
	}
	if n := countersB.Snapshot()["jobs_requeued_total"]; n != 1 {
		t.Errorf("jobs_requeued_total on B = %d, want 1", n)
	}

	resp, err := http.Get(tsB.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "w-b") {
		t.Errorf("result = %d %q, want 200 with B's payload", resp.StatusCode, body)
	}

	// Exactly once: several scan intervals later nothing has re-run.
	time.Sleep(150 * time.Millisecond)
	if n := bCompleted.Load(); n != 1 {
		t.Errorf("done job re-executed: B completions = %d", n)
	}
}

// TestChaosLeaseRenewalKeepsPeersAway pins the other half of the lease
// protocol: a live, heartbeating worker holds its job for several TTLs
// and no peer steals it — the job runs exactly once in the cluster.
func TestChaosLeaseRenewalKeepsPeersAway(t *testing.T) {
	storeDir, jobsDir := t.TempDir(), t.TempDir()
	const ttl = 150 * time.Millisecond

	release := make(chan struct{})
	var started, completed atomic.Int64
	exec := func(ctx context.Context, j *job) (any, error) {
		started.Add(1)
		select {
		case <-release:
			completed.Add(1)
			return map[string]bool{"ok": true}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	_, tsA, _ := chaosWorker(t, storeDir, jobsDir, "w-a", ttl, exec)
	_, tsB, _ := chaosWorker(t, storeDir, jobsDir, "w-b", ttl, exec)

	st := postJob(t, tsA, `{"preset":"tiny"}`)

	// Hold the job across several lease lifetimes; the heartbeat must keep
	// the second worker out the whole time.
	time.Sleep(4 * ttl)
	if n := started.Load(); n != 1 {
		t.Fatalf("job started on %d workers while the lease was live, want 1", n)
	}
	close(release)

	awaitState(t, tsB, st.ID, StateDone)
	if n := completed.Load(); n != 1 {
		t.Errorf("job completed %d times, want exactly 1", n)
	}
	if n := started.Load(); n != 1 {
		t.Errorf("job started %d times, want exactly 1", n)
	}
}

// TestChaosPoisonJobQuarantined drives a job that fails every attempt to
// the terminal failed state: MaxAttempts executions, full error history,
// and never claimable or retried again.
func TestChaosPoisonJobQuarantined(t *testing.T) {
	storeDir, jobsDir := t.TempDir(), t.TempDir()
	var executions atomic.Int64
	s, ts, counters := chaosWorker(t, storeDir, jobsDir, "w-a", 250*time.Millisecond,
		func(ctx context.Context, j *job) (any, error) {
			n := executions.Add(1)
			return nil, fmt.Errorf("synthetic poison failure #%d", n)
		})

	st := postJob(t, ts, `{"preset":"tiny"}`)
	got := awaitState(t, ts, st.ID, StateFailed)

	if n := executions.Load(); n != 3 {
		t.Errorf("poison job executed %d times, want MaxAttempts (3)", n)
	}
	if got.Attempt != 3 || len(got.Attempts) != 3 {
		t.Errorf("status attempt=%d with %d attempt errors, want 3 and 3: %+v",
			got.Attempt, len(got.Attempts), got.Attempts)
	}
	for i, msg := range got.Attempts {
		if !strings.Contains(msg, "synthetic poison failure") {
			t.Errorf("attempt error %d = %q, want the synthetic failure", i, msg)
		}
	}
	snap := counters.Snapshot()
	if snap["jobs_retried_total"] != 2 || snap["jobs_quarantined_total"] != 1 {
		t.Errorf("counters retried=%d quarantined=%d, want 2 and 1",
			snap["jobs_retried_total"], snap["jobs_quarantined_total"])
	}

	// Quarantine is terminal: the record refuses new claims and several
	// scan intervals change nothing.
	if _, err := s.cfg.Jobs.Claim(st.ID); !errors.Is(err, jobstore.ErrNotClaimable) {
		t.Errorf("Claim on quarantined job = %v, want ErrNotClaimable", err)
	}
	time.Sleep(150 * time.Millisecond)
	if n := executions.Load(); n != 3 {
		t.Errorf("quarantined job was retried: %d executions", n)
	}
	rec, err := s.cfg.Jobs.Get(st.ID)
	if err != nil || rec.State != jobstore.StateFailed {
		t.Errorf("durable record = (%+v, %v), want failed", rec, err)
	}
}

// TestChaosStoreFaultDegradesToCompute pins graceful degradation: with
// every disk write failing, the circuit breaker opens and jobs still
// complete (uncached), with the breaker visible on /metrics.
func TestChaosStoreFaultDegradesToCompute(t *testing.T) {
	ffs := faultinject.Wrap(faultinject.OS{}).
		Inject(faultinject.Fault{Op: faultinject.OpWrite, EveryN: 1, Err: errors.New("injected: disk full")})
	store, err := runstore.Open(t.TempDir(), runstore.WithFS(ffs), runstore.WithBreaker(2, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	s, ts := tinyServer(t, Config{
		Store:   store,
		Workers: 1,
		execute: nil, // set below; the empty jobstore gives the scanner nothing to race
	})
	s.execute = func(ctx context.Context, j *job) (any, error) {
		for i := range 3 {
			key, err := runstore.Hash(map[string]any{"job": j.id, "i": i})
			if err != nil {
				return nil, err
			}
			v, _, err := store.GetOrCompute(key, func() ([]byte, error) {
				return []byte(`{"computed":true}`), nil
			})
			if err != nil {
				return nil, fmt.Errorf("store degraded wrong: %w", err)
			}
			if string(v) != `{"computed":true}` {
				return nil, fmt.Errorf("bad value %q", v)
			}
		}
		return map[string]bool{"ok": true}, nil
	}

	st := postJob(t, ts, `{"preset":"tiny"}`)
	awaitState(t, ts, st.ID, StateDone)

	if !store.Stats().BreakerOpen {
		t.Error("breaker not open after persistent write failures")
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"cmm_store_breaker_open 1", "cmm_store_breaker_trips_total 1"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestChaosDurableMetricsExposeLeases checks the lease gauges while a
// durable job is running.
func TestChaosDurableMetricsExposeLeases(t *testing.T) {
	storeDir, jobsDir := t.TempDir(), t.TempDir()
	release := make(chan struct{})
	running := make(chan struct{}, 1)
	_, ts, _ := chaosWorker(t, storeDir, jobsDir, "w-a", time.Second,
		func(ctx context.Context, j *job) (any, error) {
			running <- struct{}{}
			select {
			case <-release:
				return map[string]bool{"ok": true}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		})
	defer close(release)

	postJob(t, ts, `{"preset":"tiny"}`)
	<-running
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "cmm_leases_active 1") {
		t.Errorf("metrics missing cmm_leases_active 1:\n%s", body)
	}
	if !strings.Contains(string(body), "cmm_lease_age_seconds_max ") {
		t.Errorf("metrics missing cmm_lease_age_seconds_max:\n%s", body)
	}
}

// TestRetryBackoffReachesDone pins the retry path: failures are retried
// after the jobstore's backoff and the job still reaches done, with the
// attempt history reported.
func TestRetryBackoffReachesDone(t *testing.T) {
	var executions atomic.Int64
	counters := &telemetry.Counters{}
	_, ts := tinyServer(t, Config{
		Workers:     1,
		Counters:    counters,
		MaxAttempts: 3,
		execute: func(ctx context.Context, j *job) (any, error) {
			if n := executions.Add(1); n < 3 {
				return nil, fmt.Errorf("transient failure #%d", n)
			}
			return map[string]bool{"ok": true}, nil
		},
	})

	st := postJob(t, ts, `{"preset":"tiny"}`)
	got := awaitState(t, ts, st.ID, StateDone)
	if got.Attempt != 3 || len(got.Attempts) != 2 {
		t.Errorf("attempt=%d history=%v, want success on attempt 3 with 2 recorded failures",
			got.Attempt, got.Attempts)
	}
	if n := counters.Snapshot()["jobs_retried_total"]; n != 2 {
		t.Errorf("jobs_retried_total = %d, want 2", n)
	}
}

// TestAttemptTimeoutRetriesJob pins Config.AttemptTimeout: an attempt
// that outlives it is a failed attempt, retried after the backoff, not a
// job cancellation.
func TestAttemptTimeoutRetriesJob(t *testing.T) {
	var executions atomic.Int64
	counters := &telemetry.Counters{}
	_, ts := tinyServer(t, Config{
		Workers:        1,
		Counters:       counters,
		MaxAttempts:    3,
		AttemptTimeout: 50 * time.Millisecond,
		execute: func(ctx context.Context, j *job) (any, error) {
			if executions.Add(1) == 1 {
				<-ctx.Done() // blocks past the attempt timeout
				return nil, ctx.Err()
			}
			return map[string]bool{"ok": true}, nil
		},
	})

	st := postJob(t, ts, `{"preset":"tiny"}`)
	got := awaitState(t, ts, st.ID, StateDone)
	if got.Attempt != 2 || len(got.Attempts) != 1 || !strings.Contains(got.Attempts[0], "deadline exceeded") {
		t.Errorf("attempt=%d history=%v, want done on attempt 2 after one deadline error", got.Attempt, got.Attempts)
	}
	if n := counters.Snapshot()["jobs_retried_total"]; n != 1 {
		t.Errorf("jobs_retried_total = %d, want 1", n)
	}
}

// TestJobTimeoutCancelsWithoutRetry pins timeout_seconds: a job that
// outlives it ends canceled on its first attempt and is not retried.
func TestJobTimeoutCancelsWithoutRetry(t *testing.T) {
	var executions atomic.Int64
	counters := &telemetry.Counters{}
	_, ts := tinyServer(t, Config{
		Workers:     1,
		Counters:    counters,
		MaxAttempts: 3,
		execute: func(ctx context.Context, j *job) (any, error) {
			executions.Add(1)
			<-ctx.Done() // blocks past the job timeout
			return nil, ctx.Err()
		},
	})

	st := postJob(t, ts, `{"preset":"tiny","timeout_seconds":1}`)
	got := awaitState(t, ts, st.ID, StateCanceled)
	if got.Attempt != 1 || !strings.Contains(got.Error, "deadline exceeded") {
		t.Errorf("attempt=%d error=%q, want canceled on attempt 1 by the deadline", got.Attempt, got.Error)
	}
	time.Sleep(100 * time.Millisecond) // several scan intervals
	if n := executions.Load(); n != 1 {
		t.Errorf("timed-out job executed %d times, want 1", n)
	}
	if n := counters.Snapshot()["jobs_retried_total"]; n != 0 {
		t.Errorf("jobs_retried_total = %d, want 0", n)
	}
}

// TestUnrenderableResultFailsAttempt pins that a result the canonical
// encoder rejects is a failed attempt, not a done job without bytes.
func TestUnrenderableResultFailsAttempt(t *testing.T) {
	var executions atomic.Int64
	_, ts := tinyServer(t, Config{
		Workers:     1,
		MaxAttempts: 2,
		execute: func(ctx context.Context, j *job) (any, error) {
			executions.Add(1)
			return map[string]any{"ch": make(chan int)}, nil
		},
	})
	st := postJob(t, ts, `{"preset":"tiny"}`)
	got := awaitState(t, ts, st.ID, StateFailed)
	if n := executions.Load(); n != 2 {
		t.Errorf("executed %d times, want MaxAttempts (2)", n)
	}
	if !strings.Contains(got.Error, "render result") {
		t.Errorf("failed job error = %q, want the render failure", got.Error)
	}
}

// TestHealthzDraining pins the /healthz drain distinction for load
// balancers.
func TestHealthzDraining(t *testing.T) {
	s, ts := tinyServer(t, Config{Workers: 1})
	get := func() (int, string) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, strings.TrimSpace(string(body))
	}
	if code, body := get(); code != http.StatusOK || body != "ok" {
		t.Errorf("healthy healthz = %d %q, want 200 ok", code, body)
	}
	s.BeginDrain()
	if code, body := get(); code != http.StatusServiceUnavailable || body != "draining" {
		t.Errorf("draining healthz = %d %q, want 503 draining", code, body)
	}
}

// TestRetryAfterOn503 pins the Retry-After hint on both rejection paths:
// full queue and draining server.
func TestRetryAfterOn503(t *testing.T) {
	s, ts, release, started := blockingServer(t, Config{Workers: 1, QueueDepth: 1})
	defer close(release)
	postJob(t, ts, `{"preset":"tiny"}`)
	<-started
	postJob(t, ts, `{"preset":"tiny"}`) // fills the queue

	submit := func() *http.Response {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"preset":"tiny"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	resp := submit()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("queue-full rejection = %d Retry-After=%q, want 503 with a hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	s.BeginDrain()
	resp = submit()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("draining rejection = %d Retry-After=%q, want 503 with a hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestCancelQueuedFreesSlotImmediately pins the DELETE satellite: a
// cancelled queued job leaves the priority heap at once, freeing its
// queue slot for the next submission.
func TestCancelQueuedFreesSlotImmediately(t *testing.T) {
	s, ts, release, started := blockingServer(t, Config{Workers: 1, QueueDepth: 1})
	defer close(release)
	postJob(t, ts, `{"preset":"tiny"}`)
	<-started
	queued := postJob(t, ts, `{"preset":"tiny"}`)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st jobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.State != StateCanceled {
		t.Fatalf("cancelled queued job state = %q, want canceled", st.State)
	}
	if d := s.queue.depth(); d != 0 {
		t.Errorf("queue depth after cancel = %d, want 0 (removed immediately)", d)
	}
	// The freed slot admits a new job without a 503.
	postJob(t, ts, `{"preset":"tiny"}`)
}

// TestChaosCrossNodeCancel is the cancel half of the fault drills: the
// job runs on worker A, the client's DELETE lands on worker B, and the
// durable cancel flag must travel through the store — B cannot touch A's
// lease — so A's next heartbeat aborts the run and writes the terminal
// canceled state. Before the flag existed, a cross-node DELETE was
// silently ignored and the job ran to completion.
func TestChaosCrossNodeCancel(t *testing.T) {
	storeDir, jobsDir := t.TempDir(), t.TempDir()
	const ttl = 250 * time.Millisecond

	aStarted := make(chan struct{}, 1)
	_, tsA, _ := chaosWorker(t, storeDir, jobsDir, "w-a", ttl,
		func(ctx context.Context, j *job) (any, error) {
			aStarted <- struct{}{}
			<-ctx.Done() // run "forever"; only a cancel can end this job
			return nil, ctx.Err()
		})
	var bExecuted atomic.Int64
	sB, tsB, _ := chaosWorker(t, storeDir, jobsDir, "w-b", ttl,
		func(ctx context.Context, j *job) (any, error) {
			bExecuted.Add(1)
			return map[string]bool{"ok": true}, nil
		})

	st := postJob(t, tsA, `{"preset":"tiny"}`)
	select {
	case <-aStarted:
	case <-time.After(10 * time.Second):
		t.Fatal("worker A never started the job")
	}

	// The client cancels through worker B, which does not hold the lease.
	req, _ := http.NewRequest(http.MethodDelete, tsB.URL+"/v1/jobs/"+st.ID, nil)
	canceledAt := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// A's next heartbeat (every TTL/3) observes the flag, aborts the
	// attempt, and writes canceled under its own lease.
	got := awaitState(t, tsA, st.ID, StateCanceled)
	if elapsed := time.Since(canceledAt); elapsed > ttl {
		t.Errorf("cross-node cancel took %v, want within one TTL (%v)", elapsed, ttl)
	}
	if !strings.Contains(got.Error, "cancelled by client") {
		t.Errorf("canceled status error = %q, want the client's reason", got.Error)
	}
	if got.Worker != "w-a" {
		t.Errorf("terminal state written by %q, want the leaseholder w-a", got.Worker)
	}

	// B answers the same terminal state from the record.
	bGot := awaitState(t, tsB, st.ID, StateCanceled)
	if !strings.Contains(bGot.Error, "cancelled by client") {
		t.Errorf("peer status error = %q", bGot.Error)
	}

	// Durably canceled, lease released, flag consumed, never claimable.
	rec, err := sB.cfg.Jobs.Get(st.ID)
	if err != nil || rec.State != jobstore.StateCanceled {
		t.Fatalf("durable record = (%+v, %v), want canceled", rec, err)
	}
	if leases, _ := sB.cfg.Jobs.Leases(); len(leases) != 0 {
		t.Errorf("leases after cancel: %v", leases)
	}
	if _, ok := sB.cfg.Jobs.CancelRequested(st.ID); ok {
		t.Error("cancel flag survives the terminal state")
	}
	if _, err := sB.cfg.Jobs.Claim(st.ID); !errors.Is(err, jobstore.ErrNotClaimable) {
		t.Errorf("claim of canceled job = %v, want ErrNotClaimable", err)
	}

	// The job never migrates: several scan intervals later B still has
	// not executed it.
	time.Sleep(150 * time.Millisecond)
	if n := bExecuted.Load(); n != 0 {
		t.Errorf("canceled job executed on worker B %d times", n)
	}
}

// TestStaleScanAfterCompletionKeepsResult replays the scanner race
// deterministically: a pass lists the durable records while job B is
// still queued behind job A, both jobs then finish, and only then does
// the pass apply its listing. B must stay done and keep serving the same
// result bytes, not fall back to queued and answer 409.
func TestStaleScanAfterCompletionKeepsResult(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 4)
	exec := func(ctx context.Context, j *job) (any, error) {
		started <- j.id
		select {
		case <-release:
			return map[string]string{"ok": j.id}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s, ts, _ := chaosWorker(t, t.TempDir(), t.TempDir(), "w", time.Minute, exec)
	s.stopScanner() // this test drives the passes itself

	a := postJob(t, ts, `{"preset":"tiny","policies":["PT"],"seeds":[1]}`)
	<-started
	b := postJob(t, ts, `{"preset":"tiny","policies":["PT"],"seeds":[2]}`)

	// The first half of a scanner pass: list. B is queued.
	recs, err := s.cfg.Jobs.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.ID == b.ID && rec.State != jobstore.StateQueued {
			t.Fatalf("listed B as %q, want queued", rec.State)
		}
	}

	close(release)
	awaitState(t, ts, a.ID, StateDone)
	awaitState(t, ts, b.ID, StateDone)
	result := func() (int, []byte) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + b.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	code, before := result()
	if code != http.StatusOK {
		t.Fatalf("result before the stale pass: status %d: %s", code, before)
	}

	// The second half, applied after both jobs finished.
	s.scanRecords(recs)

	code, after := result()
	if code != http.StatusOK || string(after) != string(before) {
		t.Fatalf("result after the stale pass: status %d, body %q; want 200 and %q", code, after, before)
	}
	if st := getStatus(t, ts, b.ID); st.State != StateDone {
		t.Fatalf("status after the stale pass = %q, want done", st.State)
	}
}
