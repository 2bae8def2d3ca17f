package jobstore

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"cmm/internal/faultinject"
)

var t0 = time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)

// twoWorkers opens two store handles (distinct worker ids) on one shared
// directory and one shared fake clock — the in-process model of two
// server processes sharing a -store dir.
func twoWorkers(t *testing.T) (a, b *Store, clock *faultinject.FakeClock) {
	t.Helper()
	dir := t.TempDir()
	clock = faultinject.NewFakeClock(t0)
	open := func(worker string) *Store {
		s, err := Open(dir, WithWorker(worker), WithTTL(10*time.Second), WithClock(clock))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return open("w-a"), open("w-b"), clock
}

func TestLeaseEnqueueClaimCompleteRoundtrip(t *testing.T) {
	a, b, _ := twoWorkers(t)
	rec, err := a.Enqueue("job-1", []byte(`{"kind":"comparison"}`), 3, "hash-1")
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateQueued || rec.MaxAttempts != 3 || rec.ResultHash != "hash-1" {
		t.Fatalf("enqueued record %+v", rec)
	}

	l, err := a.Claim("job-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.MarkRunning(l, rec); err != nil {
		t.Fatal(err)
	}
	if rec.Attempt != 1 || rec.State != StateRunning {
		t.Fatalf("running record %+v", rec)
	}

	// The other worker sees it held.
	if _, err := b.Claim("job-1"); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("concurrent claim = %v, want ErrLeaseHeld", err)
	}

	if err := a.Complete(l, rec); err != nil {
		t.Fatal(err)
	}
	got, err := b.Get("job-1")
	if err != nil || got.State != StateDone || got.Worker != "w-a" || got.Attempt != 1 || got.ResultHash != "hash-1" {
		t.Fatalf("after complete: %+v, %v; want done by w-a on attempt 1 under hash-1", got, err)
	}
	// Terminal records are not claimable.
	if _, err := b.Claim("job-1"); !errors.Is(err, ErrNotClaimable) {
		t.Fatalf("claim of done job = %v, want ErrNotClaimable", err)
	}
	// The lease is gone.
	if leases, _ := b.Leases(); len(leases) != 0 {
		t.Fatalf("leases after complete: %v", leases)
	}
}

func TestLeaseExpiryTakeover(t *testing.T) {
	a, b, clock := twoWorkers(t)
	rec, _ := a.Enqueue("job-1", []byte(`{}`), 3)
	l, err := a.Claim("job-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.MarkRunning(l, rec); err != nil {
		t.Fatal(err)
	}

	// Heartbeats keep it alive past the raw TTL.
	clock.Advance(8 * time.Second)
	if err := l.Renew(); err != nil {
		t.Fatal(err)
	}
	clock.Advance(8 * time.Second) // 16s since claim, 8s since renew: alive
	brec, _ := b.Get("job-1")
	if reaped, _ := b.ReapExpired(brec); reaped {
		t.Fatal("reaped a lease kept alive by heartbeats")
	}

	// Now the owner "dies": no more renewals.
	clock.Advance(11 * time.Second)
	brec, _ = b.Get("job-1")
	reaped, err := b.ReapExpired(brec)
	if err != nil || !reaped {
		t.Fatalf("reap of expired lease = %v, %v, want true", reaped, err)
	}
	if brec.State != StateQueued || brec.Attempt != 1 {
		t.Fatalf("reaped record %+v, want queued with attempt intact", brec)
	}

	// The dead worker's fencing: its stale lease handle must not be able
	// to write results or renew.
	if err := l.Renew(); !errors.Is(err, ErrLeaseLost) {
		t.Errorf("dead worker renew = %v, want ErrLeaseLost", err)
	}
	lb, err := b.Claim("job-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.MarkRunning(lb, brec); err != nil {
		t.Fatal(err)
	}
	if err := a.Complete(l, brec); !errors.Is(err, ErrLeaseLost) {
		t.Errorf("dead worker complete = %v, want ErrLeaseLost", err)
	}
	if got, _ := b.Get("job-1"); got.State != StateRunning || got.Worker != "w-b" {
		t.Errorf("after the stale complete: state %q by %q, want running by w-b", got.State, got.Worker)
	}
	if brec.Attempt != 2 {
		t.Errorf("takeover attempt = %d, want 2", brec.Attempt)
	}
	if err := b.Complete(lb, brec); err != nil {
		t.Fatal(err)
	}
	if got, _ := b.Get("job-1"); got.State != StateDone || got.Worker != "w-b" || got.Attempt != 2 {
		t.Errorf("done record %+v, want the live worker's (w-b, attempt 2)", got)
	}
}

// TestLeaseReapRaceOneWinner races many reapers at one expired lease:
// the marker-guarded takeover must admit exactly one.
func TestLeaseReapRaceOneWinner(t *testing.T) {
	dir := t.TempDir()
	clock := faultinject.NewFakeClock(t0)
	owner, err := Open(dir, WithWorker("owner"), WithTTL(time.Second), WithClock(clock))
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := owner.Enqueue("job-1", []byte(`{}`), 10)
	l, err := owner.Claim("job-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.MarkRunning(l, rec); err != nil {
		t.Fatal(err)
	}
	clock.Advance(5 * time.Second) // lease long dead

	const reapers = 12
	var wg sync.WaitGroup
	wins := make(chan string, reapers)
	for i := range reapers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := Open(dir, WithWorker(string(rune('A'+i))), WithTTL(time.Second), WithClock(clock))
			if err != nil {
				t.Error(err)
				return
			}
			r, err := w.Get("job-1")
			if err != nil {
				t.Error(err)
				return
			}
			if reaped, _ := w.ReapExpired(r); reaped {
				wins <- w.Worker()
			}
		}()
	}
	wg.Wait()
	close(wins)
	var winners []string
	for w := range wins {
		winners = append(winners, w)
	}
	if len(winners) != 1 {
		t.Fatalf("%d reapers won the takeover (%v), want exactly 1", len(winners), winners)
	}
	got, _ := owner.Get("job-1")
	if got.State != StateQueued {
		t.Fatalf("post-reap state %q, want queued", got.State)
	}
}

// TestLeaseReapMarkerExcludesAndExpires pins the takeover lock: while
// the expired grant's reap marker exists no other reaper may replace the
// lease, and List removes a marker older than the TTL (its reaper died
// mid-takeover), after which the job can be reaped.
func TestLeaseReapMarkerExcludesAndExpires(t *testing.T) {
	a, b, clock := twoWorkers(t)
	rec, _ := a.Enqueue("job-1", []byte(`{}`), 3)
	l, err := a.Claim("job-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.MarkRunning(l, rec); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Minute) // owner dies
	var osfs faultinject.OS

	grant, ok := b.expiredGrant("job-1", clock.Now())
	if !ok || grant != l.grant {
		t.Fatalf("expired grant %q, %v; want the owner's %q", grant, ok, l.grant)
	}
	made, _ := json.Marshal(clock.Now())
	marker := b.reapPath("job-1", grant)
	if err := osfs.CreateExclusive(marker, made, 0o644); err != nil {
		t.Fatal(err)
	}
	brec, _ := b.Get("job-1")
	if reaped, err := b.ReapExpired(brec); err != nil || reaped {
		t.Fatalf("reap past another reaper's marker = %v, %v; want not reaped", reaped, err)
	}
	if _, err := b.List(); err != nil {
		t.Fatal(err)
	}
	if _, err := osfs.ReadFile(marker); err != nil {
		t.Fatalf("List removed a marker younger than the TTL: %v", err)
	}

	clock.Advance(11 * time.Second) // past the 10s TTL
	if _, err := b.List(); err != nil {
		t.Fatal(err)
	}
	if _, err := osfs.ReadFile(marker); err == nil {
		t.Fatal("List kept a marker older than the TTL")
	}
	if reaped, err := b.ReapExpired(brec); err != nil || !reaped {
		t.Fatalf("reap after the stale marker went = %v, %v", reaped, err)
	}
	if err := l.Renew(); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("dead owner's renew after the takeover = %v, want ErrLeaseLost", err)
	}
	ents, _ := osfs.ReadDir(b.Dir())
	for _, e := range ents {
		if strings.Contains(e.Name(), ".reap.") {
			t.Errorf("takeover left marker %s behind", e.Name())
		}
	}
}

// TestLeaseClaimRaceOneWinner races fresh claims at one queued job.
func TestLeaseClaimRaceOneWinner(t *testing.T) {
	dir := t.TempDir()
	seed, err := Open(dir, WithWorker("seed"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seed.Enqueue("job-1", []byte(`{}`), 3); err != nil {
		t.Fatal(err)
	}
	const claimants = 12
	var wg sync.WaitGroup
	var wonCount sync.Map
	wins := make(chan string, claimants)
	for i := range claimants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := Open(dir, WithWorker(string(rune('A'+i))))
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := w.Claim("job-1"); err == nil {
				wins <- w.Worker()
			} else if !errors.Is(err, ErrLeaseHeld) {
				t.Errorf("claim error %v, want nil or ErrLeaseHeld", err)
			}
		}()
	}
	wg.Wait()
	close(wins)
	n := 0
	for w := range wins {
		n++
		wonCount.Store(w, true)
	}
	if n != 1 {
		t.Fatalf("%d claimants won, want exactly 1", n)
	}
}

func TestLeaseFailRetriesThenQuarantines(t *testing.T) {
	a, _, clock := twoWorkers(t)
	base := 2 * time.Second
	s, err := Open(a.Dir(), WithWorker("w"), WithClock(clock), WithBackoff(base, 30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := s.Enqueue("job-1", []byte(`{}`), 3)

	for attempt := 1; attempt <= 3; attempt++ {
		// Retry gate: before NotBefore the job is not claimable.
		if attempt > 1 {
			if _, err := s.Claim("job-1"); !errors.Is(err, ErrNotClaimable) {
				t.Fatalf("attempt %d: claim before backoff = %v, want ErrNotClaimable", attempt, err)
			}
			clock.Advance(rec.NotBefore.Sub(clock.Now()) + time.Millisecond)
		}
		l, err := s.Claim("job-1")
		if err != nil {
			t.Fatalf("attempt %d claim: %v", attempt, err)
		}
		if err := s.MarkRunning(l, rec); err != nil {
			t.Fatal(err)
		}
		retried, err := s.Fail(l, rec, "simulated failure")
		if err != nil {
			t.Fatal(err)
		}
		if wantRetry := attempt < 3; retried != wantRetry {
			t.Fatalf("attempt %d: retried=%v, want %v", attempt, retried, wantRetry)
		}
	}

	// Quarantined: terminal failed, full history, never claimable again.
	got, _ := s.Get("job-1")
	if got.State != StateFailed || got.Attempt != 3 {
		t.Fatalf("quarantined record %+v", got)
	}
	if len(got.Errors) != 3 {
		t.Fatalf("error history has %d entries, want 3: %+v", len(got.Errors), got.Errors)
	}
	for i, e := range got.Errors {
		if e.Attempt != i+1 || e.Error != "simulated failure" {
			t.Errorf("history[%d] = %+v", i, e)
		}
	}
	clock.Advance(time.Hour)
	if _, err := s.Claim("job-1"); !errors.Is(err, ErrNotClaimable) {
		t.Errorf("claim of quarantined job = %v, want ErrNotClaimable", err)
	}
	r, _ := s.Get("job-1")
	if r.Attempt != 3 {
		t.Errorf("quarantined job attempt drifted to %d", r.Attempt)
	}
}

func TestLeaseBackoffBoundsAndGrowth(t *testing.T) {
	s, err := Open(t.TempDir(), WithBackoff(time.Second, 8*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	prevMax := time.Duration(0)
	for attempt := 1; attempt <= 6; attempt++ {
		ideal := time.Second << (attempt - 1)
		if ideal > 8*time.Second {
			ideal = 8 * time.Second
		}
		lo := time.Duration(float64(ideal) * 0.8)
		hi := time.Duration(float64(ideal) * 1.2)
		for range 50 {
			d := s.Backoff(attempt)
			if d < lo || d > hi {
				t.Fatalf("Backoff(%d) = %v, want in [%v, %v]", attempt, d, lo, hi)
			}
		}
		if ideal > prevMax {
			prevMax = ideal
		}
	}
}

func TestLeaseCancelQueuedSkippedByClaim(t *testing.T) {
	a, b, _ := twoWorkers(t)
	if _, err := a.Enqueue("job-1", []byte(`{}`), 3); err != nil {
		t.Fatal(err)
	}
	if err := b.Cancel("job-1", "cancelled by client"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Claim("job-1"); !errors.Is(err, ErrNotClaimable) {
		t.Fatalf("claim of canceled job = %v, want ErrNotClaimable", err)
	}
	got, _ := a.Get("job-1")
	if got.State != StateCanceled || got.LastError() != "cancelled by client" {
		t.Fatalf("canceled record %+v", got)
	}
}

func TestLeaseRunningNoLeaseReapedAsCrash(t *testing.T) {
	// A running record with no lease at all (owner crashed between claim
	// and heartbeat) must be recoverable.
	a, b, _ := twoWorkers(t)
	rec, _ := a.Enqueue("job-1", []byte(`{}`), 3)
	l, err := a.Claim("job-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.MarkRunning(l, rec); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash shape: lease file vanishes (e.g. tmpfs loss).
	faultinject.OS{}.Remove(a.leasePath("job-1"))

	brec, _ := b.Get("job-1")
	reaped, err := b.ReapExpired(brec)
	if err != nil || !reaped {
		t.Fatalf("reap of leaseless running job = %v, %v", reaped, err)
	}
	if brec.State != StateQueued {
		t.Fatalf("state %q after reap, want queued", brec.State)
	}
}

func TestLeaseReapAtAttemptLimitQuarantines(t *testing.T) {
	a, b, clock := twoWorkers(t)
	rec, _ := a.Enqueue("job-1", []byte(`{}`), 1) // single attempt allowed
	l, err := a.Claim("job-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.MarkRunning(l, rec); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Minute) // owner dies holding the only attempt

	brec, _ := b.Get("job-1")
	reaped, err := b.ReapExpired(brec)
	if err != nil || !reaped {
		t.Fatalf("reap = %v, %v", reaped, err)
	}
	if brec.State != StateFailed {
		t.Fatalf("state %q, want failed (attempt limit burned by the dead worker)", brec.State)
	}
	if len(brec.Errors) != 1 {
		t.Fatalf("history %+v", brec.Errors)
	}
}

func TestLeaseRecordSurvivesJSONRoundTrip(t *testing.T) {
	a, _, _ := twoWorkers(t)
	rec, err := a.Enqueue("job-1", []byte(`{"kind":"comparison","preset":"quick","seeds":[1,2]}`), 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Get("job-1")
	if err != nil {
		t.Fatal(err)
	}
	var req map[string]any
	if err := json.Unmarshal(got.Request, &req); err != nil {
		t.Fatalf("request payload corrupted: %v", err)
	}
	if req["preset"] != "quick" {
		t.Errorf("request round-trip lost fields: %v", req)
	}
	if !got.CreatedAt.Equal(rec.CreatedAt) {
		t.Errorf("CreatedAt %v != %v", got.CreatedAt, rec.CreatedAt)
	}
}

func TestLeaseListAndLeases(t *testing.T) {
	a, b, clock := twoWorkers(t)
	for _, id := range []string{"job-1", "job-2", "job-3"} {
		if _, err := a.Enqueue(id, []byte(`{}`), 3); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Millisecond) // distinct CreatedAt for ordering
	}
	recs, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].ID != "job-1" || recs[2].ID != "job-3" {
		t.Fatalf("List = %v", recs)
	}

	l, err := a.Claim("job-2")
	if err != nil {
		t.Fatal(err)
	}
	leases, err := b.Leases()
	if err != nil {
		t.Fatal(err)
	}
	if len(leases) != 1 || leases[0].JobID != "job-2" || leases[0].Worker != "w-a" {
		t.Fatalf("Leases = %+v", leases)
	}
	// Expired leases drop out of the listing.
	clock.Advance(time.Minute)
	if leases, _ := b.Leases(); len(leases) != 0 {
		t.Fatalf("expired lease still listed: %+v", leases)
	}
	_ = l
}

func TestLeaseDeleteRemovesEverything(t *testing.T) {
	a, _, _ := twoWorkers(t)
	rec, _ := a.Enqueue("job-1", []byte(`{}`), 3)
	l, _ := a.Claim("job-1")
	a.MarkRunning(l, rec)
	a.Complete(l, rec)
	a.Delete("job-1")
	if _, err := a.Get("job-1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after delete = %v, want ErrNotFound", err)
	}
}

// TestFaultInjectJobstoreWriteFailure: a store whose writes fail (ENOSPC
// shape) surfaces errors from Enqueue but keeps the directory readable.
func TestFaultInjectJobstoreWriteFailure(t *testing.T) {
	dir := t.TempDir()
	good, err := Open(dir, WithWorker("good"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := good.Enqueue("job-ok", []byte(`{}`), 3); err != nil {
		t.Fatal(err)
	}

	enospc := errors.New("no space left on device")
	ffs := faultinject.Wrap(nil).Inject(faultinject.Fault{Op: faultinject.OpWrite, Err: enospc})
	bad, err := Open(dir, WithWorker("bad"), WithFS(ffs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Enqueue("job-2", []byte(`{}`), 3); !errors.Is(err, enospc) {
		t.Fatalf("Enqueue on full disk = %v, want ENOSPC", err)
	}
	// Reads still serve, and no half-written record is visible.
	recs, err := bad.List()
	if err != nil || len(recs) != 1 || recs[0].ID != "job-ok" {
		t.Fatalf("List on degraded store = %v, %v", recs, err)
	}
}

// TestFaultInjectTornRecordSkippedByList: a torn record write (crash
// mid-write before the rename) is invisible — rename-commit means List
// never sees it; a torn rename target would be skipped as unparseable.
func TestFaultInjectTornRecordSkippedByList(t *testing.T) {
	dir := t.TempDir()
	ffs := faultinject.Wrap(nil).Inject(faultinject.Fault{
		Op: faultinject.OpWrite, Torn: true, Times: 1, Err: errors.New("crashed mid-write"),
	})
	s, err := Open(dir, WithFS(ffs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Enqueue("job-torn", []byte(`{"k":"v"}`), 3); err == nil {
		t.Fatal("torn enqueue reported success")
	}
	recs, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("torn record visible in List: %+v", recs)
	}
	// The slot is reusable once the disk behaves.
	if _, err := s.Enqueue("job-torn", []byte(`{"k":"v"}`), 3); err != nil {
		t.Fatal(err)
	}
}

// TestRequestCancelQueued pins the easy half of durable cancellation: a
// queued record flips straight to canceled from any worker, and the flag
// does not outlive the terminal state.
func TestRequestCancelQueued(t *testing.T) {
	a, b, _ := twoWorkers(t)
	if _, err := a.Enqueue("job-1", []byte(`{}`), 3); err != nil {
		t.Fatal(err)
	}
	if err := b.RequestCancel("job-1", "cancelled by client"); err != nil {
		t.Fatal(err)
	}
	rec, err := a.Get("job-1")
	if err != nil || rec.State != StateCanceled {
		t.Fatalf("after queued cancel: %+v, %v", rec, err)
	}
	if rec.LastError() != "cancelled by client" {
		t.Errorf("reason = %q", rec.LastError())
	}
	if _, ok := a.CancelRequested("job-1"); ok {
		t.Error("cancel flag survives the terminal transition")
	}
	if _, err := a.Claim("job-1"); !errors.Is(err, ErrNotClaimable) {
		t.Errorf("claim of canceled job = %v, want ErrNotClaimable", err)
	}
	// Terminal records ignore further requests.
	if err := b.RequestCancel("job-1", "again"); err != nil {
		t.Fatal(err)
	}
	rec, _ = a.Get("job-1")
	if len(rec.Errors) != 1 {
		t.Errorf("repeat cancel appended history: %+v", rec.Errors)
	}
}

// TestRequestCancelRunningObservedByLeaseholder pins the cross-node
// protocol: the flag from a non-owning worker persists until the
// leaseholder sees it on a heartbeat and writes canceled under its lease.
func TestRequestCancelRunningObservedByLeaseholder(t *testing.T) {
	a, b, _ := twoWorkers(t)
	rec, _ := a.Enqueue("job-1", []byte(`{}`), 3)
	l, err := a.Claim("job-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.MarkRunning(l, rec); err != nil {
		t.Fatal(err)
	}

	// The peer cannot touch the running record, only flag it.
	if err := b.RequestCancel("job-1", "cancelled by client"); err != nil {
		t.Fatal(err)
	}
	got, _ := a.Get("job-1")
	if got.State != StateRunning {
		t.Fatalf("peer cancel rewrote a running record: %+v", got)
	}
	reason, ok := a.CancelRequested("job-1")
	if !ok || reason != "cancelled by client" {
		t.Fatalf("CancelRequested = (%q, %v), want the client's reason", reason, ok)
	}

	// The leaseholder honors the flag.
	if err := a.CancelUnderLease(l, rec, reason); err != nil {
		t.Fatal(err)
	}
	got, _ = b.Get("job-1")
	if got.State != StateCanceled || got.LastError() != "cancelled by client" {
		t.Fatalf("after leaseholder cancel: %+v", got)
	}
	if _, ok := b.CancelRequested("job-1"); ok {
		t.Error("cancel flag survives CancelUnderLease")
	}
	if leases, _ := b.Leases(); len(leases) != 0 {
		t.Errorf("lease not released: %v", leases)
	}
}

// TestClaimRefusesCancelRequested covers the race where the flag lands
// while the record is queued but nobody has canceled it yet (e.g. the
// requesting worker crashed between flag and record write): the next
// claimant finishes the cancellation instead of running the job.
func TestClaimRefusesCancelRequested(t *testing.T) {
	a, b, _ := twoWorkers(t)
	if _, err := a.Enqueue("job-1", []byte(`{}`), 3); err != nil {
		t.Fatal(err)
	}
	// Plant the flag alone, simulating a crash after the flag write.
	payload, _ := json.Marshal(cancelFlag{Worker: "w-b", Reason: "cancelled by client"})
	if err := (faultinject.OS{}).WriteFile(b.cancelPath("job-1"), payload, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Claim("job-1"); !errors.Is(err, ErrNotClaimable) {
		t.Fatalf("claim of flagged job = %v, want ErrNotClaimable", err)
	}
	rec, _ := a.Get("job-1")
	if rec.State != StateCanceled {
		t.Fatalf("claimant did not finish the cancellation: %+v", rec)
	}
}

// TestReapExpiredHonorsCancelRequest: a dead owner's flagged job is
// canceled by the reaper, not requeued.
func TestReapExpiredHonorsCancelRequest(t *testing.T) {
	a, b, clock := twoWorkers(t)
	rec, _ := a.Enqueue("job-1", []byte(`{}`), 3)
	l, err := a.Claim("job-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.MarkRunning(l, rec); err != nil {
		t.Fatal(err)
	}
	if err := b.RequestCancel("job-1", "cancelled by client"); err != nil {
		t.Fatal(err)
	}
	clock.Advance(11 * time.Second) // the owner dies without a heartbeat
	brec, _ := b.Get("job-1")
	reaped, err := b.ReapExpired(brec)
	if err != nil || !reaped {
		t.Fatalf("reap = %v, %v", reaped, err)
	}
	if brec.State != StateCanceled || brec.LastError() != "cancelled by client" {
		t.Fatalf("reaped flagged record %+v, want canceled", brec)
	}
	if _, ok := b.CancelRequested("job-1"); ok {
		t.Error("cancel flag survives the reap")
	}
}
