// Package jobstore is the durable, lease-based job layer that turns N
// server processes sharing one store directory into a coordinator-free
// cluster. Every submitted job is persisted as a JSON record next to the
// content-addressed run store; any worker may claim a queued job by
// atomically creating its lease file, renews the lease while it runs
// (heartbeat), and writes the terminal state under that lease. A worker
// that dies mid-job simply stops renewing: once the lease deadline
// passes, any surviving worker reaps it — atomically, via a rename only
// one reaper can win — and requeues the job with its attempt count
// bumped. Delivery is therefore at-least-once; results are exactly-once
// because they are content-addressed (a re-execution recomputes
// bit-identical bytes or is served from the run store, which holds the
// only copy under the record's ResultHash) and the fenced done
// transition is written once, by the leaseholder.
//
// File layout under the store directory (extensions deliberately not
// .json so the run store's sweeps and disk gauges never touch them):
//
//	<id>.job    the job record: request, state, attempts, error history
//	<id>.lease  present while a worker owns the job (worker id, deadline)
//	<id>.cancel a durable cancel request: any worker may create it; the
//	            leaseholder observes it on its next heartbeat and aborts,
//	            and Claim refuses flagged queued records
//	<id>.reap.<grant>
//	            held while one reaper takes over the expired lease grant
//	            <grant>; removed when the takeover ends, or by List once
//	            older than the TTL (a reaper that died mid-takeover)
//
// A record is all the state a job has: servers answer every status and
// listing question from it, and find a done job's result in the run
// store under its ResultHash. Besides the request, state and
// attempt history it carries the result's content address (ResultHash,
// set at Enqueue), when the latest execution started (StartedAt, set by
// MarkRunning, or by the server for a job it finishes from a stored
// result without executing) and how far it got (Progress); a terminal
// record's UpdatedAt is when the job finished.
//
// Record updates are temp-file+rename so readers never observe a torn
// record; the lease claim is an exclusive create, and expired-lease
// takeover is won by the exclusive create of the expired grant's reap
// marker, so exactly one reaper replaces any one grant. Every lease write
// is fenced on the holder's grant. All I/O goes through the faultinject
// seam.
package jobstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	mrand "math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"cmm/internal/faultinject"
)

// Job states, shared with the HTTP server's wire format.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed" // terminal quarantine: MaxAttempts exhausted
	StateCanceled = "canceled"
)

// Errors the lease protocol reports.
var (
	// ErrNotFound means the job record does not exist.
	ErrNotFound = errors.New("jobstore: job not found")
	// ErrLeaseHeld means another worker holds a live lease on the job.
	ErrLeaseHeld = errors.New("jobstore: lease held by another worker")
	// ErrLeaseLost means this worker's lease was reaped (it expired and
	// another worker took the job over). The holder must stop working on
	// the job and must not write its record.
	ErrLeaseLost = errors.New("jobstore: lease lost")
	// ErrNotClaimable means the record is not in a claimable state
	// (terminal, canceled, or its retry backoff has not elapsed).
	ErrNotClaimable = errors.New("jobstore: job not claimable")
)

// AttemptError is one failed execution in a record's history.
type AttemptError struct {
	Attempt int       `json:"attempt"`
	Worker  string    `json:"worker"`
	Time    time.Time `json:"time"`
	Error   string    `json:"error"`
}

// Record is the durable form of one job.
type Record struct {
	ID      string          `json:"id"`
	Request json.RawMessage `json:"request"`
	State   string          `json:"state"`
	// Attempt counts executions started (claims that reached running)
	// and nothing else: a job finished from a result already in the run
	// store never executes and keeps 0.
	Attempt int `json:"attempt"`
	// MaxAttempts quarantines the job (State failed) once Attempt reaches
	// it without success.
	MaxAttempts int `json:"max_attempts"`
	// NotBefore gates retries: a queued record is not claimable until
	// this instant (zero = immediately).
	NotBefore time.Time `json:"not_before,omitempty"`
	// Worker is the last worker to run (or requeue) the job.
	Worker string `json:"worker,omitempty"`
	// Errors accumulates one entry per failed attempt — the quarantine
	// post-mortem.
	Errors []AttemptError `json:"errors,omitempty"`
	// ResultHash is the content address the job's result is served under,
	// known from submission.
	ResultHash string `json:"result_hash,omitempty"`
	// Progress is how far the last execution got, written with the
	// transition that ended it.
	Progress  Progress  `json:"progress"`
	CreatedAt time.Time `json:"created_at"`
	// StartedAt is when the latest execution started (MarkRunning), or
	// when a job finished from a stored result was claimed.
	StartedAt time.Time `json:"started_at,omitempty"`
	// UpdatedAt is the last write; for a terminal record, when it finished.
	UpdatedAt time.Time `json:"updated_at"`
}

// Progress counts an execution's runs: finished of planned.
type Progress struct {
	Done  int64 `json:"done"`
	Total int64 `json:"total"`
}

// LastError returns the most recent attempt error, or "".
func (r *Record) LastError() string {
	if len(r.Errors) == 0 {
		return ""
	}
	return r.Errors[len(r.Errors)-1].Error
}

// leaseFile is the on-disk lease payload. Grant names one grant of the
// lease: Claim draws it at random and Renew keeps it, so a reaper can
// tell the expired grant it judged from any lease written since.
type leaseFile struct {
	Worker   string    `json:"worker"`
	Grant    string    `json:"grant"`
	Granted  time.Time `json:"granted"`
	Deadline time.Time `json:"deadline"`
}

// LeaseInfo describes one live lease for monitoring.
type LeaseInfo struct {
	JobID    string
	Worker   string
	Granted  time.Time
	Deadline time.Time
}

// Option configures Open.
type Option func(*Store)

// WithWorker sets this process's worker identity (stamped into leases
// and records). Defaults to host-pid.
func WithWorker(id string) Option {
	return func(s *Store) {
		if id != "" {
			s.worker = id
		}
	}
}

// WithTTL sets the lease time-to-live: a worker that misses renewals for
// this long is considered dead and its jobs are reaped. Default 15s.
func WithTTL(d time.Duration) Option {
	return func(s *Store) {
		if d > 0 {
			s.ttl = d
		}
	}
}

// WithBackoff tunes the retry backoff: delay = base·2^(attempt-1),
// capped at max, with ±20% jitter. Defaults 1s base, 1m cap.
func WithBackoff(base, max time.Duration) Option {
	return func(s *Store) {
		if base > 0 {
			s.backoffBase = base
		}
		if max > 0 {
			s.backoffMax = max
		}
	}
}

// WithFS substitutes the filesystem (fault-injection seam).
func WithFS(fsys faultinject.FS) Option {
	return func(s *Store) {
		if fsys != nil {
			s.fsys = fsys
		}
	}
}

// WithClock substitutes the time source (lease deadlines and expiry).
func WithClock(c faultinject.Clock) Option {
	return func(s *Store) {
		if c != nil {
			s.clock = c
		}
	}
}

// Store is one worker's handle on the shared job directory. Safe for
// concurrent use by multiple goroutines and, by construction, by
// multiple processes on the same directory.
type Store struct {
	dir    string
	worker string
	ttl    time.Duration

	backoffBase time.Duration
	backoffMax  time.Duration

	fsys  faultinject.FS
	clock faultinject.Clock
}

// Open roots a job store at dir, creating it if needed.
func Open(dir string, opts ...Option) (*Store, error) {
	host, _ := os.Hostname()
	if host == "" {
		host = "worker"
	}
	s := &Store{
		dir:         dir,
		worker:      fmt.Sprintf("%s-%d", host, os.Getpid()),
		ttl:         15 * time.Second,
		backoffBase: time.Second,
		backoffMax:  time.Minute,
		fsys:        faultinject.OS{},
		clock:       faultinject.RealClock{},
	}
	for _, o := range opts {
		o(s)
	}
	if err := s.fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: open %s: %w", dir, err)
	}
	return s, nil
}

// Dir returns the job directory root.
func (s *Store) Dir() string { return s.dir }

// Worker returns this store handle's worker identity.
func (s *Store) Worker() string { return s.worker }

// TTL returns the lease time-to-live (heartbeats should renew well
// within it, e.g. every TTL/3).
func (s *Store) TTL() time.Duration { return s.ttl }

func (s *Store) recordPath(id string) string { return filepath.Join(s.dir, id+".job") }
func (s *Store) leasePath(id string) string  { return filepath.Join(s.dir, id+".lease") }
func (s *Store) cancelPath(id string) string { return filepath.Join(s.dir, id+".cancel") }
func (s *Store) reapPath(id, grant string) string {
	return filepath.Join(s.dir, id+".reap."+grant)
}

// writeRecord persists rec atomically (faultinject.WriteFileAtomic).
func (s *Store) writeRecord(rec *Record) error {
	rec.UpdatedAt = s.clock.Now()
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobstore: encode record: %w", err)
	}
	if err := faultinject.WriteFileAtomic(s.fsys, s.recordPath(rec.ID), data, 0o644); err != nil {
		return fmt.Errorf("jobstore: write record: %w", err)
	}
	return nil
}

// Enqueue persists a new queued record for id. The request payload is
// the submission's wire JSON so any worker can rebuild the job; the
// optional resultHash becomes the record's ResultHash.
func (s *Store) Enqueue(id string, request []byte, maxAttempts int, resultHash ...string) (*Record, error) {
	if maxAttempts <= 0 {
		maxAttempts = 1
	}
	rec := &Record{
		ID:          id,
		Request:     json.RawMessage(request),
		State:       StateQueued,
		MaxAttempts: maxAttempts,
		CreatedAt:   s.clock.Now(),
	}
	if len(resultHash) > 0 {
		rec.ResultHash = resultHash[0]
	}
	if err := s.writeRecord(rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// Get loads the record for id.
func (s *Store) Get(id string) (*Record, error) {
	data, err := s.fsys.ReadFile(s.recordPath(id))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("jobstore: read record: %w", err)
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("jobstore: decode record %s: %w", id, err)
	}
	return &rec, nil
}

// List returns every record in the directory, oldest first. Records that
// fail to parse are skipped (a torn record is unreadable only until its
// writer's rename lands or its job is re-enqueued). Reap markers older
// than the TTL, left by a reaper that died mid-takeover, are removed.
func (s *Store) List() ([]*Record, error) {
	ents, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("jobstore: list: %w", err)
	}
	var recs []*Record
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if !strings.HasSuffix(name, ".job") {
			if strings.Contains(name, ".reap.") {
				s.dropStaleMarker(filepath.Join(s.dir, name))
			}
			continue
		}
		rec, err := s.Get(strings.TrimSuffix(name, ".job"))
		if err != nil {
			continue
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].CreatedAt.Before(recs[j].CreatedAt) })
	return recs, nil
}

// Delete removes a job's record, lease and cancel flag (best-effort; used
// when admission fails after the record was persisted).
func (s *Store) Delete(id string) {
	s.fsys.Remove(s.leasePath(id))
	s.fsys.Remove(s.cancelPath(id))
	s.fsys.Remove(s.recordPath(id))
}

// dropStaleMarker removes the reap marker at path once it is older than
// the TTL. A live takeover holds its marker for a few file operations.
func (s *Store) dropStaleMarker(path string) {
	data, err := s.fsys.ReadFile(path)
	if err != nil {
		return
	}
	var made time.Time
	if json.Unmarshal(data, &made) == nil && s.clock.Now().Sub(made) > s.ttl {
		s.fsys.Remove(path)
	}
}

// Lease is a held claim on one job. The holder must Renew before the
// deadline (heartbeat) and finish with Complete, Fail, Requeue, Cancel,
// or Release.
type Lease struct {
	store    *Store
	JobID    string
	Deadline time.Time
	grant    string
}

// Claim attempts to take the lease on id. It succeeds when no lease
// exists or the existing lease has expired (takeover: exactly one
// claimant wins each expired grant). ErrLeaseHeld means a live lease is
// in the way; ErrNotClaimable means the record is not queued or its
// retry backoff has not elapsed.
func (s *Store) Claim(id string) (*Lease, error) {
	rec, err := s.Get(id)
	if err != nil {
		return nil, err
	}
	now := s.clock.Now()
	switch {
	case rec.State == StateQueued:
		if reason, ok := s.CancelRequested(id); ok {
			// A durable cancel request beat us to the claim: finish the
			// cancellation instead of running the job.
			s.Cancel(id, reason)
			return nil, ErrNotClaimable
		}
		if now.Before(rec.NotBefore) {
			return nil, ErrNotClaimable
		}
	case rec.State == StateRunning:
		// Claimable only over a dead worker's expired lease.
	default:
		return nil, ErrNotClaimable
	}

	lf := leaseFile{Worker: s.worker, Grant: fmt.Sprintf("%016x", mrand.Uint64()), Granted: now, Deadline: now.Add(s.ttl)}
	payload, _ := json.Marshal(lf)
	lease := &Lease{store: s, JobID: id, Deadline: lf.Deadline, grant: lf.Grant}
	lp := s.leasePath(id)
	err = s.fsys.CreateExclusive(lp, payload, 0o644)
	if err == nil {
		return lease, nil
	}
	if !errors.Is(err, fs.ErrExist) {
		return nil, fmt.Errorf("jobstore: claim %s: %w", id, err)
	}

	// A lease file exists; a live one means the job is owned. An expired
	// grant goes to the one reaper that exclusively creates its marker.
	// The winner re-reads the lease before replacing it, so a reaper that
	// judged an older grant never replaces the lease written since.
	old, ok := s.expiredGrant(id, now)
	if !ok {
		return nil, ErrLeaseHeld
	}
	marker := s.reapPath(id, old)
	made, _ := json.Marshal(now)
	if err := s.fsys.CreateExclusive(marker, made, 0o644); err != nil {
		return nil, ErrLeaseHeld // another reaper is taking this grant over
	}
	defer s.fsys.Remove(marker)
	if again, ok := s.expiredGrant(id, s.clock.Now()); !ok || again != old {
		return nil, ErrLeaseHeld // renewed or replaced since we read it
	}
	if err := faultinject.WriteFileAtomic(s.fsys, lp, payload, 0o644); err != nil {
		return nil, fmt.Errorf("jobstore: claim %s: %w", id, err)
	}
	return lease, nil
}

// expiredGrant returns the grant of id's lease when that lease has
// expired at now. An unparsable lease counts as expired, with the empty
// grant. ok is false for a live lease, and for one that cannot be read:
// a lease that vanished, or trouble proving it expired.
func (s *Store) expiredGrant(id string, now time.Time) (grant string, ok bool) {
	data, err := s.fsys.ReadFile(s.leasePath(id))
	if err != nil {
		return "", false
	}
	var lf leaseFile
	if json.Unmarshal(data, &lf) != nil {
		return "", true
	}
	return lf.Grant, !now.Before(lf.Deadline)
}

// readLease loads and parses the lease file for id.
func (s *Store) readLease(id string) (*leaseFile, error) {
	data, err := s.fsys.ReadFile(s.leasePath(id))
	if err != nil {
		return nil, err
	}
	var lf leaseFile
	if err := json.Unmarshal(data, &lf); err != nil {
		return nil, err
	}
	return &lf, nil
}

// Renew extends the lease deadline by the store's TTL — the heartbeat —
// and keeps its grant. ErrLeaseLost means the lease was reaped (or
// rewritten by another claim); the holder must abandon the job
// immediately.
func (l *Lease) Renew() error {
	s := l.store
	lf, err := s.readLease(l.JobID)
	if err != nil || lf.Grant != l.grant {
		return ErrLeaseLost
	}
	now := s.clock.Now()
	lf.Deadline = now.Add(s.ttl)
	payload, _ := json.Marshal(lf)
	if err := faultinject.WriteFileAtomic(s.fsys, s.leasePath(l.JobID), payload, 0o644); err != nil {
		return fmt.Errorf("jobstore: renew %s: %w", l.JobID, err)
	}
	l.Deadline = lf.Deadline
	return nil
}

// verify checks the lease file still holds this grant before a record
// write — the fencing that keeps a worker whose lease was reaped from
// clobbering the new owner's state.
func (l *Lease) verify() error {
	lf, err := l.store.readLease(l.JobID)
	if err != nil || lf.Grant != l.grant {
		return ErrLeaseLost
	}
	return nil
}

// Release drops the lease without changing the record (used after a
// claim turns out to be moot, e.g. the record was canceled meanwhile).
func (l *Lease) Release() error {
	if err := l.verify(); err != nil {
		return err
	}
	return l.store.fsys.Remove(l.store.leasePath(l.JobID))
}

// MarkRunning transitions the claimed record to running, charging one
// attempt and stamping StartedAt. Call immediately after Claim.
func (s *Store) MarkRunning(l *Lease, rec *Record) error {
	if err := l.verify(); err != nil {
		return err
	}
	rec.State = StateRunning
	rec.Attempt++
	rec.Worker = s.worker
	rec.StartedAt = s.clock.Now()
	return s.writeRecord(rec)
}

// Complete marks the record done under the lease, then releases the
// lease. It stores no result: the caller puts the result bytes into the
// run store under rec.ResultHash first, so a done record never precedes
// its bytes. A lease that was reaped meanwhile yields ErrLeaseLost and
// writes nothing.
func (s *Store) Complete(l *Lease, rec *Record) error {
	if err := l.verify(); err != nil {
		return err
	}
	rec.State = StateDone
	rec.Worker = s.worker
	if err := s.writeRecord(rec); err != nil {
		return err
	}
	s.fsys.Remove(s.leasePath(rec.ID))
	s.fsys.Remove(s.cancelPath(rec.ID)) // finished before the cancel landed
	return nil
}

// Fail records a failed attempt under the lease. Below MaxAttempts the
// job is requeued with exponential-backoff NotBefore (retried=true);
// at MaxAttempts it is quarantined: state failed, terminal, with the
// full error history (retried=false). Either way the lease is released.
func (s *Store) Fail(l *Lease, rec *Record, errMsg string) (retried bool, err error) {
	if err := l.verify(); err != nil {
		return false, err
	}
	now := s.clock.Now()
	rec.Errors = append(rec.Errors, AttemptError{
		Attempt: rec.Attempt, Worker: s.worker, Time: now, Error: errMsg,
	})
	rec.Worker = s.worker
	if rec.Attempt >= rec.MaxAttempts {
		rec.State = StateFailed
		retried = false
	} else {
		rec.State = StateQueued
		rec.NotBefore = now.Add(s.Backoff(rec.Attempt))
		retried = true
	}
	if err := s.writeRecord(rec); err != nil {
		return retried, err
	}
	s.fsys.Remove(s.leasePath(rec.ID))
	if !retried {
		s.fsys.Remove(s.cancelPath(rec.ID)) // terminal; retried jobs keep the flag for the next Claim
	}
	return retried, nil
}

// Requeue returns a running job to the queue under the lease without
// charging an error — the drain path: a shutting-down worker hands its
// in-flight jobs back to the cluster.
func (s *Store) Requeue(l *Lease, rec *Record) error {
	if err := l.verify(); err != nil {
		return err
	}
	rec.State = StateQueued
	rec.NotBefore = time.Time{}
	rec.Worker = s.worker
	if err := s.writeRecord(rec); err != nil {
		return err
	}
	s.fsys.Remove(s.leasePath(rec.ID))
	return nil
}

// Cancel marks a queued record canceled (best-effort; a worker that
// claims concurrently re-reads the record and skips canceled jobs).
func (s *Store) Cancel(id string, reason string) error {
	rec, err := s.Get(id)
	if err != nil {
		return err
	}
	if rec.State != StateQueued && rec.State != StateRunning {
		return nil
	}
	rec.State = StateCanceled
	rec.Errors = append(rec.Errors, AttemptError{
		Attempt: rec.Attempt, Worker: s.worker, Time: s.clock.Now(), Error: reason,
	})
	if err := s.writeRecord(rec); err != nil {
		return err
	}
	s.fsys.Remove(s.cancelPath(id))
	return nil
}

// cancelFlag is the on-disk cancel-request payload.
type cancelFlag struct {
	Worker string    `json:"worker"`
	Time   time.Time `json:"time"`
	Reason string    `json:"reason"`
}

// RequestCancel records a durable cancel request for id, from any worker
// in the cluster — not just the leaseholder. A queued record is canceled
// immediately; a running one keeps its flag file until the owning
// worker's next heartbeat observes it and writes the terminal canceled
// state under its lease (or, if the owner dies first, until a reaper or
// claimant honors the flag). Terminal records are left untouched.
func (s *Store) RequestCancel(id, reason string) error {
	rec, err := s.Get(id)
	if err != nil {
		return err
	}
	switch rec.State {
	case StateQueued, StateRunning:
	default:
		return nil // already terminal
	}
	payload, _ := json.Marshal(cancelFlag{Worker: s.worker, Time: s.clock.Now(), Reason: reason})
	if err := faultinject.WriteFileAtomic(s.fsys, s.cancelPath(id), payload, 0o644); err != nil {
		return fmt.Errorf("jobstore: request cancel %s: %w", id, err)
	}
	if rec.State == StateQueued {
		// Cancel it now if we can; a concurrently claiming worker either
		// sees the canceled record (and refuses) or won the claim and will
		// observe the flag on its first heartbeat.
		return s.Cancel(id, reason)
	}
	return nil
}

// CancelRequested reports whether a durable cancel request is pending for
// id, with its reason. Leaseholders check it on every heartbeat.
func (s *Store) CancelRequested(id string) (reason string, ok bool) {
	data, err := s.fsys.ReadFile(s.cancelPath(id))
	if err != nil {
		return "", false
	}
	var cf cancelFlag
	if json.Unmarshal(data, &cf) != nil {
		return "cancel requested", true // torn or legacy flag still counts
	}
	if cf.Reason == "" {
		return "cancel requested", true
	}
	return cf.Reason, true
}

// CancelUnderLease marks the held record canceled and releases the lease
// (the owner observed its job's context cancelled by a client).
func (s *Store) CancelUnderLease(l *Lease, rec *Record, reason string) error {
	if err := l.verify(); err != nil {
		return err
	}
	rec.State = StateCanceled
	rec.Errors = append(rec.Errors, AttemptError{
		Attempt: rec.Attempt, Worker: s.worker, Time: s.clock.Now(), Error: reason,
	})
	rec.Worker = s.worker
	if err := s.writeRecord(rec); err != nil {
		return err
	}
	s.fsys.Remove(s.leasePath(rec.ID))
	s.fsys.Remove(s.cancelPath(rec.ID))
	return nil
}

// ReapExpired checks a running record's lease and, when it has expired
// (the owner died), takes it over through Claim and requeues the job
// with its attempt count intact (the dead worker's attempt was already
// charged at MarkRunning). Exactly one concurrent reaper succeeds; the
// rest report reaped=false.
func (s *Store) ReapExpired(rec *Record) (reaped bool, err error) {
	if rec.State != StateRunning {
		return false, nil
	}
	now := s.clock.Now()
	lf, rerr := s.readLease(rec.ID)
	if rerr == nil && now.Before(lf.Deadline) {
		return false, nil // owner is alive
	}
	if rerr != nil && os.IsNotExist(rerr) {
		// Running record with no lease: the owner crashed between claim
		// bookkeeping steps. Requeue via the claim path below.
	} else if rerr != nil {
		return false, nil // unreadable lease: retry next scan
	}
	l, cerr := s.Claim(rec.ID) // running + expired lease → takeover
	if cerr != nil {
		return false, nil // another reaper won
	}
	// Re-read under the lease: the old owner may have finished just
	// before we reaped.
	fresh, gerr := s.Get(rec.ID)
	if gerr != nil || fresh.State != StateRunning {
		l.Release()
		return false, nil
	}
	fresh.State = StateQueued
	fresh.NotBefore = time.Time{}
	if reason, ok := s.CancelRequested(rec.ID); ok {
		// The dead owner never saw the client's cancel request; honor it
		// now instead of requeueing work nobody wants.
		fresh.State = StateCanceled
		fresh.Errors = append(fresh.Errors, AttemptError{
			Attempt: fresh.Attempt, Worker: s.worker, Time: now, Error: reason,
		})
	} else if rec.MaxAttempts > 0 && fresh.Attempt >= fresh.MaxAttempts {
		// The dead worker burned the last attempt; quarantine rather than
		// loop forever on a job that kills its workers.
		fresh.State = StateFailed
		fresh.Errors = append(fresh.Errors, AttemptError{
			Attempt: fresh.Attempt, Worker: s.worker, Time: now,
			Error: fmt.Sprintf("lease expired (worker %s died); attempt limit reached", fresh.Worker),
		})
	}
	if l.verify() != nil {
		return false, nil // our takeover was itself taken over
	}
	if err := s.writeRecord(fresh); err != nil {
		l.Release()
		return false, err
	}
	s.fsys.Remove(s.leasePath(rec.ID))
	if fresh.State != StateQueued {
		s.fsys.Remove(s.cancelPath(rec.ID))
	}
	*rec = *fresh
	return true, nil
}

// Leases lists the live leases in the directory (expired ones are
// skipped) for the /metrics lease-age gauges.
func (s *Store) Leases() ([]LeaseInfo, error) {
	ents, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("jobstore: leases: %w", err)
	}
	now := s.clock.Now()
	var infos []LeaseInfo
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".lease") {
			continue
		}
		id := strings.TrimSuffix(name, ".lease")
		lf, err := s.readLease(id)
		if err != nil || now.After(lf.Deadline) {
			continue
		}
		infos = append(infos, LeaseInfo{JobID: id, Worker: lf.Worker, Granted: lf.Granted, Deadline: lf.Deadline})
	}
	return infos, nil
}

// Backoff returns the retry delay after the given (1-based) attempt:
// base·2^(attempt-1) capped at the maximum, with ±20% jitter so a burst
// of failures doesn't retry in lockstep.
func (s *Store) Backoff(attempt int) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := s.backoffBase
	for i := 1; i < attempt && d < s.backoffMax; i++ {
		d *= 2
	}
	if d > s.backoffMax {
		d = s.backoffMax
	}
	jitter := 0.8 + 0.4*mrand.Float64()
	return time.Duration(float64(d) * jitter)
}

// Now exposes the store's clock (tests and the server's gauges share it).
func (s *Store) Now() time.Time { return s.clock.Now() }
