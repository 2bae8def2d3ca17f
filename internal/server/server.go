package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cmm/internal/cmm"
	"cmm/internal/experiments"
	"cmm/internal/jobstore"
	"cmm/internal/runstore"
	"cmm/internal/telemetry"
	"cmm/internal/workload"
)

// Config sizes the job service.
type Config struct {
	// Store memoizes run results across jobs and holds the one copy of
	// every finished job's result, which the read path and the job result
	// endpoint serve (required). A memory-only store (runstore.Open(""))
	// loses results past its LRU capacity, and an age or size limit
	// sweeps them from disk; a done job whose result is gone answers 410.
	Store *runstore.Store
	// Jobs is the durable, lease-based job layer (required). When several
	// server processes share one jobs directory they form a cluster: any
	// worker claims queued jobs via atomic leases, heartbeats while
	// running, and reaps jobs whose owners died.
	Jobs *jobstore.Store
	// Workers is how many jobs execute concurrently (default 1). Each job
	// additionally fans its simulation runs across its own Options.Workers.
	Workers int
	// QueueDepth bounds how many jobs may wait (default 16); submissions
	// beyond it are rejected with 503.
	QueueDepth int
	// Presets maps preset names accepted in job submissions to base
	// experiment options. Nil gets the "quick" and "full" presets.
	Presets map[string]experiments.Options
	// Counters receives run telemetry from every job and backs /metrics.
	// Nil gets a private set.
	Counters *telemetry.Counters
	// EventSink receives every job's full per-epoch event stream in
	// addition to Counters — typically a JSONL sink whose learn_fallback
	// events accumulate the CMM-L retraining corpus. Nil disables.
	EventSink telemetry.Sink
	// Models serves the CMM-L policy from a model registry with hot
	// reload, /v1/model, and rollback (nil leaves CMM-L unavailable).
	Models *ModelManager
	// DefaultTimeout bounds a job's execution when the submission carries
	// no timeout_seconds. Zero means no limit.
	DefaultTimeout time.Duration
	// MaxAttempts bounds how many times a failing job is executed before
	// it is quarantined in the terminal failed state (default 3).
	MaxAttempts int
	// AttemptTimeout bounds each individual execution attempt, layered
	// under the job's overall timeout: an attempt that exceeds it counts
	// as a failed attempt (retried after the jobstore's backoff), while
	// the job timeout still cancels the job outright. Zero disables it.
	AttemptTimeout time.Duration
	// ScanInterval is how often the durable-job scanner looks for
	// requeued work and expired leases (default TTL/3, floor 50ms).
	ScanInterval time.Duration

	// execute substitutes the job execution function. Tests install stubs
	// here so the stub is in place before the scanner can push durable
	// jobs; nil means the real experiment engine.
	execute func(ctx context.Context, j *job) (any, error)
}

// withDefaults fills the unset optional fields; it panics when a
// required one is missing.
func (c Config) withDefaults() Config {
	switch {
	case c.Store == nil:
		panic(`server: Config.Store is nil (runstore.Open("") gives a memory-only store)`)
	case c.Jobs == nil:
		panic("server: Config.Jobs is nil (open a jobstore with jobstore.Open)")
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.Presets == nil {
		c.Presets = map[string]experiments.Options{
			"quick": experiments.QuickOptions(),
			"full":  experiments.DefaultOptions(),
		}
	}
	if c.Counters == nil {
		c.Counters = &telemetry.Counters{}
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.ScanInterval <= 0 {
		c.ScanInterval = c.Jobs.TTL() / 3
	}
	if c.ScanInterval < 50*time.Millisecond {
		c.ScanInterval = 50 * time.Millisecond
	}
	return c
}

// Job states (the durable jobstore shares the same strings).
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// jobStates orders the cmm_jobs gauge lines.
var jobStates = [...]string{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled}

// job is one experiment this process has queued in its heap or is
// running; every other question about a job is answered from its durable
// record.
type job struct {
	id       string
	kind     string
	preset   string
	priority int
	seq      uint64
	timeout  time.Duration
	opts     experiments.Options
	policies []cmm.Policy

	done, total atomic.Int64

	// resultKey is the content-address of the job's result payload
	// (experiments.JobKey over the resolved options); immutable after
	// buildJob. The serving tier publishes finished results under it.
	resultKey string

	mu sync.Mutex
	// running is this process's run of the job, rendered from the run's
	// record once it is marked running; nil before that.
	running *jobStatus
	cancel  context.CancelFunc
}

// Server runs the job queue, the worker pool, and the HTTP API.
type Server struct {
	cfg   Config
	queue *jobQueue
	seq   atomic.Uint64

	mu sync.Mutex
	// local holds the jobs in this process's heap or running here, so it
	// never exceeds QueueDepth + Workers entries.
	local    map[string]*job
	draining bool
	// lookups deduplicates compute-on-miss: it maps a result hash to the
	// job POST /v1/results/lookup enqueued for it, and concurrent lookups
	// for the same config share that job while its record is live (the
	// HTTP-level singleflight over the store's own). Entries are cleared
	// on terminal transitions here and replaced when found ended.
	lookups map[string]string
	// lookupMu serializes compute-on-miss admission (ensureLookupJob).
	lookupMu sync.Mutex

	// counts is the per-state job count (jobStates order) the scanner's
	// last pass saw; /metrics reports it without walking any jobs.
	counts atomic.Pointer[[len(jobStates)]int]

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	scanStop chan struct{}
	scanDone chan struct{}
	scanOnce sync.Once

	// dead simulates a SIGKILL for chaos tests: heartbeats stop, durable
	// state is never written, leases are left to expire.
	dead atomic.Bool

	// execute runs one job's experiment; tests substitute it to exercise
	// queueing and cancellation without driving the simulator.
	execute func(ctx context.Context, j *job) (any, error)
}

// New builds a Server and starts its worker pool and the scanner that
// picks up queued work and reaps expired leases. It panics when cfg lacks
// its Store or Jobs.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		queue:    newJobQueue(cfg.QueueDepth),
		local:    map[string]*job{},
		lookups:  map[string]string{},
		scanStop: make(chan struct{}),
		scanDone: make(chan struct{}),
	}
	s.counts.Store(new([len(jobStates)]int))
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.execute = s.executeJob
	if cfg.execute != nil {
		s.execute = cfg.execute
	}
	s.wg.Add(cfg.Workers)
	for range cfg.Workers {
		go func() {
			defer s.wg.Done()
			for {
				j, ok := s.queue.pop()
				if !ok {
					return
				}
				s.run(j)
			}
		}()
	}
	go s.scanLoop()
	return s
}

// stopScanner halts the durable-job scanner (idempotent).
func (s *Server) stopScanner() {
	s.scanOnce.Do(func() { close(s.scanStop) })
	<-s.scanDone
}

// BeginDrain marks the server as draining without stopping anything:
// /healthz flips to "draining" (503) so load balancers stop routing, and
// new submissions are rejected, while running jobs continue. Call it
// when SIGTERM arrives, before the HTTP listener's grace period.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Draining reports whether admission has been closed.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown drains the service: admission stops immediately, queued jobs
// stay queued in the jobstore for surviving workers (or a restarted
// server on the same jobs directory), and running jobs get until ctx
// expires to finish before their contexts are cancelled — a forced
// cancellation requeues the job so another worker can finish it. It
// returns ctx.Err() when the deadline forced cancellation, nil on a clean
// drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	s.stopScanner()
	for _, j := range s.queue.close() {
		s.dropLocal(j) // its record stays queued
	}
	waited := make(chan struct{})
	go func() { s.wg.Wait(); close(waited) }()
	select {
	case <-waited:
		return nil
	case <-ctx.Done():
		s.baseCancel() // cancel every running job's context
		<-waited
		return ctx.Err()
	}
}

// jobRequest is the POST /v1/jobs payload. Omitted fields inherit the
// preset; see EXPERIMENTS.md for the full schema.
type jobRequest struct {
	Kind             string   `json:"kind"`
	Preset           string   `json:"preset"`
	Policies         []string `json:"policies"`
	Seeds            []int64  `json:"seeds"`
	MixesPerCategory int      `json:"mixes_per_category"`
	Workers          int      `json:"workers"`
	Priority         int      `json:"priority"`
	TimeoutSeconds   int      `json:"timeout_seconds"`
}

// jobStatus is the wire form of a job's state.
type jobStatus struct {
	ID       string            `json:"id"`
	Kind     string            `json:"kind"`
	Preset   string            `json:"preset"`
	State    string            `json:"state"`
	Priority int               `json:"priority"`
	Progress jobstore.Progress `json:"progress"`
	Error    string            `json:"error,omitempty"`
	Attempt  int               `json:"attempt,omitempty"`
	Attempts []string          `json:"attempt_errors,omitempty"`
	Worker   string            `json:"worker,omitempty"`
	// ResultHash is the content-address the finished result is (or will
	// be) served under at GET /v1/results/{hash}; known from submission.
	ResultHash string `json:"result_hash,omitempty"`
	CreatedAt  string `json:"created_at,omitempty"`
	StartedAt  string `json:"started_at,omitempty"`
	FinishedAt string `json:"finished_at,omitempty"`
}

// status renders a durable record in the wire form.
func status(rec *jobstore.Record) jobStatus {
	var req jobRequest
	_ = json.Unmarshal(rec.Request, &req) // a malformed request still reports its state
	req = req.withDefaults()
	st := jobStatus{
		ID: rec.ID, Kind: req.Kind, Preset: req.Preset,
		State: rec.State, Priority: req.Priority, Progress: rec.Progress,
		Attempt: rec.Attempt, Worker: rec.Worker, ResultHash: rec.ResultHash,
	}
	if rec.State != StateDone {
		st.Error = rec.LastError()
	}
	for _, e := range rec.Errors {
		st.Attempts = append(st.Attempts, fmt.Sprintf("attempt %d (worker %s): %s", e.Attempt, e.Worker, e.Error))
	}
	stamp := func(t time.Time) string {
		if t.IsZero() {
			return ""
		}
		return t.UTC().Format(time.RFC3339Nano)
	}
	st.CreatedAt, st.StartedAt = stamp(rec.CreatedAt), stamp(rec.StartedAt)
	switch rec.State {
	case StateDone, StateFailed, StateCanceled:
		st.FinishedAt = stamp(rec.UpdatedAt)
	}
	return st
}

// withDefaults fills the kind and preset a request may omit.
func (r jobRequest) withDefaults() jobRequest {
	if r.Kind == "" {
		r.Kind = "comparison"
	}
	if r.Preset == "" {
		r.Preset = "quick"
	}
	return r
}

// MixInfo names one mix of a comparison result.
type MixInfo struct {
	Name     string `json:"name"`
	Category string `json:"category"`
}

// ComparisonResult is the JSON result payload of a comparison job. It is
// a plain-data projection of experiments.Comparison: Options carries
// callbacks and interfaces, so the Comparison itself never crosses the
// wire.
type ComparisonResult struct {
	Policies  []string                                `json:"policies"`
	Mixes     []MixInfo                               `json:"mixes"`
	Results   map[string][]experiments.MixResult      `json:"results"`
	Telemetry map[string]experiments.TelemetrySummary `json:"telemetry,omitempty"`
}

// CharacterizeResult is the JSON result payload of a characterize job.
type CharacterizeResult struct {
	Fig1 []experiments.Fig1Row `json:"fig1"`
	Fig2 []experiments.Fig2Row `json:"fig2"`
}

// Fig3Result is the JSON result payload of a fig3 job.
type Fig3Result struct {
	Rows []experiments.Fig3Row `json:"rows"`
}

// newJobID returns a random 64-bit job identifier.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("server: rand: %v", err)) // /dev/urandom gone; nothing sane to do
	}
	return "job-" + hex.EncodeToString(b[:])
}

// buildJob validates a request against the configured presets and
// policies, failing fast at submission so queued jobs can't be malformed.
func (s *Server) buildJob(req jobRequest) (*job, error) {
	req = req.withDefaults()
	switch req.Kind {
	case "comparison", "characterize", "fig3":
	default:
		return nil, fmt.Errorf("unknown kind %q (want comparison, characterize or fig3)", req.Kind)
	}
	opts, ok := s.cfg.Presets[req.Preset]
	if !ok {
		names := make([]string, 0, len(s.cfg.Presets))
		for n := range s.cfg.Presets {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown preset %q (have %v)", req.Preset, names)
	}
	if len(req.Seeds) > 0 {
		opts.Seeds = req.Seeds
	}
	if req.MixesPerCategory > 0 {
		opts.MixesPerCategory = req.MixesPerCategory
	}
	if req.Workers > 0 {
		opts.Workers = req.Workers
	}
	opts.Store = s.cfg.Store
	opts.Telemetry = telemetry.Multi(s.cfg.Counters, s.cfg.EventSink)
	if err := opts.Validate(); err != nil {
		return nil, err
	}

	var policies []cmm.Policy
	if len(req.Policies) == 0 {
		policies = cmm.Policies()[1:] // all real policies, baseline excluded
	} else {
		for _, name := range req.Policies {
			p, ok := cmm.PolicyByName(name)
			if !ok && name == "CMM-L" && s.cfg.Models != nil {
				// The learned policy is served from the model registry, not
				// the static table: jobs get whatever model is current at
				// build time, and keep it for their whole run even if a
				// promotion swaps the served model mid-flight.
				p, ok = s.cfg.Models.Policy()
				if !ok {
					return nil, fmt.Errorf("policy CMM-L: no model loaded (registry empty or last reload failed)")
				}
			}
			if !ok {
				return nil, fmt.Errorf("unknown policy %q", name)
			}
			policies = append(policies, p)
		}
	}

	// The result's content-address is known the moment the request is
	// resolved: it keys the serving tier's publish on completion and lets
	// clients poll GET /v1/results/{hash} without waiting for the job.
	// Policies only shape comparison output; other kinds hash without
	// them so semantically identical requests address one result.
	var keyPolicies []string
	if req.Kind == "comparison" {
		for _, p := range policies {
			// Store identity, not report name: CMM-L results depend on the
			// loaded model, so jobs run under different models must address
			// different results. Classic policies are unaffected (their
			// identity IS their name).
			keyPolicies = append(keyPolicies, experiments.PolicyStoreName(p))
		}
	}
	resultKey, err := experiments.JobKey(req.Kind, opts, keyPolicies)
	if err != nil {
		return nil, fmt.Errorf("result key: %w", err)
	}

	j := &job{
		id:        newJobID(),
		kind:      req.Kind,
		preset:    req.Preset,
		priority:  req.Priority,
		seq:       s.seq.Add(1),
		opts:      opts,
		policies:  policies,
		resultKey: resultKey,
	}
	switch {
	case req.TimeoutSeconds < 0:
		return nil, fmt.Errorf("timeout_seconds %d < 0", req.TimeoutSeconds)
	case req.TimeoutSeconds > 0:
		j.timeout = time.Duration(req.TimeoutSeconds) * time.Second
	default:
		j.timeout = s.cfg.DefaultTimeout
	}
	return j, nil
}

// enqueueJob persists a built job's record and pushes the job onto the
// local queue, durable-first (so any cluster worker can run it even if
// this process dies immediately). rawReq is the original request body the
// record persists. On failure the record is deleted again and the error
// maps to a 503.
func (s *Server) enqueueJob(j *job, rawReq []byte) (*jobstore.Record, error) {
	rec, err := s.cfg.Jobs.Enqueue(j.id, rawReq, s.cfg.MaxAttempts, j.resultKey)
	if err != nil {
		return nil, fmt.Errorf("persist job: %w", err)
	}
	if err := s.pushLocal(j); err != nil {
		s.cfg.Jobs.Delete(j.id)
		return nil, err
	}
	return rec, nil
}

// pushLocal puts j in local and the heap, or neither when the heap is
// full or closed. A job already held here (the scanner got to it first)
// is not pushed twice.
func (s *Server) pushLocal(j *job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.local[j.id] != nil {
		return nil
	}
	if err := s.queue.push(j); err != nil {
		return err
	}
	s.local[j.id] = j
	return nil
}

// dropLocal forgets j once it left the heap without running or its run
// ended.
func (s *Server) dropLocal(j *job) {
	s.mu.Lock()
	if s.local[j.id] == j {
		delete(s.local, j.id)
	}
	s.mu.Unlock()
}

// localJob returns the job held here under id, or nil.
func (s *Server) localJob(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.local[id]
}

// buildJobFromRecord rebuilds a job from its durable record — how a
// worker materializes work submitted to (or abandoned by) another
// process in the cluster.
func (s *Server) buildJobFromRecord(rec *jobstore.Record) (*job, error) {
	var req jobRequest
	if err := json.Unmarshal(rec.Request, &req); err != nil {
		return nil, fmt.Errorf("record %s: %w", rec.ID, err)
	}
	j, err := s.buildJob(req)
	if err != nil {
		return nil, fmt.Errorf("record %s: %w", rec.ID, err)
	}
	j.id = rec.ID
	return j, nil
}

// scanLoop is the durable-job scanner: on an interval it reaps running
// jobs whose workers stopped heartbeating, pushes due queued work into
// the local heap, and counts the jobs by state. Every worker in the
// cluster runs one; the lease protocol makes their overlap safe.
func (s *Server) scanLoop() {
	defer close(s.scanDone)
	t := time.NewTicker(s.cfg.ScanInterval)
	defer t.Stop()
	s.scanOnceNow()
	for {
		select {
		case <-s.scanStop:
			return
		case <-t.C:
			if s.dead.Load() {
				return
			}
			s.scanOnceNow()
		}
	}
}

// scanOnceNow performs one scanner pass.
func (s *Server) scanOnceNow() {
	recs, err := s.cfg.Jobs.List()
	if err != nil {
		return // transient store trouble; next tick retries
	}
	s.scanRecords(recs)
}

// scanRecords is the second half of a scanner pass over the records it
// listed. A listing may be stale by the time it is applied, so a queued
// record is re-read before its job is pushed, and Claim still decides
// who runs it.
func (s *Server) scanRecords(recs []*jobstore.Record) {
	now := s.cfg.Jobs.Now()
	var counts [len(jobStates)]int
	heapFull := false
	for _, rec := range recs {
		if rec.State == jobstore.StateRunning {
			if reaped, err := s.cfg.Jobs.ReapExpired(rec); err == nil && reaped {
				// rec now holds the post-reap state: queued, or failed when
				// the dead worker burned the last attempt.
				s.cfg.Counters.JobRequeued()
				if rec.State == jobstore.StateFailed {
					s.cfg.Counters.JobQuarantined()
				}
			}
		}
		if i := slices.Index(jobStates[:], rec.State); i >= 0 {
			counts[i]++
		}
		if rec.State == jobstore.StateQueued && !now.Before(rec.NotBefore) && !heapFull {
			heapFull = errors.Is(s.pushDue(rec.ID), ErrQueueFull)
		}
	}
	s.counts.Store(&counts)
}

// pushDue pushes job id into the local heap when it is not held here and
// its freshly read record is queued and due. The re-read happens after
// the local check, so a job that left local (its run ended, or a DELETE
// took it out of the heap) is pushed again only if its record still says
// so.
func (s *Server) pushDue(id string) error {
	if s.localJob(id) != nil {
		return nil
	}
	rec, err := s.cfg.Jobs.Get(id)
	if err != nil || rec.State != jobstore.StateQueued || s.cfg.Jobs.Now().Before(rec.NotBefore) {
		return nil
	}
	j, err := s.buildJobFromRecord(rec)
	if err != nil {
		return nil // malformed record; quarantined by inspection, not crash
	}
	return s.pushLocal(j)
}

// run executes one popped job through its full lifecycle: claim,
// heartbeat, per-attempt timeout, execution, and the terminal or retry
// transition. The job leaves local when it returns.
func (s *Server) run(j *job) {
	defer s.dropLocal(j)
	// The local heap is only a hint — the lease is the cluster-wide
	// mutual exclusion.
	lease, err := s.cfg.Jobs.Claim(j.id)
	if err != nil {
		// Held by another worker, canceled, or backoff-gated: the scanner
		// pushes it again when its record is due.
		return
	}
	rec, err := s.cfg.Jobs.Get(j.id)
	if err != nil || (rec.State != jobstore.StateQueued && rec.State != jobstore.StateRunning) {
		lease.Release()
		return
	}
	rec.ResultHash = j.resultKey // the key this run publishes under
	if _, ok := s.cfg.Store.Get(j.resultKey); ok {
		// The key covers the whole configuration, so the stored bytes are
		// the ones an execution would produce: finish without executing.
		// Nothing ran, so no attempt is charged.
		rec.StartedAt = s.cfg.Jobs.Now()
		rec.Progress = jobstore.Progress{Done: 1, Total: 1}
		s.cfg.Counters.JobAnsweredFromStore()
		s.finishDone(j, lease, rec)
		return
	}
	if err := s.cfg.Jobs.MarkRunning(lease, rec); err != nil {
		return
	}

	jobCtx, jobCancel := context.WithCancel(s.baseCtx)
	if j.timeout > 0 {
		jobCtx, jobCancel = context.WithTimeout(s.baseCtx, j.timeout)
	}
	defer jobCancel()
	st := status(rec)
	j.mu.Lock()
	j.running = &st
	j.cancel = jobCancel
	j.mu.Unlock()

	// Heartbeat: renew the lease at TTL/3 so the job survives long
	// executions; a failed renewal means we lost the job to a reaper —
	// cancel the attempt and write nothing durable (fencing). A durable
	// cancel request it observes (cross-node DELETE) becomes the recorded
	// reason instead of the bare context error. Both are read only after
	// hbDone closes.
	hbStop, hbDone := make(chan struct{}), make(chan struct{})
	leaseLost, cancelReason := false, ""
	interval := s.cfg.Jobs.TTL() / 3
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	go func() {
		defer close(hbDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-t.C:
				if s.dead.Load() {
					return
				}
				if err := lease.Renew(); err != nil {
					leaseLost = true
					jobCancel()
					return
				}
				// Cross-node cancel: a client's DELETE on any worker leaves
				// a durable flag only the leaseholder can honor.
				if reason, ok := s.cfg.Jobs.CancelRequested(j.id); ok {
					cancelReason = reason
					jobCancel()
					return
				}
			}
		}
	}()

	// Per-attempt timeout, layered under the job timeout: its expiry is a
	// failed attempt (retryable), not a job cancellation.
	attemptCtx, attemptCancel := jobCtx, context.CancelFunc(func() {})
	if s.cfg.AttemptTimeout > 0 {
		attemptCtx, attemptCancel = context.WithTimeout(jobCtx, s.cfg.AttemptTimeout)
	}

	// The result is rendered once in canonical JSON here, so a result that
	// cannot be rendered is a failed attempt like any other error.
	raw, err := func() (raw []byte, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("job panicked: %v", r)
			}
		}()
		result, err := s.execute(attemptCtx, j)
		if err != nil {
			return nil, err
		}
		if raw, err = runstore.Canonical(result); err != nil {
			return nil, fmt.Errorf("render result: %w", err)
		}
		return raw, nil
	}()
	attemptCancel()
	close(hbStop)
	<-hbDone
	rec.Progress = jobstore.Progress{Done: j.done.Load(), Total: j.total.Load()}

	if s.dead.Load() {
		// Chaos-test SIGKILL: the process is "gone" — no durable writes,
		// no lease release; the lease expires and another worker reaps.
		return
	}

	switch {
	case leaseLost:
		// Another worker reaped our lease (e.g. a long GC pause or a
		// store stall starved the heartbeat); it owns the job now and
		// writes its record.
	case err == nil:
		// The key is content-addressed, so an entry stored meanwhile holds
		// these bytes and is not rewritten; a missing entry is written, and
		// so is a corrupt one, which Get quarantines and reports missing. A
		// failed disk write (full disk, open breaker) is absorbed: the
		// store's memory front still serves the bytes and its breaker
		// counts the error.
		if _, ok := s.cfg.Store.Get(j.resultKey); !ok {
			s.cfg.Store.Put(j.resultKey, raw)
		}
		s.finishDone(j, lease, rec)
	case jobCtx.Err() != nil:
		if cancelReason == "" {
			cancelReason = err.Error()
		}
		s.finishCanceled(j, lease, rec, cancelReason)
	default:
		// Failed attempt (including a per-attempt timeout): retry with
		// backoff until MaxAttempts, then quarantine.
		s.finishFailedAttempt(j, lease, rec, err)
	}
}

// finishDone writes the done record of a job whose result bytes are in
// the run store under its content-address, so a done record always comes
// after its bytes and the job endpoint and the read path serve the same
// payload. A record write that fails for any reason but a lost lease is a
// failed attempt.
func (s *Server) finishDone(j *job, lease *jobstore.Lease, rec *jobstore.Record) {
	if err := s.cfg.Jobs.Complete(lease, rec); err != nil {
		if !errors.Is(err, jobstore.ErrLeaseLost) {
			s.finishFailedAttempt(j, lease, rec, err)
		}
		return
	}
	s.clearLookup(j)
}

// finishCanceled handles a job whose context ended: client cancellation,
// the job-level timeout, or a forced shutdown. A forced shutdown requeues
// the job so surviving workers finish it instead.
func (s *Server) finishCanceled(j *job, lease *jobstore.Lease, rec *jobstore.Record, reason string) {
	if s.baseCtx.Err() != nil {
		// Forced drain: hand the in-flight job back to the cluster.
		s.cfg.Jobs.Requeue(lease, rec)
		return
	}
	s.cfg.Jobs.CancelUnderLease(lease, rec, reason)
	s.clearLookup(j)
}

// clearLookup drops j's compute-on-miss dedup entry once it is terminal,
// so a later lookup for the same config can enqueue a fresh job.
func (s *Server) clearLookup(j *job) {
	s.mu.Lock()
	if s.lookups[j.resultKey] == j.id {
		delete(s.lookups, j.resultKey)
	}
	s.mu.Unlock()
}

// finishFailedAttempt charges one failed attempt: requeue with backoff
// below MaxAttempts, quarantine at the limit. When the record cannot be
// written the lease expires and a reaper requeues the job.
func (s *Server) finishFailedAttempt(j *job, lease *jobstore.Lease, rec *jobstore.Record, execErr error) {
	retried, err := s.cfg.Jobs.Fail(lease, rec, execErr.Error())
	switch {
	case err != nil:
	case retried:
		// The scanner (ours or any peer's) re-enqueues once NotBefore
		// passes.
		s.cfg.Counters.JobRetried()
	default:
		s.cfg.Counters.JobQuarantined()
		s.clearLookup(j)
	}
}

// executeJob dispatches on kind and shapes the engine's output into the
// wire structs.
func (s *Server) executeJob(ctx context.Context, j *job) (any, error) {
	opts := j.opts
	opts.Context = ctx
	opts.Progress = func(done, total int) {
		j.done.Store(int64(done))
		j.total.Store(int64(total))
	}
	switch j.kind {
	case "comparison":
		comp, err := experiments.RunComparison(opts, j.policies)
		if err != nil {
			return nil, err
		}
		res := ComparisonResult{
			Policies:  comp.Policies,
			Results:   comp.Results,
			Telemetry: comp.Telemetry,
		}
		for _, m := range comp.Mixes {
			res.Mixes = append(res.Mixes, MixInfo{Name: m.Name, Category: m.Category.String()})
		}
		return res, nil
	case "characterize":
		f1, f2, err := experiments.Characterize(opts, workload.Suite())
		if err != nil {
			return nil, err
		}
		return CharacterizeResult{Fig1: f1, Fig2: f2}, nil
	case "fig3":
		rows, err := experiments.Fig3Of(opts, workload.Suite(), experiments.Fig3Ways)
		if err != nil {
			return nil, err
		}
		return Fig3Result{Rows: rows}, nil
	}
	return nil, fmt.Errorf("unknown kind %q", j.kind) // unreachable: buildJob validated
}
