package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
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
	// Store memoizes run results across jobs and backs the read path
	// (required; runstore.Open("") keeps it in memory).
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
	// ReadCacheEntries sizes the read path's in-memory byte-cache front
	// (entries, not bytes; default DefaultReadCacheEntries). The cache
	// holds canonical result bytes keyed by content hash, so warm
	// GET /v1/results/{hash} requests cost one shard mutex and no store
	// traffic.
	ReadCacheEntries int

	// execute substitutes the job execution function. Tests install stubs
	// here so the stub is in place before the scanner can adopt durable
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

// job is one submitted experiment and its lifecycle.
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

	mu        sync.Mutex
	state     string
	err       string
	attempt   int
	history   []string // one line per failed attempt
	inQueue   bool     // sitting in the local priority heap
	localRun  bool     // this process is executing it right now
	leaseLost bool     // our lease was reaped mid-run; another worker owns it
	// cancelReason is set when the heartbeat observes a durable cancel
	// request (cross-node DELETE); finishCanceled records it instead of
	// the bare context error.
	cancelReason string
	worker       string // last worker seen running it (cluster mirror)
	cancel       context.CancelFunc
	resultRaw    []byte // canonical result bytes, as written to the durable store
	created      time.Time
	started      time.Time
	finished     time.Time

	// settled stamps the job's last local transition out of a local run
	// (Server.transitions); durable records listed before it are stale.
	settled uint64
}

// Server runs the job queue, the worker pool, and the HTTP API.
type Server struct {
	cfg   Config
	queue *jobQueue
	seq   atomic.Uint64

	mu       sync.Mutex
	jobs     map[string]*job
	draining bool
	// lookups deduplicates compute-on-miss: at most one live job per
	// result hash is enqueued by POST /v1/results/lookup, and concurrent
	// lookups for the same config share it (the HTTP-level singleflight
	// over the store's own). Entries are cleared on terminal transitions
	// and lazily replaced when a stale one is found.
	lookups map[string]*job

	// reads is the serving tier's byte-cache front over cfg.Store.
	reads *readCache

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	scanStop chan struct{}
	scanDone chan struct{}
	scanOnce sync.Once

	// transitions orders local job transitions against durable listings:
	// a scanner pass stamps itself before it lists the records, and
	// endRunLocked stamps each local transition, so a record read before
	// a job's last local transition is recognisably stale.
	transitions atomic.Uint64

	// dead simulates a SIGKILL for chaos tests: heartbeats stop, durable
	// state is never written, leases are left to expire.
	dead atomic.Bool

	// execute runs one job's experiment; tests substitute it to exercise
	// queueing and cancellation without driving the simulator.
	execute func(ctx context.Context, j *job) (any, error)
}

// New builds a Server and starts its worker pool and the scanner that
// adopts requeued work and reaps expired leases. It panics when cfg lacks
// its Store or Jobs.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		queue:    newJobQueue(cfg.QueueDepth),
		jobs:     map[string]*job{},
		lookups:  map[string]*job{},
		reads:    newReadCache(cfg.ReadCacheEntries),
		scanStop: make(chan struct{}),
		scanDone: make(chan struct{}),
	}
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
		j.mu.Lock()
		j.inQueue = false
		if j.state == StateQueued {
			// The durable record stays queued; only the local mirror notes
			// why this process dropped it.
			j.err = "server shutting down; job remains queued for other workers"
		}
		j.mu.Unlock()
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
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	Preset   string `json:"preset"`
	State    string `json:"state"`
	Priority int    `json:"priority"`
	Progress struct {
		Done  int64 `json:"done"`
		Total int64 `json:"total"`
	} `json:"progress"`
	Error    string   `json:"error,omitempty"`
	Attempt  int      `json:"attempt,omitempty"`
	Attempts []string `json:"attempt_errors,omitempty"`
	Worker   string   `json:"worker,omitempty"`
	// ResultHash is the content-address the finished result is (or will
	// be) served under at GET /v1/results/{hash}; known from submission.
	ResultHash string `json:"result_hash,omitempty"`
	CreatedAt  string `json:"created_at,omitempty"`
	StartedAt  string `json:"started_at,omitempty"`
	FinishedAt string `json:"finished_at,omitempty"`
}

func (j *job) status() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := jobStatus{
		ID: j.id, Kind: j.kind, Preset: j.preset,
		State: j.state, Priority: j.priority, Error: j.err,
		Attempt: j.attempt, Attempts: j.history, Worker: j.worker,
		ResultHash: j.resultKey,
	}
	st.Progress.Done = j.done.Load()
	st.Progress.Total = j.total.Load()
	stamp := func(t time.Time) string {
		if t.IsZero() {
			return ""
		}
		return t.UTC().Format(time.RFC3339Nano)
	}
	st.CreatedAt, st.StartedAt, st.FinishedAt = stamp(j.created), stamp(j.started), stamp(j.finished)
	return st
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
	switch req.Kind {
	case "", "comparison":
		req.Kind = "comparison"
	case "characterize", "fig3":
	default:
		return nil, fmt.Errorf("unknown kind %q (want comparison, characterize or fig3)", req.Kind)
	}
	if req.Preset == "" {
		req.Preset = "quick"
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
		state:     StateQueued,
		created:   time.Now(),
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

// enqueueJob registers a built job and pushes it onto the queue,
// durable-first (so any cluster worker can run it even if this process
// dies immediately). rawReq is the original request body the durable
// record persists. On failure the job is fully unregistered and the error
// maps to a 503.
func (s *Server) enqueueJob(j *job, rawReq []byte) error {
	if _, err := s.cfg.Jobs.Enqueue(j.id, rawReq, s.cfg.MaxAttempts); err != nil {
		return fmt.Errorf("persist job: %w", err)
	}
	s.mu.Lock()
	s.jobs[j.id] = j
	s.mu.Unlock()
	j.mu.Lock()
	j.inQueue = true
	j.mu.Unlock()
	if err := s.queue.push(j); err != nil {
		s.mu.Lock()
		delete(s.jobs, j.id)
		s.mu.Unlock()
		s.cfg.Jobs.Delete(j.id)
		return err
	}
	return nil
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
	j.created = rec.CreatedAt
	return j, nil
}

// syncFromRecord refreshes a local mirror from the durable record rec,
// read after the transition stamp listed was taken. Callers must not hold
// j.mu. Jobs this process is executing are authoritative locally and are
// left alone, and so are jobs whose last local transition is newer than
// the listing: rec predates it. Without that check a scanner pass that
// listed a job as queued, applied after this process finished the job,
// would turn the done job back into a queued one whose result is refused.
func syncFromRecord(j *job, rec *jobstore.Record, listed uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.localRun || j.settled > listed {
		return
	}
	j.state = rec.State
	j.attempt = rec.Attempt
	j.worker = rec.Worker
	j.err = rec.LastError()
	j.history = j.history[:0]
	for _, e := range rec.Errors {
		j.history = append(j.history, fmt.Sprintf("attempt %d (worker %s): %s", e.Attempt, e.Worker, e.Error))
	}
}

// endRunLocked ends j's local execution and stamps the transition (see
// syncFromRecord). j.mu must be held.
func (s *Server) endRunLocked(j *job) {
	j.localRun = false
	j.cancel = nil
	j.settled = s.transitions.Add(1)
}

// scanLoop is the durable-job scanner: on a jittered interval it adopts
// records this process has never seen, pushes due queued work into the
// local heap, and reaps running jobs whose workers stopped heartbeating.
// Every worker in the cluster runs one; the lease protocol makes their
// overlap safe.
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
	listed := s.transitions.Add(1)
	recs, err := s.cfg.Jobs.List()
	if err != nil {
		return // transient store trouble; next tick retries
	}
	s.applyRecords(recs, listed)
}

// applyRecords is the second half of a scanner pass: it brings the local
// mirrors up to date with records listed after the stamp listed.
func (s *Server) applyRecords(recs []*jobstore.Record, listed uint64) {
	now := s.cfg.Jobs.Now()
	for _, rec := range recs {
		s.mu.Lock()
		j := s.jobs[rec.ID]
		s.mu.Unlock()
		if j == nil {
			nj, err := s.buildJobFromRecord(rec)
			if err != nil {
				continue // malformed record; quarantined by inspection, not crash
			}
			s.mu.Lock()
			if exist := s.jobs[rec.ID]; exist != nil {
				j = exist
			} else {
				s.jobs[rec.ID] = nj
				j = nj
			}
			s.mu.Unlock()
		}

		switch rec.State {
		case jobstore.StateRunning:
			reaped, err := s.cfg.Jobs.ReapExpired(rec)
			if err != nil || !reaped {
				if err == nil {
					syncFromRecord(j, rec, listed)
				}
				continue
			}
			// rec now reflects the post-reap state (queued, or failed when
			// the dead worker burned the last attempt), written just now.
			s.cfg.Counters.JobRequeued()
			if rec.State == jobstore.StateFailed {
				s.cfg.Counters.JobQuarantined()
			}
			syncFromRecord(j, rec, s.transitions.Add(1))
			s.maybeEnqueueLocal(j, rec, now)
		case jobstore.StateQueued:
			syncFromRecord(j, rec, listed)
			s.maybeEnqueueLocal(j, rec, now)
		default:
			syncFromRecord(j, rec, listed)
		}
	}
}

// maybeEnqueueLocal pushes a due, queued, durable job into this worker's
// local heap (once).
func (s *Server) maybeEnqueueLocal(j *job, rec *jobstore.Record, now time.Time) {
	if rec.State != jobstore.StateQueued || now.Before(rec.NotBefore) {
		return
	}
	j.mu.Lock()
	if j.state != StateQueued || j.inQueue || j.localRun {
		j.mu.Unlock()
		return
	}
	j.inQueue = true
	j.mu.Unlock()
	if err := s.queue.push(j); err != nil {
		j.mu.Lock()
		j.inQueue = false
		j.mu.Unlock()
	}
}

// run executes one popped job through its full lifecycle: claim,
// heartbeat, per-attempt timeout, execution, and the terminal or retry
// transition.
func (s *Server) run(j *job) {
	j.mu.Lock()
	j.inQueue = false
	if j.state != StateQueued { // cancelled while waiting
		j.mu.Unlock()
		return
	}
	j.mu.Unlock()

	// The local heap is only a hint — the lease is the cluster-wide
	// mutual exclusion.
	lease, err := s.cfg.Jobs.Claim(j.id)
	if err != nil {
		// Held by another worker, canceled, or backoff-gated: the scanner
		// keeps the mirror fresh and re-enqueues when due.
		return
	}
	listed := s.transitions.Add(1)
	rec, err := s.cfg.Jobs.Get(j.id)
	if err != nil || (rec.State != jobstore.StateQueued && rec.State != jobstore.StateRunning) {
		if err == nil {
			syncFromRecord(j, rec, listed)
		}
		lease.Release()
		return
	}
	if err := s.cfg.Jobs.MarkRunning(lease, rec); err != nil {
		return
	}

	j.mu.Lock()
	jobCtx, jobCancel := context.WithCancel(s.baseCtx)
	if j.timeout > 0 {
		jobCtx, jobCancel = context.WithTimeout(s.baseCtx, j.timeout)
	}
	j.state = StateRunning
	j.localRun = true
	j.leaseLost = false
	j.cancelReason = ""
	j.attempt = rec.Attempt
	j.worker = s.cfg.Jobs.Worker()
	j.started = time.Now()
	j.cancel = jobCancel
	j.mu.Unlock()
	defer jobCancel()

	// Heartbeat: renew the lease at TTL/3 so the job survives long
	// executions; a failed renewal means we lost the job to a reaper —
	// cancel the attempt and write nothing durable (fencing).
	hbStop, hbDone := make(chan struct{}), make(chan struct{})
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
					j.mu.Lock()
					j.leaseLost = true
					j.mu.Unlock()
					jobCancel()
					return
				}
				// Cross-node cancel: a client's DELETE on any worker leaves
				// a durable flag only the leaseholder can honor.
				if reason, ok := s.cfg.Jobs.CancelRequested(j.id); ok {
					j.mu.Lock()
					j.cancelReason = reason
					j.mu.Unlock()
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

	if s.dead.Load() {
		// Chaos-test SIGKILL: the process is "gone" — no durable writes,
		// no lease release; the lease expires and another worker reaps.
		return
	}

	j.mu.Lock()
	leaseLost := j.leaseLost
	j.mu.Unlock()

	switch {
	case leaseLost:
		// Another worker reaped our lease (e.g. a long GC pause or a
		// store stall starved the heartbeat); it owns the job now. Drop
		// back to a passive mirror — the scanner reports the new owner's
		// progress.
		j.mu.Lock()
		s.endRunLocked(j)
		j.state = StateQueued
		j.err = "lease lost; job taken over by another worker"
		j.mu.Unlock()

	case err == nil:
		s.finishDone(j, lease, rec, raw)

	case jobCtx.Err() != nil:
		s.finishCanceled(j, lease, rec, err)

	default:
		// Failed attempt (including a per-attempt timeout): retry with
		// backoff until MaxAttempts, then quarantine.
		s.finishFailedAttempt(j, lease, rec, err)
	}
}

// finishDone writes the job's successful terminal state, durably first.
// The canonical result bytes are (a) written to the durable job record,
// (b) published to the run store and readcache under the job's
// content-address, and (c) kept as the job's raw result — so the job
// endpoint and the read path serve byte-identical payloads.
func (s *Server) finishDone(j *job, lease *jobstore.Lease, rec *jobstore.Record, raw []byte) {
	if err := s.cfg.Jobs.Complete(lease, rec, raw); errors.Is(err, jobstore.ErrLeaseLost) {
		j.mu.Lock()
		s.endRunLocked(j)
		j.state = StateQueued
		j.err = "lease lost at completion; job taken over by another worker"
		j.mu.Unlock()
		return
	}
	// Any other durable-write failure is absorbed: the computed result is
	// still served from this process. So is a failed store write (full
	// disk, open breaker): the readcache still serves it.
	s.cfg.Store.Put(j.resultKey, raw)
	s.reads.put(j.resultKey, raw)
	j.mu.Lock()
	j.finished = time.Now()
	s.endRunLocked(j)
	j.state = StateDone
	j.err = ""
	j.resultRaw = raw
	j.mu.Unlock()
	s.clearLookup(j)
}

// finishCanceled handles a job whose context ended: client cancellation,
// the job-level timeout, or a forced shutdown. A forced shutdown requeues
// the job so surviving workers finish it instead.
func (s *Server) finishCanceled(j *job, lease *jobstore.Lease, rec *jobstore.Record, err error) {
	if s.baseCtx.Err() != nil {
		// Forced drain: hand the in-flight job back to the cluster.
		s.cfg.Jobs.Requeue(lease, rec)
		j.mu.Lock()
		j.finished = time.Now()
		s.endRunLocked(j)
		j.state = StateCanceled
		j.err = "server shutting down; job requeued for surviving workers"
		j.mu.Unlock()
		s.clearLookup(j)
		return
	}
	reason := err.Error()
	j.mu.Lock()
	if j.cancelReason != "" {
		reason = j.cancelReason
	}
	j.mu.Unlock()
	s.cfg.Jobs.CancelUnderLease(lease, rec, reason)
	j.mu.Lock()
	j.finished = time.Now()
	s.endRunLocked(j)
	j.state = StateCanceled
	j.err = reason
	j.mu.Unlock()
	s.clearLookup(j)
}

// clearLookup drops j's compute-on-miss dedup entry once it is terminal,
// so a later lookup for the same config can enqueue a fresh job.
func (s *Server) clearLookup(j *job) {
	if j.resultKey == "" {
		return
	}
	s.mu.Lock()
	if s.lookups[j.resultKey] == j {
		delete(s.lookups, j.resultKey)
	}
	s.mu.Unlock()
}

// finishFailedAttempt charges one failed attempt: requeue with backoff
// below MaxAttempts, quarantine at the limit.
func (s *Server) finishFailedAttempt(j *job, lease *jobstore.Lease, rec *jobstore.Record, execErr error) {
	j.mu.Lock()
	j.history = append(j.history, fmt.Sprintf("attempt %d (worker %s): %s", j.attempt, j.worker, execErr.Error()))
	j.mu.Unlock()

	retried, err := s.cfg.Jobs.Fail(lease, rec, execErr.Error())
	if errors.Is(err, jobstore.ErrLeaseLost) {
		j.mu.Lock()
		s.endRunLocked(j)
		j.state = StateQueued
		j.mu.Unlock()
		return
	}
	if retried {
		s.cfg.Counters.JobRetried()
		j.mu.Lock()
		s.endRunLocked(j)
		j.state = StateQueued
		j.err = execErr.Error()
		j.mu.Unlock()
		// The scanner (ours or any peer's) re-enqueues once NotBefore
		// passes.
		return
	}
	s.cfg.Counters.JobQuarantined()
	j.mu.Lock()
	j.finished = time.Now()
	s.endRunLocked(j)
	j.state = StateFailed
	j.err = execErr.Error()
	j.mu.Unlock()
	s.clearLookup(j)
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
