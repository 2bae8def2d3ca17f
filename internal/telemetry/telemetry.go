// Package telemetry is the framework's structured observability layer:
// per-epoch decision events streamed from the controller, aggregate
// counters for long-running daemons, and the sinks that carry both.
//
// The paper's central evidence is per-epoch behaviour — the Fig. 5
// detection flow, the sampling-interval search, and the <0.1%
// controller-overhead claim — so the controller emits one Event per
// execution+profiling epoch describing exactly what it saw (the Agg set,
// the friendliness split), what it chose (the prefetch combination, the
// CAT masks), and what the choice cost (execution vs profiling cycles).
//
// Design constraints:
//
//   - Observation must never perturb the experiment: sinks only read the
//     machine state the controller already computed, so enabling telemetry
//     leaves every simulated cycle — and therefore every figure — bit
//     identical (enforced by the experiments package's equivalence test).
//   - Emit is called on the controller's hot path and from many experiment
//     workers at once, so every Sink shipped here is safe for concurrent
//     use and cheap: JSONLSink holds a buffered writer behind a mutex,
//     Counters is a handful of atomics, and AsyncSink never blocks the
//     caller (it drops under backpressure and counts the drops).
package telemetry

import (
	"bufio"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Event types.
const (
	// TypeEpoch marks one controller execution+profiling epoch.
	TypeEpoch = "epoch"
	// TypeSolo marks one solo characterisation run (alone-IPC, Figs. 1-3).
	TypeSolo = "solo"
	// TypeStore marks one run-store lookup by the experiment engine; Hit
	// distinguishes a served cache entry from a simulated miss.
	TypeStore = "store"
)

// Event is one telemetry record. Epoch events carry the controller's
// decision for one epoch; solo events record a single-benchmark
// characterisation run. Slices are owned by the event: emitters hand over
// copies, so sinks may retain them.
type Event struct {
	// Type is TypeEpoch or TypeSolo.
	Type string `json:"type"`

	// Mix and Seed identify the experiment run the event belongs to
	// (stamped by WithRun; empty for a bare controller).
	Mix  string `json:"mix,omitempty"`
	Seed int64  `json:"seed,omitempty"`

	// Policy is the back end that produced an epoch decision.
	Policy string `json:"policy,omitempty"`
	// Epoch is the decision's index within its controller, from 0.
	Epoch int `json:"epoch"`
	// Agg is the detected prefetch-aggressive core set, ascending.
	Agg []int `json:"agg,omitempty"`
	// Friendly and Unfriendly split Agg by measured prefetch usefulness
	// (present only when the policy sampled the split).
	Friendly   []int `json:"friendly,omitempty"`
	Unfriendly []int `json:"unfriendly,omitempty"`
	// Throttled lists cores whose prefetchers are off for the next
	// execution epoch — the chosen PT combination.
	Throttled []int `json:"throttled,omitempty"`
	// PartitionMasks maps core index to the programmed CAT way mask
	// (absent when the epoch left partitioning untouched).
	PartitionMasks []uint64 `json:"partition_masks,omitempty"`
	// SampledCombos is how many sampling intervals the profiling phase
	// spent; BestHMIPC is the hm_ipc score of the chosen combination.
	SampledCombos int     `json:"sampled_combos,omitempty"`
	BestHMIPC     float64 `json:"best_hm_ipc,omitempty"`
	// FellBackToDunn reports the empty-Agg fallback (Fig. 6(d)).
	FellBackToDunn bool `json:"fell_back_to_dunn,omitempty"`
	// ThrottleFlip and PartitionChange report that this epoch's throttle
	// set / partition plan differs from the previous epoch's.
	ThrottleFlip    bool `json:"throttle_flip,omitempty"`
	PartitionChange bool `json:"partition_change,omitempty"`
	// ExecCycles and ProfCycles split the epoch's machine time between
	// the execution epoch and the policy's profiling (sampling
	// intervals) — the per-epoch form of the paper's overhead claim.
	ExecCycles uint64 `json:"exec_cycles,omitempty"`
	ProfCycles uint64 `json:"prof_cycles,omitempty"`
	// MBAThrottled/MBAPercent mirror the CBP policies' bandwidth decision.
	MBAThrottled []int  `json:"mba_throttled,omitempty"`
	MBAPercent   uint64 `json:"mba_percent,omitempty"`
	// MBALevels maps core index to the programmed MBA delay level (absent
	// when the epoch left bandwidth partitioning untouched); MBAChange
	// reports that the vector differs from the previous epoch's.
	MBALevels []uint64 `json:"mba_levels,omitempty"`
	MBAChange bool     `json:"mba_change,omitempty"`

	// Per-core feature vectors of the epoch's detection probe (one value
	// per core, indexed by core id): the Table-I metrics PGA (M-4), L2 PMR
	// (M-5), L2 PTR (M-3, req/s), LLC PT (M-7 as misses/s), plus IPC, LLC
	// demand MPKI, the STALLS_L2_PENDING cycle share, and the total
	// LLC→memory request rate. Together with Throttled they make every
	// epoch event a labeled training example for internal/learn — the
	// dataset boundary is pinned by that package's golden-file test.
	PGA        []float64 `json:"pga,omitempty"`
	L2PMR      []float64 `json:"l2_pmr,omitempty"`
	L2PTR      []float64 `json:"l2_ptr,omitempty"`
	LLCPT      []float64 `json:"llc_pt,omitempty"`
	CoreIPC    []float64 `json:"core_ipc,omitempty"`
	MPKI       []float64 `json:"mpki,omitempty"`
	StallRatio []float64 `json:"stall_ratio,omitempty"`
	MemTraffic []float64 `json:"mem_traffic,omitempty"`

	// Predicted marks an epoch whose throttle decision came from a loaded
	// model (CMM-L) instead of combo sampling; PredConfidence is the
	// model's confidence in that decision (min over the cores it judged).
	// LearnFallback marks an epoch where a model was consulted but fell
	// below its confidence threshold, so the policy ran the sampling path
	// — those events carry sampled ground-truth labels and are the online
	// training-data collection loop.
	Predicted      bool    `json:"predicted,omitempty"`
	PredConfidence float64 `json:"pred_confidence,omitempty"`
	LearnFallback  bool    `json:"learn_fallback,omitempty"`

	// ShadowAudit marks a drift-monitor audit epoch: a confident
	// prediction checked by running the full sampling path anyway.
	// LearnDemoted marks the single epoch whose drift observation
	// auto-demoted the learned policy back to pure CMM-a.
	ShadowAudit  bool `json:"shadow_audit,omitempty"`
	LearnDemoted bool `json:"learn_demoted,omitempty"`

	// CoreNode maps each core to its NUMA node and NodeAgg counts the
	// epoch's Agg cores per node; both are empty on single-node machines,
	// so single-socket event streams are unchanged.
	CoreNode []int `json:"core_node,omitempty"`
	NodeAgg  []int `json:"node_agg,omitempty"`

	// Benchmark and IPC describe a solo run (Type == TypeSolo); the
	// run's measurement window length rides in ExecCycles.
	Benchmark string  `json:"benchmark,omitempty"`
	IPC       float64 `json:"ipc,omitempty"`

	// Hit reports a run-store cache hit (Type == TypeStore): true means
	// the result was served without simulating; false means the lookup
	// missed and the run was computed.
	Hit bool `json:"hit,omitempty"`
}

// Sink consumes telemetry events. Implementations must be safe for
// concurrent use and must not block the caller for long: Emit runs on the
// controller's epoch path and inside experiment worker goroutines.
// A nil sink check at the emission site is the only cost when telemetry
// is disabled.
type Sink interface {
	Emit(Event)
}

// NopSink discards every event; the zero value is ready to use.
type NopSink struct{}

// Emit implements Sink.
func (NopSink) Emit(Event) {}

// JSONLSink writes one JSON object per line. It is safe for concurrent
// use; writes are buffered, so Close (or Flush) must be called to see the
// tail of the stream. Write errors are sticky: the first one is kept and
// returned by Flush/Close, and later events are dropped.
type JSONLSink struct {
	mu  sync.Mutex
	buf *bufio.Writer
	dst io.Writer
	err error
}

// NewJSONLSink wraps w in a line-oriented JSON sink.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{buf: bufio.NewWriter(w), dst: w}
}

// Emit implements Sink.
func (s *JSONLSink) Emit(e Event) {
	data, err := json.Marshal(e)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if err != nil {
		s.err = err
		return
	}
	data = append(data, '\n')
	if _, err := s.buf.Write(data); err != nil {
		s.err = err
	}
}

// Flush drains the buffer and returns the first write error, if any.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = s.buf.Flush()
	}
	return s.err
}

// Close flushes and closes the underlying writer when it is an io.Closer.
func (s *JSONLSink) Close() error {
	err := s.Flush()
	if c, ok := s.dst.(io.Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// AsyncSink decouples emitters from a slow destination through a bounded
// queue: Emit never blocks — when the queue is full the event is dropped
// and counted. A single background goroutine forwards to dst, so dst's
// Emit needs no additional locking beyond its own.
type AsyncSink struct {
	ch      chan Event
	done    chan struct{}
	dropped atomic.Int64
	once    sync.Once
}

// NewAsyncSink starts the forwarding goroutine with the given queue
// capacity (minimum 1).
func NewAsyncSink(dst Sink, buffer int) *AsyncSink {
	if buffer < 1 {
		buffer = 1
	}
	s := &AsyncSink{ch: make(chan Event, buffer), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for e := range s.ch {
			dst.Emit(e)
		}
	}()
	return s
}

// Emit implements Sink; it never blocks.
func (s *AsyncSink) Emit(e Event) {
	select {
	case s.ch <- e:
	default:
		s.dropped.Add(1)
	}
}

// Dropped reports how many events were discarded under backpressure.
func (s *AsyncSink) Dropped() int64 { return s.dropped.Load() }

// Close drains queued events into the destination and stops the
// forwarder. Emit must not be called after Close.
func (s *AsyncSink) Close() error {
	s.once.Do(func() { close(s.ch) })
	<-s.done
	return nil
}

// multi fans one event out to several sinks, in order.
type multi []Sink

func (m multi) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// Multi combines sinks into one; nil entries are skipped. It returns nil
// when nothing remains, a lone sink unwrapped, and a fan-out otherwise.
func Multi(sinks ...Sink) Sink {
	var out multi
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}

// runSink stamps experiment-run identity onto every event.
type runSink struct {
	dst  Sink
	mix  string
	seed int64
}

func (s runSink) Emit(e Event) {
	e.Mix, e.Seed = s.mix, s.seed
	s.dst.Emit(e)
}

// WithRun wraps a sink so every event carries the (mix, seed) identity of
// the experiment run emitting it — required when many runs share one
// stream, as in RunComparison's worker pool.
func WithRun(dst Sink, mix string, seed int64) Sink {
	return runSink{dst: dst, mix: mix, seed: seed}
}

// Counters aggregates the event stream into the handful of totals a
// long-running daemon exports: epochs run, epochs with a non-empty Agg
// set, throttle flips, partition changes, cycles spent in sampling
// intervals, and solo characterisation runs. The zero value is ready to
// use; all methods are safe for concurrent use.
type Counters struct {
	epochs            atomic.Int64
	detections        atomic.Int64
	throttleFlips     atomic.Int64
	partitionChanges  atomic.Int64
	mbaChanges        atomic.Int64
	samplingCycles    atomic.Uint64
	samplingIntervals atomic.Int64
	learnPredictions  atomic.Int64
	learnFallbacks    atomic.Int64
	learnShadowAudits atomic.Int64
	learnDemotions    atomic.Int64
	soloRuns          atomic.Int64
	storeHits         atomic.Int64
	storeMisses       atomic.Int64

	// Model-lifecycle counters, bumped directly by the serving tier's
	// model manager (they have no epoch-event form): successful hot
	// reloads, reload attempts rejected by a corrupt or missing model
	// (the old model kept serving), and operator rollbacks.
	modelReloads      atomic.Int64
	modelReloadErrors atomic.Int64
	modelRollbacks    atomic.Int64

	// Job-lifecycle counters, bumped directly by the job server (they
	// have no epoch-event form): attempts retried after a failure, jobs
	// requeued from dead workers' expired leases, jobs quarantined after
	// exhausting their attempt budget, and jobs finished from a result
	// already in the run store without executing.
	jobsRetried           atomic.Int64
	jobsRequeued          atomic.Int64
	jobsQuarantined       atomic.Int64
	jobsAnsweredFromStore atomic.Int64

	// Read-path serving-tier counters, bumped directly by the results
	// handlers: memoized results served from the run store, lookups
	// that found nothing cached, and conditional requests answered 304.
	readHits        atomic.Int64
	readMisses      atomic.Int64
	readNotModified atomic.Int64
}

// ReadHit records one read-path request served from the memoized corpus.
func (c *Counters) ReadHit() { c.readHits.Add(1) }

// ReadMiss records one read-path request that found no cached result.
func (c *Counters) ReadMiss() { c.readMisses.Add(1) }

// ReadNotModified records one conditional read answered 304 (the hit is
// counted separately by ReadHit; this tracks bytes saved on the wire).
func (c *Counters) ReadNotModified() { c.readNotModified.Add(1) }

// JobRetried records one failed attempt that was requeued for retry.
func (c *Counters) JobRetried() { c.jobsRetried.Add(1) }

// JobRequeued records one job reclaimed from a dead worker's expired
// lease and returned to the queue.
func (c *Counters) JobRequeued() { c.jobsRequeued.Add(1) }

// JobQuarantined records one job that exhausted MaxAttempts and was
// parked in the terminal failed state.
func (c *Counters) JobQuarantined() { c.jobsQuarantined.Add(1) }

// JobAnsweredFromStore records one claimed job finished from the result
// the run store already held under its result hash, without executing.
func (c *Counters) JobAnsweredFromStore() { c.jobsAnsweredFromStore.Add(1) }

// ModelReloaded records one successful hot swap of the served model.
func (c *Counters) ModelReloaded() { c.modelReloads.Add(1) }

// ModelReloadError records one reload attempt that failed (corrupt or
// mid-write model file); the previous model kept serving.
func (c *Counters) ModelReloadError() { c.modelReloadErrors.Add(1) }

// ModelRollback records one operator-initiated model rollback.
func (c *Counters) ModelRollback() { c.modelRollbacks.Add(1) }

// Emit implements Sink.
func (c *Counters) Emit(e Event) {
	switch e.Type {
	case TypeEpoch:
		c.epochs.Add(1)
		if len(e.Agg) > 0 {
			c.detections.Add(1)
		}
		if e.ThrottleFlip {
			c.throttleFlips.Add(1)
		}
		if e.PartitionChange {
			c.partitionChanges.Add(1)
		}
		if e.MBAChange {
			c.mbaChanges.Add(1)
		}
		if e.Predicted {
			c.learnPredictions.Add(1)
		}
		if e.LearnFallback {
			c.learnFallbacks.Add(1)
		}
		if e.ShadowAudit {
			c.learnShadowAudits.Add(1)
		}
		if e.LearnDemoted {
			c.learnDemotions.Add(1)
		}
		c.samplingCycles.Add(e.ProfCycles)
		c.samplingIntervals.Add(int64(e.SampledCombos))
	case TypeSolo:
		c.soloRuns.Add(1)
	case TypeStore:
		if e.Hit {
			c.storeHits.Add(1)
		} else {
			c.storeMisses.Add(1)
		}
	}
}

// counterTable lists every counter once, by exposition name (sorted, so
// WriteMetrics prints in name order); Snapshot, WriteMetrics and
// PublishExpvar all derive from it.
var counterTable = [...]struct {
	name string
	load func(*Counters) uint64
}{
	{"detections_total", func(c *Counters) uint64 { return uint64(c.detections.Load()) }},
	{"epochs_total", func(c *Counters) uint64 { return uint64(c.epochs.Load()) }},
	{"jobs_answered_from_store_total", func(c *Counters) uint64 { return uint64(c.jobsAnsweredFromStore.Load()) }},
	{"jobs_quarantined_total", func(c *Counters) uint64 { return uint64(c.jobsQuarantined.Load()) }},
	{"jobs_requeued_total", func(c *Counters) uint64 { return uint64(c.jobsRequeued.Load()) }},
	{"jobs_retried_total", func(c *Counters) uint64 { return uint64(c.jobsRetried.Load()) }},
	{"learn_demotions_total", func(c *Counters) uint64 { return uint64(c.learnDemotions.Load()) }},
	{"learn_fallbacks_total", func(c *Counters) uint64 { return uint64(c.learnFallbacks.Load()) }},
	{"learn_predictions_total", func(c *Counters) uint64 { return uint64(c.learnPredictions.Load()) }},
	{"learn_shadow_audits_total", func(c *Counters) uint64 { return uint64(c.learnShadowAudits.Load()) }},
	{"mba_changes_total", func(c *Counters) uint64 { return uint64(c.mbaChanges.Load()) }},
	{"model_reload_errors_total", func(c *Counters) uint64 { return uint64(c.modelReloadErrors.Load()) }},
	{"model_reloads_total", func(c *Counters) uint64 { return uint64(c.modelReloads.Load()) }},
	{"model_rollbacks_total", func(c *Counters) uint64 { return uint64(c.modelRollbacks.Load()) }},
	{"partition_changes_total", func(c *Counters) uint64 { return uint64(c.partitionChanges.Load()) }},
	{"read_hits_total", func(c *Counters) uint64 { return uint64(c.readHits.Load()) }},
	{"read_misses_total", func(c *Counters) uint64 { return uint64(c.readMisses.Load()) }},
	{"read_not_modified_total", func(c *Counters) uint64 { return uint64(c.readNotModified.Load()) }},
	{"sampling_cycles_total", func(c *Counters) uint64 { return c.samplingCycles.Load() }},
	{"sampling_intervals_total", func(c *Counters) uint64 { return uint64(c.samplingIntervals.Load()) }},
	{"solo_runs_total", func(c *Counters) uint64 { return uint64(c.soloRuns.Load()) }},
	{"store_hits_total", func(c *Counters) uint64 { return uint64(c.storeHits.Load()) }},
	{"store_misses_total", func(c *Counters) uint64 { return uint64(c.storeMisses.Load()) }},
	{"throttle_flips_total", func(c *Counters) uint64 { return uint64(c.throttleFlips.Load()) }},
}

// Snapshot returns the current totals keyed by metric name (the same
// names WriteMetrics prints, without the prefix).
func (c *Counters) Snapshot() map[string]uint64 {
	snap := make(map[string]uint64, len(counterTable))
	for _, m := range counterTable {
		snap[m.name] = m.load(c)
	}
	return snap
}

// WriteMetrics renders the counters in the plain-text exposition format
// (one "<prefix><name> <value>" line per counter, sorted by name) served
// by the /metrics endpoints of cmmd and cmmserve.
func (c *Counters) WriteMetrics(w io.Writer, prefix string) {
	for _, m := range counterTable {
		fmt.Fprintf(w, "%s%s %d\n", prefix, m.name, m.load(c))
	}
}

// PublishExpvar registers every counter with the expvar registry under
// prefix (e.g. "cmm_epochs_total"). expvar names are process-global and
// re-registration panics, so call this at most once per prefix per
// process — daemon startup, not library code.
func (c *Counters) PublishExpvar(prefix string) {
	for _, m := range counterTable {
		expvar.Publish(prefix+m.name, expvar.Func(func() any { return m.load(c) }))
	}
}
