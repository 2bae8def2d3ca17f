package server

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"cmm/internal/learn"
)

// retryAfterSeconds is the hint sent with 503 rejections: full queues
// drain on job-completion timescales, so a short client pause is right.
const retryAfterSeconds = "5"

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs             submit a job (202 + status)
//	GET    /v1/jobs             list jobs, newest first
//	GET    /v1/jobs/{id}        job status and progress
//	GET    /v1/jobs/{id}/result finished result (JSON; ?format=csv for comparisons)
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/results/{hash}   memoized result by content hash (ETag/304,
//	                            ?format=csv, ?wait= to block for publication)
//	POST   /v1/results/lookup   config JSON -> canonical store key; serves the
//	                            cached result or enqueues the compute (?wait=)
//	GET    /v1/model            served CMM-L model: fingerprint, age, drift
//	                            stats, demoted flag (404 without -model-dir)
//	POST   /v1/model/rollback   revert to the previous promoted model
//	GET    /metrics             counters + store/queue/lease gauges, text exposition
//	GET    /healthz             liveness ("ok", or 503 "draining" during shutdown)
//
// The results endpoints keep serving cached entries while the server is
// draining; only compute-on-miss is refused then.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/results/{hash}", s.handleGetResult)
	mux.HandleFunc("POST /v1/results/lookup", s.handleLookup)
	mux.HandleFunc("GET /v1/model", s.handleModel)
	mux.HandleFunc("POST /v1/model/rollback", s.handleModelRollback)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// handleHealthz distinguishes draining from healthy so load balancers
// stop routing to a worker that is shutting down while it finishes its
// running jobs.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// httpError is the uniform error body.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// httpUnavailable is httpError(503) plus a Retry-After hint so
// well-behaved clients back off instead of hammering a full queue or a
// draining worker.
func httpUnavailable(w http.ResponseWriter, format string, args ...any) {
	w.Header().Set("Retry-After", retryAfterSeconds)
	httpError(w, http.StatusServiceUnavailable, format, args...)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "read request: %v", err)
		return
	}
	var req jobRequest
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "parse request: %v", err)
		return
	}
	if s.Draining() {
		httpUnavailable(w, "server shutting down")
		return
	}
	j, err := s.buildJob(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The 202 reports the job as admitted: a worker may claim it the
	// moment it is queued, so the status is taken before it can.
	st := j.status()
	if err := s.enqueueJob(j, body); err != nil {
		httpUnavailable(w, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// readBody slurps a bounded request body (the durable store persists the
// raw submission, so it is needed as bytes, not just decoded).
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	lim := http.MaxBytesReader(w, r.Body, 1<<20)
	defer lim.Close()
	return io.ReadAll(lim)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	all := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		all = append(all, j)
	}
	s.mu.Unlock()
	sort.Slice(all, func(i, k int) bool { return all[i].seq > all[k].seq })
	out := make([]jobStatus, len(all))
	for i, j := range all {
		out[i] = j.status()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// jobFor resolves the {id} path component, writing 404 on a miss. It also
// adopts records created by other workers, so any cluster member can
// answer for any job.
func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		listed := s.transitions.Add(1)
		if rec, err := s.cfg.Jobs.Get(id); err == nil {
			if nj, err := s.buildJobFromRecord(rec); err == nil {
				s.mu.Lock()
				if exist := s.jobs[id]; exist != nil {
					j = exist
				} else {
					s.jobs[id] = nj
					j = nj
				}
				s.mu.Unlock()
				syncFromRecord(j, rec, listed)
			}
		}
	}
	if j == nil {
		httpError(w, http.StatusNotFound, "no job %q", id)
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	// Refresh the mirror for jobs another worker is driving.
	j.mu.Lock()
	local := j.localRun
	j.mu.Unlock()
	if !local {
		listed := s.transitions.Add(1)
		if rec, err := s.cfg.Jobs.Get(j.id); err == nil {
			syncFromRecord(j, rec, listed)
		}
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	state, raw := j.state, j.resultRaw
	j.mu.Unlock()

	// A job finished by another worker has no result bytes in memory;
	// fetch the durable bytes (and re-check state, which may have
	// advanced).
	if raw == nil {
		if b, err := s.cfg.Jobs.Result(j.id); err == nil {
			raw = b
			state = StateDone
			j.mu.Lock()
			j.resultRaw = b
			j.state = StateDone
			j.mu.Unlock()
		}
	}
	if state != StateDone {
		httpError(w, http.StatusConflict, "job %s is %s, result requires done", j.id, state)
		return
	}
	if raw == nil {
		httpError(w, http.StatusInternalServerError, "job %s has no result payload", j.id)
		return
	}
	// The bytes are the canonical rendering the read path also serves, so
	// both endpoints answer byte-identical payloads.
	s.serveResultBytes(w, r, j.resultKey, raw)
}

// writeComparisonCSV flattens a comparison to one row per (policy, mix).
func writeComparisonCSV(w http.ResponseWriter, res ComparisonResult) {
	cw := csv.NewWriter(w)
	cw.Write([]string{"policy", "mix", "category", "norm_hs", "norm_ws", "worst_case", "norm_bw", "norm_stalls", "worst_benchmark"})
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, p := range res.Policies {
		for i, r := range res.Results[p] {
			mix := MixInfo{}
			if i < len(res.Mixes) {
				mix = res.Mixes[i]
			}
			cw.Write([]string{p, mix.Name, mix.Category,
				f(r.NormHS), f(r.NormWS), f(r.WorstCase), f(r.NormBW), f(r.NormStalls), r.WorstBenchmark})
		}
	}
	cw.Flush()
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	state := j.state
	cancel := j.cancel
	j.mu.Unlock()
	switch state {
	case StateQueued:
		// Drop it from the local heap right away so it stops occupying
		// queue capacity and can never be popped.
		s.queue.remove(j)
		// Best-effort: if another worker claimed it in this window the
		// durable cancel is refused and that worker's run proceeds.
		s.cfg.Jobs.Cancel(j.id, "cancelled by client")
		j.mu.Lock()
		if j.state == StateQueued { // still ours to cancel
			j.state = StateCanceled
			j.err = "cancelled by client"
			j.inQueue = false
			j.finished = time.Now()
		}
		j.mu.Unlock()
	case StateRunning:
		// A local run observes its context error and finishes the state
		// transition itself. For a job running on another worker, the
		// durable cancel request below is the only lever: the owner's next
		// heartbeat observes the flag, aborts, and writes the terminal
		// canceled state under its lease.
		s.cfg.Jobs.RequestCancel(j.id, "cancelled by client")
		if cancel != nil {
			cancel()
		}
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleModel(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Models == nil {
		httpError(w, http.StatusNotFound, "no model registry configured on this worker")
		return
	}
	writeJSON(w, http.StatusOK, s.cfg.Models.Status())
}

func (s *Server) handleModelRollback(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Models == nil {
		httpError(w, http.StatusNotFound, "no model registry configured on this worker")
		return
	}
	fp, err := s.cfg.Models.Rollback()
	if err != nil {
		if errors.Is(err, learn.ErrNoModel) {
			httpError(w, http.StatusConflict, "nothing to roll back to: %v", err)
			return
		}
		httpError(w, http.StatusInternalServerError, "rollback: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"fingerprint": fp,
		"model":       s.cfg.Models.Status(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.cfg.Counters.WriteMetrics(w, "cmm_")
	states := map[string]int{}
	s.mu.Lock()
	for _, j := range s.jobs {
		j.mu.Lock()
		states[j.state]++
		j.mu.Unlock()
	}
	s.mu.Unlock()
	for _, st := range []string{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
		fmt.Fprintf(w, "cmm_jobs{state=%q} %d\n", st, states[st])
	}
	fmt.Fprintf(w, "cmm_queue_depth %d\n", s.queue.depth())
	fmt.Fprintf(w, "cmm_readcache_entries %d\n", s.reads.len())
	fmt.Fprintf(w, "cmm_readcache_hits_total %d\n", s.reads.hits.Load())
	fmt.Fprintf(w, "cmm_readcache_misses_total %d\n", s.reads.misses.Load())
	fmt.Fprintf(w, "cmm_readcache_evictions_total %d\n", s.reads.evictions.Load())
	if entries, bytes, err := s.cfg.Store.DiskUsage(); err == nil {
		fmt.Fprintf(w, "cmm_store_disk_entries %d\n", entries)
		fmt.Fprintf(w, "cmm_store_disk_bytes %d\n", bytes)
	}
	st := s.cfg.Store.Stats()
	fmt.Fprintf(w, "cmm_store_evictions_total %d\n", st.Evictions)
	open := 0
	if st.BreakerOpen {
		open = 1
	}
	fmt.Fprintf(w, "cmm_store_breaker_open %d\n", open)
	fmt.Fprintf(w, "cmm_store_breaker_trips_total %d\n", st.BreakerTrips)
	fmt.Fprintf(w, "cmm_store_breaker_skipped_total %d\n", st.BreakerSkipped)
	if s.cfg.Models != nil {
		st := s.cfg.Models.Status()
		loaded := 0
		if st.Loaded {
			loaded = 1
		}
		fmt.Fprintf(w, "cmm_model_loaded %d\n", loaded)
		fmt.Fprintf(w, "cmm_model_age_seconds %g\n", st.AgeSeconds)
		if st.Drift != nil {
			demoted := 0
			if st.Drift.Demoted {
				demoted = 1
			}
			fmt.Fprintf(w, "cmm_learn_drift_agreement %g\n", st.Drift.Agreement)
			fmt.Fprintf(w, "cmm_learn_drift_samples %d\n", st.Drift.Samples)
			fmt.Fprintf(w, "cmm_learn_demoted %d\n", demoted)
		}
	}
	if leases, err := s.cfg.Jobs.Leases(); err == nil {
		var oldest float64
		now := s.cfg.Jobs.Now()
		for _, l := range leases {
			if age := now.Sub(l.Granted).Seconds(); age > oldest {
				oldest = age
			}
		}
		fmt.Fprintf(w, "cmm_leases_active %d\n", len(leases))
		fmt.Fprintf(w, "cmm_lease_age_seconds_max %g\n", oldest)
	}
}
