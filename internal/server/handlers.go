package server

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"cmm/internal/jobstore"
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
	// The 202 reports the record as admitted, before any worker claims it.
	rec, err := s.enqueueJob(j, body)
	if err != nil {
		httpUnavailable(w, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, status(rec))
}

// readBody slurps a bounded request body (the durable store persists the
// raw submission, so it is needed as bytes, not just decoded).
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	lim := http.MaxBytesReader(w, r.Body, 1<<20)
	defer lim.Close()
	return io.ReadAll(lim)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	recs, err := s.cfg.Jobs.List()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	out := make([]jobStatus, len(recs))
	for i, rec := range recs {
		out[len(recs)-1-i] = status(rec) // List is oldest first
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// record loads job id's durable record, writing 404 on a miss.
func (s *Server) record(w http.ResponseWriter, id string) (*jobstore.Record, bool) {
	rec, err := s.cfg.Jobs.Get(id)
	if err != nil {
		httpError(w, http.StatusNotFound, "no job %q", id)
		return nil, false
	}
	return rec, true
}

// writeStatus answers for job id: a job running here from its run's own
// record plus the progress counters, any other from its durable record.
func (s *Server) writeStatus(w http.ResponseWriter, id string) {
	if j := s.localJob(id); j != nil {
		j.mu.Lock()
		run := j.running
		j.mu.Unlock()
		if run != nil {
			st := *run
			st.Progress = jobstore.Progress{Done: j.done.Load(), Total: j.total.Load()}
			writeJSON(w, http.StatusOK, st)
			return
		}
	}
	if rec, ok := s.record(w, id); ok {
		writeJSON(w, http.StatusOK, status(rec))
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.writeStatus(w, r.PathValue("id"))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.record(w, r.PathValue("id"))
	if !ok {
		return
	}
	if rec.State != StateDone {
		httpError(w, http.StatusConflict, "job %s is %s, result requires done", rec.ID, rec.State)
		return
	}
	// The bytes live only in the run store, under the hash the read path
	// also serves, so both endpoints answer byte-identical payloads. A
	// store bounded by age or size (or a memory-only one) may have dropped
	// them; the config recomputes them, mostly from stored runs.
	raw, ok := s.cfg.Store.Get(rec.ResultHash)
	if !ok {
		httpError(w, http.StatusGone,
			"result %s of job %s was evicted from the run store; POST the job's config to /v1/results/lookup to recompute it",
			rec.ResultHash, rec.ID)
		return
	}
	s.serveResultBytes(w, r, rec.ResultHash, raw)
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
	rec, ok := s.record(w, r.PathValue("id"))
	if !ok {
		return
	}
	switch rec.State {
	case StateQueued, StateRunning:
		// The durable cancel request is the only lever on the record: a
		// queued job no worker holds is canceled at once, under a lease;
		// a job a worker holds, here or on a peer, ends canceled at that
		// worker's next heartbeat.
		s.cfg.Jobs.RequestCancel(rec.ID, "cancelled by client")
		j := s.localJob(rec.ID)
		switch {
		case j == nil:
		case s.queue.remove(j):
			// Out of the local heap right away so it stops occupying
			// queue capacity. The scanner pushes it back only while its
			// record is still queued, and the claim then cancels it.
			s.dropLocal(j)
		default:
			// A local run observes its context error and finishes the
			// state transition itself.
			j.mu.Lock()
			cancel := j.cancel
			j.mu.Unlock()
			if cancel != nil {
				cancel()
			}
		}
	}
	s.writeStatus(w, rec.ID)
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
	// Job counts are as of the scanner's last pass.
	counts := s.counts.Load()
	for i, st := range jobStates {
		fmt.Fprintf(w, "cmm_jobs{state=%q} %d\n", st, counts[i])
	}
	fmt.Fprintf(w, "cmm_queue_depth %d\n", s.queue.depth())
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
