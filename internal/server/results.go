package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"cmm/internal/jobstore"
)

// maxResultWait caps ?wait= on the results endpoints so a stuck compute
// cannot pin an HTTP connection forever; longer waits should poll.
const maxResultWait = 2 * time.Minute

// resultPollInterval is how often a blocked results request re-checks
// the store for the published bytes. Publication happens at most once
// per job, so a short interval costs little and keeps wait latency low.
const resultPollInterval = 5 * time.Millisecond

// resultCacheControl marks results as immutable: they are addressed by
// the content hash of their inputs, so the bytes under a hash never
// change (schema bumps change the hash instead).
const resultCacheControl = "public, max-age=31536000, immutable"

// validResultHash reports whether h looks like a store key: 64 lowercase
// hex digits (SHA-256).
func validResultHash(h string) bool {
	if len(h) != 64 {
		return false
	}
	for i := 0; i < len(h); i++ {
		c := h[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// etagMatches reports whether an If-None-Match header value matches
// etag. Only the forms clients actually send are handled: "*", a single
// tag, or a comma-separated list of (possibly weak) tags.
func etagMatches(header, etag string) bool {
	for _, tag := range strings.Split(header, ",") {
		tag = strings.TrimSpace(tag)
		tag = strings.TrimPrefix(tag, "W/")
		if tag == "*" || tag == etag {
			return true
		}
	}
	return false
}

// serveResultBytes writes one memoized result with the read path's
// caching headers: a strong ETag derived from the content hash (plus a
// format marker for non-JSON renderings), an immutable Cache-Control,
// and If-None-Match short-circuiting to 304. body is the canonical JSON
// exactly as stored, so repeated requests are byte-identical.
func (s *Server) serveResultBytes(w http.ResponseWriter, r *http.Request, hash string, body []byte) {
	format := r.URL.Query().Get("format")
	etag := `"` + hash + `"`
	if format == "csv" {
		etag = `"` + hash + `-csv"`
	}
	h := w.Header()
	h.Set("ETag", etag)
	h.Set("Cache-Control", resultCacheControl)
	h.Set("X-Result-Hash", hash)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		s.cfg.Counters.ReadNotModified()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	if format == "csv" {
		var comp ComparisonResult
		if err := json.Unmarshal(body, &comp); err != nil || len(comp.Policies) == 0 {
			httpError(w, http.StatusBadRequest, "csv is only available for comparison results")
			return
		}
		h.Set("Content-Type", "text/csv; charset=utf-8")
		writeComparisonCSV(w, comp)
		return
	}
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// resultWait parses the ?wait= query parameter, capped at maxResultWait.
func resultWait(r *http.Request) (time.Duration, error) {
	raw := r.URL.Query().Get("wait")
	if raw == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return 0, fmt.Errorf("wait %q: %v", raw, err)
	}
	if d < 0 {
		return 0, fmt.Errorf("wait %q: negative", raw)
	}
	if d > maxResultWait {
		d = maxResultWait
	}
	return d, nil
}

// awaitResult polls the run store for key until the bytes appear,
// the deadline passes, the request is abandoned, or the optional job id
// driving the compute ends failed or canceled without publishing. It
// reports the bytes (ok) or that job's ended record (nil otherwise).
func (s *Server) awaitResult(r *http.Request, key string, wait time.Duration, id string) ([]byte, bool, *jobstore.Record) {
	deadline := time.Now().Add(wait)
	t := time.NewTicker(resultPollInterval)
	defer t.Stop()
	for {
		select {
		case <-r.Context().Done():
			return nil, false, nil
		case <-t.C:
		}
		if b, ok := s.cfg.Store.Get(key); ok {
			return b, true, nil
		}
		if id != "" {
			if rec, err := s.cfg.Jobs.Get(id); err == nil && (rec.State == StateFailed || rec.State == StateCanceled) {
				return nil, false, rec
			}
		}
		if !time.Now().Before(deadline) {
			return nil, false, nil
		}
	}
}

// lookupJobFor returns the compute-on-miss job id for a result hash, or
// "".
func (s *Server) lookupJobFor(key string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lookups[key]
}

// handleGetResult is GET /v1/results/{hash}: the sub-millisecond read
// path, answered by the run store: a warm request costs its LRU mutex, a
// cold one reads the disk body. The hash is not invertible, so a miss
// cannot trigger a compute here — 404 points the client at
// POST /v1/results/lookup, and ?wait= blocks for a result another
// request (or cluster worker) is already producing.
func (s *Server) handleGetResult(w http.ResponseWriter, r *http.Request) {
	hash := strings.ToLower(r.PathValue("hash"))
	if !validResultHash(hash) {
		httpError(w, http.StatusBadRequest, "malformed result hash %q (want 64 hex digits)", r.PathValue("hash"))
		return
	}
	wait, err := resultWait(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if b, ok := s.cfg.Store.Get(hash); ok {
		s.cfg.Counters.ReadHit()
		s.serveResultBytes(w, r, hash, b)
		return
	}
	s.cfg.Counters.ReadMiss()
	if wait > 0 {
		b, ok, ended := s.awaitResult(r, hash, wait, s.lookupJobFor(hash))
		if ok {
			s.serveResultBytes(w, r, hash, b)
			return
		}
		if ended != nil {
			httpError(w, http.StatusBadGateway, "compute for result %s ended %s without publishing", hash, ended.State)
			return
		}
	}
	if id := s.lookupJobFor(hash); id != "" {
		if rec, err := s.cfg.Jobs.Get(id); err == nil {
			writeJSON(w, http.StatusAccepted, map[string]any{"result_hash": hash, "job": status(rec)})
			return
		}
	}
	httpError(w, http.StatusNotFound,
		"no result %s; POST the config to /v1/results/lookup to compute it", hash)
}

// handleLookup is POST /v1/results/lookup: the request body is a job
// config (the POST /v1/jobs schema), canonicalized server-side to its
// content hash. A cached result is served immediately — including while
// draining, since reads stay safe during shutdown. On a miss the config
// is enqueued as a regular job, deduplicated per hash (HTTP-level
// singleflight), and ?wait= optionally blocks for publication; without
// it the response is 202 with the hash and job status to poll.
func (s *Server) handleLookup(w http.ResponseWriter, r *http.Request) {
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
	wait, err := resultWait(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j, err := s.buildJob(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := j.resultKey
	if b, ok := s.cfg.Store.Get(key); ok {
		s.cfg.Counters.ReadHit()
		s.serveResultBytes(w, r, key, b)
		return
	}
	s.cfg.Counters.ReadMiss()
	if s.Draining() {
		httpUnavailable(w, "server shutting down; result %s is not cached and compute is refused while draining", key)
		return
	}
	rec, err := s.ensureLookupJob(j, body)
	if err != nil {
		httpUnavailable(w, "%v", err)
		return
	}
	if wait > 0 {
		b, ok, ended := s.awaitResult(r, key, wait, rec.ID)
		if ok {
			s.serveResultBytes(w, r, key, b)
			return
		}
		if ended != nil {
			httpError(w, http.StatusBadGateway, "compute for result %s ended %s: %s", key, ended.State, ended.LastError())
			return
		}
		if fresh, err := s.cfg.Jobs.Get(rec.ID); err == nil {
			rec = fresh
		}
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"result_hash": key, "job": status(rec)})
}

// ensureLookupJob is the compute-on-miss singleflight: at most one live
// job per result hash. If the record of the job already covering the hash
// is queued or running it is shared; otherwise j is enqueued. It returns
// the record of the job the caller should follow.
func (s *Server) ensureLookupJob(j *job, rawReq []byte) (*jobstore.Record, error) {
	s.lookupMu.Lock()
	defer s.lookupMu.Unlock()
	if id := s.lookupJobFor(j.resultKey); id != "" {
		if rec, err := s.cfg.Jobs.Get(id); err == nil && (rec.State == StateQueued || rec.State == StateRunning) {
			return rec, nil
		}
	}
	// The entry goes in before the job can finish and clear it.
	s.mu.Lock()
	s.lookups[j.resultKey] = j.id
	s.mu.Unlock()
	rec, err := s.enqueueJob(j, rawReq)
	if err != nil {
		s.clearLookup(j)
		return nil, err
	}
	return rec, nil
}
