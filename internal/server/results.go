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

// lookupID is the id of the compute-on-miss job for a result hash. One
// id per hash makes the job's record the cluster-wide singleflight: every
// worker that shares the jobs directory reads the same record.
func lookupID(key string) string { return "lookup-" + key }

// liveLookup returns the record of the compute-on-miss job for key while
// it is in flight (queued or running), and nil otherwise.
func (s *Server) liveLookup(key string) *jobstore.Record {
	rec, err := s.cfg.Jobs.Get(lookupID(key))
	if err != nil || (rec.State != StateQueued && rec.State != StateRunning) {
		return nil
	}
	return rec
}

// awaitResult polls the run store for key until the bytes appear, the
// deadline passes, or the request is abandoned. With follow it also
// watches key's compute-on-miss record and stops when that ends failed or
// canceled. It reports the bytes (ok) or the ended record (nil
// otherwise).
func (s *Server) awaitResult(r *http.Request, key string, wait time.Duration, follow bool) ([]byte, bool, *jobstore.Record) {
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
		if follow {
			if rec, err := s.cfg.Jobs.Get(lookupID(key)); err == nil && (rec.State == StateFailed || rec.State == StateCanceled) {
				return nil, false, rec
			}
		}
		if !time.Now().Before(deadline) {
			return nil, false, nil
		}
	}
}

// answerMiss answers a read of a result the store lacks. live is key's
// compute-on-miss record if it was in flight before any wait, else nil.
// A wait blocks for the bytes, following live only, so a compute that had
// already ended is not mistaken for this one; it answers 502 if live ends
// failed or canceled. Without the bytes the answer is 202 with the record
// of a compute in flight (live, or the record read after the wait), or
// 404.
func (s *Server) answerMiss(w http.ResponseWriter, r *http.Request, key string, wait time.Duration, live *jobstore.Record) {
	if wait > 0 {
		b, ok, ended := s.awaitResult(r, key, wait, live != nil)
		if ok {
			s.serveResultBytes(w, r, key, b)
			return
		}
		if ended != nil {
			httpError(w, http.StatusBadGateway, "compute for result %s ended %s: %s", key, ended.State, ended.LastError())
			return
		}
		live = s.liveLookup(key)
	}
	if live != nil {
		writeJSON(w, http.StatusAccepted, map[string]any{"result_hash": key, "job": status(live)})
		return
	}
	httpError(w, http.StatusNotFound,
		"no result %s; POST the config to /v1/results/lookup to compute it", key)
}

// handleGetResult is GET /v1/results/{hash}: the sub-millisecond read
// path, answered by the run store: a warm request costs its LRU mutex, a
// cold one reads the disk body. The hash is not invertible, so a miss
// cannot trigger a compute here — 404 points the client at
// POST /v1/results/lookup, and ?wait= blocks for a result a lookup on any
// cluster worker is already computing. Only a wait reads the lookup's
// record: probing the jobs directory for every unknown hash doubled the
// read p99 of perfbench's service-mix on 2 vCPUs, so a plain miss stays
// off the disk.
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
	var live *jobstore.Record
	if wait > 0 {
		live = s.liveLookup(hash)
	}
	s.answerMiss(w, r, hash, wait, live)
}

// handleLookup is POST /v1/results/lookup: the request body is a job
// config (the POST /v1/jobs schema), canonicalized server-side to its
// content hash. A cached result is served immediately — including while
// draining, since reads stay safe during shutdown. On a miss the config
// is enqueued as job lookup-<hash>, shared by every lookup of the hash
// while it is in flight, and ?wait= optionally blocks for publication;
// without it the response is 202 with the hash and job status to poll.
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
	s.answerMiss(w, r, key, wait, rec)
}

// ensureLookupJob is the compute-on-miss singleflight: at most one live
// job per result hash, under the id lookup-<hash>. A record in flight is
// shared; otherwise j is enqueued under that id, overwriting any ended
// record with a fresh generation (attempt 0). Two workers may both find
// no live record and both enqueue: the lease still lets one execute, and
// a record rewritten after the result was stored is answered from the
// store at claim. It returns the record the caller should follow.
func (s *Server) ensureLookupJob(j *job, rawReq []byte) (*jobstore.Record, error) {
	s.lookupMu.Lock()
	defer s.lookupMu.Unlock()
	if rec := s.liveLookup(j.resultKey); rec != nil {
		return rec, nil
	}
	j.id = lookupID(j.resultKey)
	return s.enqueueJob(j, rawReq)
}
