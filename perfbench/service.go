package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	icmm "cmm/internal/cmm"
	"cmm/internal/experiments"
	"cmm/internal/jobstore"
	"cmm/internal/runstore"
	"cmm/internal/server"
)

// Service-mix shape: seeded job configurations, the read mix, and the
// writer's poll and scrape cadence.
//
// The read mix is cmd/cmmload's: Zipf s=1.1 over the known results, and
// its warm, revalidation and miss phases (run for d, d/2 and d/4) folded
// into one stream with those time shares as request shares, 4:2:1.
const (
	// svcConfigs is every policy once, so the set-up's cold work is the
	// same for every seed; the seed draws their order and run seed.
	svcConfigs    = 7
	svcZipfS      = 1.1
	svcMissShare  = 1.0 / 7 // reads of an unknown hash (404)
	svcRevalShare = 2.0 / 7 // reads revalidating with If-None-Match (304)
	svcPollEvery  = time.Millisecond
	// svcScrapeEvery gives a 10 s run 20 scrapes, enough for a steady
	// median; a scrape takes well under 1% of the writer's time.
	svcScrapeEvery = 500 * time.Millisecond
	// svcScanEvery keeps the durable-job scanner to its start-up pass. It
	// adopts and reaps other workers' jobs, and one process has none. A
	// later pass races the worker: it applies a record read as queued
	// after the job finished, so a job polled done can answer its result
	// request with 409. At the default interval (TTL/3) one run in about
	// thirty failed that way; at 50 ms two runs in three did.
	svcScanEvery = time.Hour
)

// benchPreset is the job preset the service is seeded with: the quick
// configuration with short windows, so cold set-up jobs stay cheap.
func benchPreset() experiments.Options {
	o := experiments.QuickOptions()
	o.MixesPerCategory = 1
	o.SoloWarmCycles = 500_000
	o.SoloMeasureCycles = 500_000
	o.CMM.ExecutionEpoch = 300_000
	o.CMM.SamplingInterval = 30_000
	o.MeasureEpochs = 1
	o.Workers = 1
	return o
}

// jobConfigs draws the service's job configurations from seed: distinct
// single-policy comparisons sharing one run seed, so the cold set-up jobs
// share their baseline and solo runs through the run store.
func jobConfigs(seed int64, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	names := icmm.PolicyNames()[1:]
	runSeed := 1 + rng.Int63n(1000)
	var out [][]byte
	for _, i := range rng.Perm(len(names))[:n] {
		b, _ := json.Marshal(map[string]any{
			"preset": "bench", "policies": []string{names[i]}, "seeds": []int64{runSeed},
		}) // a map of strings and slices always marshals
		out = append(out, b)
	}
	return out
}

// service is one running job/read service on loopback.
type service struct {
	dir     string
	store   *runstore.Store
	jobs    *jobstore.Store
	srv     *server.Server
	http    *http.Server
	served  chan struct{}
	base    string
	configs [][]byte
	hashes  []string          // result hash per config
	digests map[string][]byte // SHA-256 of each result's body, by hash
}

// startService opens the stores in a fresh directory under work, starts
// the server with one job worker, and computes every configuration cold.
func startService(work string, seed int64, nConfigs int) (*service, error) {
	dir, err := os.MkdirTemp(work, "svc-")
	if err != nil {
		return nil, err
	}
	s := &service{dir: dir, digests: map[string][]byte{}, served: make(chan struct{})}
	if s.store, err = runstore.Open(filepath.Join(dir, "store")); err != nil {
		return nil, err
	}
	if s.jobs, err = jobstore.Open(filepath.Join(dir, "jobs"), jobstore.WithWorker("perfbench")); err != nil {
		return nil, err
	}
	s.srv = server.New(server.Config{
		Store: s.store, Jobs: s.jobs, Workers: 1, ScanInterval: svcScanEvery,
		Presets: map[string]experiments.Options{"bench": benchPreset()},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.stop()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.http = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.served)
		s.http.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}()
	c := newConn()
	defer c.close()
	s.configs = jobConfigs(seed, nConfigs)
	for _, cfg := range s.configs {
		j, err := c.runJob(s.base, cfg, nil)
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("seed job: %w", err)
		}
		sum := sha256.Sum256(j.body)
		s.hashes = append(s.hashes, j.hash)
		s.digests[j.hash] = sum[:]
	}
	return s, nil
}

// stop shuts the HTTP listener and the server down, waits for both, and
// removes the service's directory.
func (s *service) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if s.http != nil {
		s.http.Shutdown(ctx)
		<-s.served
	}
	if s.srv != nil {
		s.srv.Shutdown(ctx)
	}
	os.RemoveAll(s.dir)
}

// conn is one client connection: a transport that keeps a single
// connection open.
type conn struct {
	tr *http.Transport
	c  *http.Client
}

func newConn() *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{tr: tr, c: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

func (c *conn) do(method, url string, body []byte, hdr map[string]string) (*http.Response, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp, b, err
}

// jobStatus is the part of the service's job status the benchmark reads.
type jobStatus struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	Error      string `json:"error"`
	ResultHash string `json:"result_hash"`
	CreatedAt  string `json:"created_at"`
	StartedAt  string `json:"started_at"`
	FinishedAt string `json:"finished_at"`
}

// jobRun is one job taken from submission to its result.
type jobRun struct {
	hash          string
	body          []byte
	submit, total time.Duration
	queue, run    time.Duration // from the status timestamps
	polls         int
}

// runJob submits cfg, polls the job until it is terminal and fetches its
// result. With want set, the result body must hash to it.
func (c *conn) runJob(base string, cfg []byte, want []byte) (jobRun, error) {
	var j jobRun
	start := time.Now()
	resp, b, err := c.do("POST", base+"/v1/jobs", cfg, nil)
	if err != nil {
		return j, err
	}
	j.submit = time.Since(start)
	if resp.StatusCode != http.StatusAccepted {
		return j, fmt.Errorf("submit: status %d: %s", resp.StatusCode, b)
	}
	var st jobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		return j, fmt.Errorf("submit: %w", err)
	}
	j.hash = st.ResultHash
	for st.State == server.StateQueued || st.State == server.StateRunning {
		time.Sleep(svcPollEvery)
		resp, b, err := c.do("GET", base+"/v1/jobs/"+st.ID, nil, nil)
		if err != nil {
			return j, err
		}
		j.polls++
		if resp.StatusCode != http.StatusOK {
			return j, fmt.Errorf("poll: status %d: %s", resp.StatusCode, b)
		}
		if err := json.Unmarshal(b, &st); err != nil {
			return j, fmt.Errorf("poll: %w", err)
		}
	}
	if st.State != server.StateDone {
		return j, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	resp, j.body, err = c.do("GET", base+"/v1/jobs/"+st.ID+"/result", nil, nil)
	if err != nil {
		return j, err
	}
	j.total = time.Since(start)
	if resp.StatusCode != http.StatusOK {
		return j, fmt.Errorf("result: status %d", resp.StatusCode)
	}
	created, _ := time.Parse(time.RFC3339Nano, st.CreatedAt)
	started, _ := time.Parse(time.RFC3339Nano, st.StartedAt)
	finished, _ := time.Parse(time.RFC3339Nano, st.FinishedAt)
	j.queue, j.run = started.Sub(created), finished.Sub(started)
	if want != nil {
		if sum := sha256.Sum256(j.body); !bytes.Equal(sum[:], want) {
			return j, fmt.Errorf("job %s: result body of %s differs from the first computation", st.ID, j.hash)
		}
	}
	return j, nil
}

// readOp is one read of the mix: a hash, whether it revalidates, and the
// status it must get.
type readOp struct {
	hash   string
	inm    bool
	status int
}

// checkRead verifies one read response: the status, and for a 200 the
// ETag, the hash header and the body's SHA-256 against the digest recorded
// when the result was computed. Result hashes address the job
// configuration (experiments.JobKey), so the body digest is compared with
// that recording rather than with the hash itself.
func checkRead(op readOp, resp *http.Response, body []byte, digests map[string][]byte) error {
	if resp.StatusCode != op.status {
		return fmt.Errorf("read %s: status %d, want %d", op.hash, resp.StatusCode, op.status)
	}
	if op.status != http.StatusOK {
		return nil
	}
	if got := resp.Header.Get("ETag"); got != `"`+op.hash+`"` {
		return fmt.Errorf("read %s: ETag %s", op.hash, got)
	}
	if got := resp.Header.Get("X-Result-Hash"); got != op.hash {
		return fmt.Errorf("read %s: X-Result-Hash %s", op.hash, got)
	}
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], digests[op.hash]) {
		return fmt.Errorf("read %s: body SHA-256 %x differs from the recorded %x", op.hash, sum, digests[op.hash])
	}
	return nil
}

// readMix draws reads: Zipf-skewed over the known results, a share of
// revalidations, and a share of unknown hashes.
type readMix struct {
	rng    *rand.Rand
	zipf   *rand.Zipf
	hashes []string
}

func newReadMix(seed int64, hashes []string) *readMix {
	rng := rand.New(rand.NewSource(seed))
	return &readMix{rng: rng, zipf: rand.NewZipf(rng, svcZipfS, 1, uint64(len(hashes)-1)), hashes: hashes}
}

func (m *readMix) next() readOp {
	r := m.rng.Float64()
	if r < svcMissShare {
		var b [32]byte
		m.rng.Read(b[:])
		return readOp{hash: hex.EncodeToString(b[:]), status: http.StatusNotFound}
	}
	h := m.hashes[m.zipf.Uint64()]
	if r < svcMissShare+svcRevalShare {
		return readOp{hash: h, inm: true, status: http.StatusNotModified}
	}
	return readOp{hash: h, status: http.StatusOK}
}

// svcStats is what the measured phase saw.
type svcStats struct {
	reads, scrapes []time.Duration
	jobs           []jobRun
	scrapeBody     []byte // the last /metrics body
	storeBefore    runstore.Stats
	wall, cpu      time.Duration
}

// mixPhase runs the two connections for d: the reader on one, the job
// writer and scraper on the other. The reader is closed-loop, as cmmload's
// connections are: each read is sent when the previous reply is in. It
// returns when both have stopped.
func (s *service) mixPhase(d time.Duration, seed int64, tr *tracer, parent int, out *outcome) svcStats {
	st := svcStats{storeBefore: s.store.Stats()}
	var mu sync.Mutex // guards out
	check := func(err error) {
		mu.Lock()
		out.check(err)
		mu.Unlock()
	}
	cpu0, start := cpuTime(), time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := newConn()
		defer c.close()
		mix := newReadMix(seed, s.hashes)
		for time.Now().Before(deadline) {
			op := mix.next()
			hdr := map[string]string(nil)
			if op.inm {
				hdr = map[string]string{"If-None-Match": `"` + op.hash + `"`}
			}
			t0 := time.Now()
			resp, body, err := c.do("GET", s.base+"/v1/results/"+op.hash, nil, hdr)
			dt := time.Since(t0)
			if err == nil {
				err = checkRead(op, resp, body, s.digests)
			}
			check(err)
			if err != nil {
				continue // a wrong read is counted as failed, not timed
			}
			st.reads = append(st.reads, dt)
			tr.add("read", parent, t0, t0.Add(dt))
		}
	}()
	go func() {
		defer wg.Done()
		c := newConn()
		defer c.close()
		rng := rand.New(rand.NewSource(seed + 1))
		nextScrape := start
		for time.Now().Before(deadline) {
			if !time.Now().Before(nextScrape) {
				nextScrape = nextScrape.Add(svcScrapeEvery)
				t0 := time.Now()
				resp, body, err := c.do("GET", s.base+"/metrics", nil, nil)
				dt := time.Since(t0)
				if err == nil && (resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("cmm_jobs{"))) {
					err = fmt.Errorf("scrape: status %d", resp.StatusCode)
				}
				check(err)
				if err != nil {
					continue
				}
				st.scrapes = append(st.scrapes, dt)
				st.scrapeBody = body
				tr.add("scrape", parent, t0, t0.Add(dt))
				continue
			}
			i := rng.Intn(len(s.configs))
			t0 := time.Now()
			j, err := c.runJob(s.base, s.configs[i], s.digests[s.hashes[i]])
			if err == nil && j.hash != s.hashes[i] {
				err = fmt.Errorf("job result hash %s, want %s", j.hash, s.hashes[i])
			}
			check(err)
			if err != nil {
				continue
			}
			st.jobs = append(st.jobs, j)
			if tr != nil {
				id := tr.add("job", parent, t0, t0.Add(j.total))
				tr.add("job.submit", id, t0, t0.Add(j.submit))
				tr.add("job.queue", id, t0.Add(j.submit), t0.Add(j.submit+j.queue))
				tr.add("job.run", id, t0.Add(j.submit+j.queue), t0.Add(j.submit+j.queue+j.run))
			}
		}
	}()
	wg.Wait()
	st.wall, st.cpu = time.Since(start), cpuTime()-cpu0
	return st
}

// runServiceMix is the service-mix workload.
func runServiceMix(e env) (outcome, error) {
	var out outcome
	s, setupS, err := timeSetup(e.setupReps, func() (*service, error) {
		return startService(e.work, e.seed, svcConfigs)
	}, (*service).stop)
	if err != nil {
		return out, err
	}
	defer s.stop()
	root := e.tr.open("service-mix", -1)
	st := s.mixPhase(e.seconds, e.seed, e.tr, root, &out)
	e.tr.close(root)
	out.set("setup_s", "s", setupS)
	serviceMetrics(&out, st)
	if e.tr != nil {
		if err := serviceLayers(&out, s, st); err != nil {
			return out, err
		}
	}
	out.set("peak_rss_mb", "MB", peakRSSMB())
	return out, nil
}

// serviceMetrics reports the phase's end-to-end metrics: a read is the
// primary operation, a job from submission to result the secondary one.
// Throughput is reads per second; the one writer's job rate only mirrors
// its job latency. CPU is per job, reads included. The tails are p99 of
// reads and p90 of jobs. The job p98, the highest percentile with ten of
// about 900 jobs beyond it, spread 0.30 over ten seeds: it measured the
// host's disk and scheduler stalls, not the service.
func serviceMetrics(out *outcome, st svcStats) {
	reads := durMs(st.reads)
	var jobs []float64
	for _, j := range st.jobs {
		jobs = append(jobs, float64(j.total)/1e6)
	}
	out.set("op_ms", "ms", median(reads))
	out.set("op_tail_ms", "ms", quantile(reads, 0.99))
	out.set("op2_ms", "ms", median(jobs))
	out.set("op2_tail_ms", "ms", quantile(jobs, 0.90))
	out.set("work_per_s", "1/s", float64(len(st.reads))/st.wall.Seconds())
	out.set("cpu_ms_per_op", "ms", float64(st.cpu)/1e6/float64(len(st.jobs)))
	fmt.Fprintf(os.Stderr, "service-mix: %d reads (%.0f/s), %d jobs, %d scrapes in %v\n",
		len(st.reads), float64(len(st.reads))/st.wall.Seconds(), len(st.jobs), len(st.scrapes), st.wall.Round(time.Millisecond))
}

// scrapeValue returns the sum of every sample of a metric family in a
// /metrics body.
func scrapeValue(body []byte, family string) float64 {
	var sum float64
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || (name != family && !strings.HasPrefix(name, family+"{")) {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			sum += v
		}
	}
	return sum
}
