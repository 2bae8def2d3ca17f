// Command cmmload is the read-path load-test harness: it drives
// GET /v1/results/{hash} on a cmmserve instance through configurable
// concurrent connections and a warm/cold/revalidation/miss key mix,
// reports p50/p95/p99 latency and sustained RPS per phase, and writes
// one LOAD_<stamp>.json snapshot so serving-tier performance can be
// tracked across commits.
//
// Usage:
//
//	cmmload -selftest                 # in-process server + seeded store,
//	                                  # writes LOAD_<UTC stamp>.json
//	cmmload -selftest -quick          # short run with assertions:
//	                                  # CI smoke (non-zero hit ratio,
//	                                  # warm p99 under -p99-max)
//	cmmload -url http://host:8090 -hashfile keys.txt
//	cmmload -selftest -conns 32 -duration 30s -keys 256
//
// Phases:
//
//	cold    one pass over every key, its first read: a key missing
//	        from the run store's memory front is read from the store's
//	        disk body and warms the front (-selftest seeds the store
//	        in-process, so its front starts warm)
//	warm    Zipf-distributed reads over the key set for -duration —
//	        the steady state the p99 < a-few-ms target applies to
//	notmod  warm reads carrying If-None-Match with the correct ETag —
//	        measures the 304 revalidation path (no body transferred)
//	miss    random nonexistent hashes — the 404 path
//
// Against a remote -url the key set comes from -hashfile (one content
// hash per line, e.g. collected from job result_hash fields); -selftest
// builds its own server on a loopback listener with a seeded temporary
// store, so the binary is self-contained for CI.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cmm/internal/jobstore"
	"cmm/internal/runstore"
	"cmm/internal/server"
	"cmm/internal/telemetry"
)

// file is the snapshot schema written as LOAD_<stamp>.json.
type file struct {
	Schema    int    // schema version for downstream tooling
	Stamp     string // UTC, 20060102T150405Z
	GoVersion string
	GOOS      string
	GOARCH    string
	NumCPU    int
	CPUModel  string // best-effort, from /proc/cpuinfo
	URL       string // target base URL ("selftest" for the in-process server)
	Conns     int    // concurrent connections
	Keys      int    // distinct result hashes in the mix
	BodyBytes int    // seeded result payload size (selftest only)
	Duration  string // warm-phase length
	Phases    []phaseResult
	Metrics   map[string]float64 // cmm_read* scrape after the run
}

// phaseResult is one phase's latency/throughput summary. Latencies are
// milliseconds; RPS is requests over wall seconds.
type phaseResult struct {
	Name     string
	Requests int
	Errors   int // transport failures + unexpected status codes
	Seconds  float64
	RPS      float64
	P50ms    float64
	P95ms    float64
	P99ms    float64
	MaxMs    float64
}

func main() {
	var (
		url        = flag.String("url", "", "target base URL (empty: requires -selftest)")
		selftest   = flag.Bool("selftest", false, "start an in-process server with a seeded store on a loopback listener")
		hashfile   = flag.String("hashfile", "", "file of result hashes, one per line (remote mode key set)")
		conns      = flag.Int("conns", 0, "concurrent connections (default 16, or 8 with -quick)")
		duration   = flag.Duration("duration", 0, "warm-phase length (default 10s, or 2s with -quick)")
		keys       = flag.Int("keys", 0, "seeded result count in selftest mode (default 64, or 16 with -quick)")
		body       = flag.Int("body", 4096, "approximate seeded result payload bytes (selftest)")
		quick      = flag.Bool("quick", false, "short run with assertions: the CI smoke configuration")
		p99max     = flag.Duration("p99-max", 0, "fail if the warm-phase p99 exceeds this (0: 250ms with -quick, else report-only)")
		reqTimeout = flag.Duration("request-timeout", 30*time.Second, "per-request deadline; a stalled server counts the probe as an error instead of hanging a worker forever")
		out        = flag.String("out", "", "output path (default LOAD_<stamp>.json in the current directory)")
	)
	flag.Parse()

	if *conns <= 0 {
		*conns = 16
		if *quick {
			*conns = 8
		}
	}
	if *duration <= 0 {
		*duration = 10 * time.Second
		if *quick {
			*duration = 2 * time.Second
		}
	}
	if *keys <= 0 {
		*keys = 64
		if *quick {
			*keys = 16
		}
	}
	if *p99max <= 0 && *quick {
		*p99max = 250 * time.Millisecond
	}

	now := time.Now().UTC()
	f := &file{
		Schema:    1,
		Stamp:     now.Format("20060102T150405Z"),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		CPUModel:  cpuModel(),
		Conns:     *conns,
		BodyBytes: *body,
		Duration:  duration.String(),
		Metrics:   map[string]float64{},
	}

	var hashes []string
	base := *url
	switch {
	case *selftest:
		var stop func()
		var err error
		base, hashes, stop, err = startSelftest(*keys, *body)
		if err != nil {
			fatal(err)
		}
		defer stop()
		f.URL = "selftest"
	case base != "":
		if *hashfile == "" {
			fatal(fmt.Errorf("-url needs -hashfile (one result hash per line)"))
		}
		var err error
		hashes, err = readHashes(*hashfile)
		if err != nil {
			fatal(err)
		}
		f.URL = base
	default:
		fatal(fmt.Errorf("need -url or -selftest"))
	}
	if len(hashes) == 0 {
		fatal(fmt.Errorf("empty key set"))
	}
	f.Keys = len(hashes)

	client := newClient(*conns, *reqTimeout)

	// cold: every key once — fills the store's memory front from disk.
	fmt.Fprintf(os.Stderr, "cmmload: cold pass over %d keys ... ", len(hashes))
	cold := runPhase("cold", *conns, 0, len(hashes), func(_ int) func(int) request {
		return func(i int) request {
			return request{hash: hashes[i%len(hashes)], want: http.StatusOK}
		}
	}, client, base)
	fmt.Fprintf(os.Stderr, "p99 %.2fms\n", cold.P99ms)

	// warm: Zipf over the key set for -duration — the headline numbers.
	fmt.Fprintf(os.Stderr, "cmmload: warm phase %s x%d conns ... ", *duration, *conns)
	warm := runPhase("warm", *conns, *duration, 0, zipfPicker(hashes, http.StatusOK, false), client, base)
	fmt.Fprintf(os.Stderr, "%.0f req/s, p50 %.2fms p95 %.2fms p99 %.2fms\n",
		warm.RPS, warm.P50ms, warm.P95ms, warm.P99ms)

	// notmod: same mix with If-None-Match — 304s, no body.
	fmt.Fprintf(os.Stderr, "cmmload: revalidation phase ... ")
	notmod := runPhase("notmod", *conns, *duration/2, 0, zipfPicker(hashes, http.StatusNotModified, true), client, base)
	fmt.Fprintf(os.Stderr, "%.0f req/s, p99 %.2fms\n", notmod.RPS, notmod.P99ms)

	// miss: nonexistent hashes — the 404 path must not collapse either.
	fmt.Fprintf(os.Stderr, "cmmload: miss phase ... ")
	miss := runPhase("miss", *conns, *duration/4, 0, func(w int) func(int) request {
		rng := rand.New(rand.NewSource(int64(w) + 1))
		return func(int) request {
			var b [32]byte
			rng.Read(b[:])
			return request{hash: hex.EncodeToString(b[:]), want: http.StatusNotFound}
		}
	}, client, base)
	fmt.Fprintf(os.Stderr, "%.0f req/s, p99 %.2fms\n", miss.RPS, miss.P99ms)

	f.Phases = []phaseResult{cold, warm, notmod, miss}
	scrapeMetrics(client, base, f.Metrics)

	path := *out
	if path == "" {
		path = "LOAD_" + f.Stamp + ".json"
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Println(path)

	// Assertions: CI smoke fails loudly instead of shipping a regression.
	failed := false
	check := func(ok bool, format string, args ...any) {
		if !ok {
			failed = true
			fmt.Fprintf(os.Stderr, "cmmload: FAIL: "+format+"\n", args...)
		}
	}
	totalErrs := 0
	for _, p := range f.Phases {
		totalErrs += p.Errors
	}
	check(totalErrs == 0, "%d requests errored or returned unexpected statuses", totalErrs)
	if hits := f.Metrics["read_hits_total"]; f.URL == "selftest" {
		check(hits > 0, "read hit counter is zero after %d warm requests", warm.Requests)
		check(f.Metrics["read_not_modified_total"] > 0, "no 304s recorded in the revalidation phase")
	}
	if *p99max > 0 {
		check(warm.P99ms <= p99max.Seconds()*1000,
			"warm p99 %.2fms exceeds ceiling %s", warm.P99ms, *p99max)
	}
	if failed {
		os.Exit(1)
	}
}

// request is one generated probe: a hash to GET and the status that
// counts as success. notmod carries the matching If-None-Match header.
type request struct {
	hash   string
	want   int
	notmod bool
}

// zipfPicker skews reads over the key set (s=1.1) so a handful of keys
// are hot, like real memoized-result traffic. Each worker gets its own
// seeded generator, so runs are reproducible and lock-free.
func zipfPicker(hashes []string, want int, notmod bool) func(int) func(int) request {
	return func(w int) func(int) request {
		rng := rand.New(rand.NewSource(int64(w) + 1))
		z := rand.NewZipf(rng, 1.1, 1, uint64(len(hashes)-1))
		return func(int) request {
			return request{hash: hashes[z.Uint64()], want: want, notmod: notmod}
		}
	}
}

// runPhase fires requests from conns workers until the duration elapses
// (or total requests are done, when total > 0) and summarizes latency.
// newGen builds each worker's request generator (worker-local state, no
// locking on the hot path).
func runPhase(name string, conns int, d time.Duration, total int,
	newGen func(worker int) func(i int) request, client *http.Client, base string) phaseResult {

	var next atomic.Int64
	stop := time.Now().Add(d)
	var wg sync.WaitGroup
	lats := make([][]int64, conns)
	errs := make([]int, conns)
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen := newGen(w)
			for {
				i := int(next.Add(1) - 1)
				if total > 0 && i >= total {
					return
				}
				if total == 0 && !time.Now().Before(stop) {
					return
				}
				req := gen(i)
				t0 := time.Now()
				ok := doProbe(client, base, req)
				lats[w] = append(lats[w], time.Since(t0).Nanoseconds())
				if !ok {
					errs[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)

	var all []int64
	nerr := 0
	for w := range lats {
		all = append(all, lats[w]...)
		nerr += errs[w]
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	ms := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		idx := int(p * float64(len(all)-1))
		return float64(all[idx]) / 1e6
	}
	res := phaseResult{
		Name:     name,
		Requests: len(all),
		Errors:   nerr,
		Seconds:  wall.Seconds(),
		P50ms:    ms(0.50),
		P95ms:    ms(0.95),
		P99ms:    ms(0.99),
		MaxMs:    ms(1.0),
	}
	if wall > 0 {
		res.RPS = float64(len(all)) / wall.Seconds()
	}
	return res
}

// newClient builds the load-generator client. timeout bounds each whole
// request (dial through body read): without it a single stalled server
// connection would park a worker goroutine for the entire run and skew
// every latency percentile silently.
func newClient(conns int, timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxIdleConns:        conns * 2,
			MaxIdleConnsPerHost: conns * 2,
		},
	}
}

// doProbe issues one GET and reports whether the response matched.
func doProbe(client *http.Client, base string, req request) bool {
	hr, err := http.NewRequest("GET", base+"/v1/results/"+req.hash, nil)
	if err != nil {
		return false
	}
	if req.notmod {
		hr.Header.Set("If-None-Match", `"`+req.hash+`"`)
	}
	resp, err := client.Do(hr)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == req.want
}

// startSelftest builds an in-process server over a seeded temporary run
// store (its jobstore beside it in the same temporary directory) and
// serves it on a loopback listener. It returns the base URL, the seeded
// hashes, and a stop function.
func startSelftest(keys, bodyBytes int) (string, []string, func(), error) {
	dir, err := os.MkdirTemp("", "cmmload-*")
	if err != nil {
		return "", nil, nil, err
	}
	store, err := runstore.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, nil, err
	}
	hashes := make([]string, keys)
	pad := strings.Repeat("x", bodyBytes)
	for i := range hashes {
		payload := map[string]any{"seeded": i, "pad": pad}
		body, err := runstore.Canonical(payload)
		if err != nil {
			os.RemoveAll(dir)
			return "", nil, nil, err
		}
		sum := sha256.Sum256(body)
		key := hex.EncodeToString(sum[:])
		if err := store.Put(key, body); err != nil {
			os.RemoveAll(dir)
			return "", nil, nil, err
		}
		hashes[i] = key
	}

	jobs, err := jobstore.Open(filepath.Join(dir, "jobs"))
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, nil, err
	}
	var counters telemetry.Counters
	srv := server.New(server.Config{Store: store, Jobs: jobs, Counters: &counters})
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	stop := func() {
		httpSrv.Close()
		srv.Shutdown(context.Background())
		os.RemoveAll(dir)
	}
	return "http://" + ln.Addr().String(), hashes, stop, nil
}

// readHashes loads the remote-mode key set: one hash per line, blank
// lines and #-comments skipped.
func readHashes(path string) ([]string, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	var out []string
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, strings.ToLower(line))
	}
	return out, sc.Err()
}

// scrapeMetrics pulls the read-path counters from /metrics into m
// (keys without the cmm_ prefix).
func scrapeMetrics(client *http.Client, base string, m map[string]float64) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(strings.TrimSpace(sc.Text()), " ")
		if !ok || !strings.HasPrefix(name, "cmm_read") {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(val, "%g", &v); err == nil {
			m[strings.TrimPrefix(name, "cmm_")] = v
		}
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok &&
			strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cmmload:", err)
	os.Exit(1)
}
