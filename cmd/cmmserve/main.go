// Command cmmserve runs the experiment job service: an HTTP API that
// accepts simulation jobs, executes them on a bounded worker pool, and
// memoizes every run in a content-addressed store so repeated
// configurations cost no simulation.
//
// Usage:
//
//	cmmserve -listen :8090 -store /var/lib/cmm/runs
//	curl -s localhost:8090/v1/jobs -d '{"kind":"comparison","preset":"quick"}'
//	curl -s localhost:8090/v1/jobs/<id>
//	curl -s localhost:8090/v1/jobs/<id>/result?format=csv
//
// Finished results live in one place, the run store, content-addressed:
// every job status carries a result_hash, GET /v1/results/<hash> returns
// the memoized bytes sub-millisecond from the store's in-memory front
// with a strong ETag for If-None-Match revalidation, and
// POST /v1/results/lookup maps a config to its hash server-side, serving
// the cached result or enqueuing the compute (?wait= blocks briefly).
//
// The store can be bounded with -store-max-bytes and -store-max-age:
// least-recently-used entries past either limit are evicted on a -sweep
// interval (jittered so a cluster doesn't sweep in lockstep), and
// /metrics reports cmm_store_evictions_total alongside the disk gauges.
// A done job whose result was evicted answers 410 on its result
// endpoint; POST /v1/results/lookup recomputes it from the stored runs.
// -pprof mounts net/http/pprof at /debug/pprof/ for live profiling.
//
// Without -store, the run store and the jobstore share one temporary
// directory, laid out as with -store and removed after the drain. Several
// cmmserve processes pointed at the same -store form a coordinator-free
// cluster. Workers claim jobs through atomic leases, heartbeat while
// running, retry failures with exponential backoff up to -max-attempts,
// and reap jobs from peers that died mid-run — so a worker can be
// SIGKILLed and its jobs still finish elsewhere:
//
//	cmmserve -listen :8090 -store /var/lib/cmm/runs -worker-id a
//	cmmserve -listen :8091 -store /var/lib/cmm/runs -worker-id b
//
// SIGINT/SIGTERM drain the service: /healthz flips to "draining", the
// listener stops accepting, queued jobs stay queued in the jobstore for
// surviving workers, and running jobs get -grace to finish — after which
// they are requeued for the cluster.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"cmm/internal/cmm"
	"cmm/internal/jobstore"
	"cmm/internal/learn"
	"cmm/internal/runstore"
	"cmm/internal/server"
	"cmm/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cmmserve:", err)
		os.Exit(1)
	}
}

// run is the whole service; it returns instead of exiting so every
// deferred clean-up, the temporary store root's removal included, runs
// on a failed start too.
func run() error {
	var (
		listen        = flag.String("listen", ":8090", "HTTP listen address")
		storeDir      = flag.String("store", "", "content-addressed run store directory holding run and job results; jobs live in <store>/jobs (empty: a temporary directory, removed after the drain)")
		storeMaxBytes = flag.Int64("store-max-bytes", 0, "evict least-recently-used store entries past this disk size (0 = unlimited)")
		storeMaxAge   = flag.Duration("store-max-age", 0, "evict store entries unused for longer than this (0 = unlimited)")
		sweepEvery    = flag.Duration("sweep", 10*time.Minute, "how often to enforce the store limits (jittered ±10% so workers sharing a store don't sweep in lockstep)")
		pprofOn       = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		jobs          = flag.Int("jobs", 1, "jobs executing concurrently")
		queue         = flag.Int("queue", 16, "max queued jobs before submissions get 503")
		timeout       = flag.Duration("timeout", 0, "default per-job execution timeout (0 = none)")
		grace         = flag.Duration("grace", 30*time.Second, "shutdown grace for in-flight requests and running jobs")

		workerID       = flag.String("worker-id", "", "this worker's identity in the shared job store (default host-pid)")
		leaseTTL       = flag.Duration("lease-ttl", 15*time.Second, "job lease time-to-live; a worker silent for this long loses its jobs to peers")
		maxAttempts    = flag.Int("max-attempts", 3, "executions a job gets before it is quarantined as failed")
		attemptTimeout = flag.Duration("attempt-timeout", 0, "per-attempt execution timeout, retried with backoff (0 = none)")
		scanEvery      = flag.Duration("scan", 0, "shared-store scan interval for picking up queued jobs, reaping dead workers and counting jobs (0 = lease-ttl/3)")

		modelDir    = flag.String("model-dir", "", "CMM-L model registry directory; enables the CMM-L policy with hot reload on promotion (GET /v1/model, POST /v1/model/rollback)")
		modelPoll   = flag.Duration("model-poll", 10*time.Second, "registry pointer poll interval for hot reload (SIGHUP forces an immediate check)")
		confidence  = flag.Float64("confidence", 0, "CMM-L prediction confidence threshold (0 = policy default)")
		driftWin    = flag.Int("drift-window", 0, "drift monitor window in per-core observations (0 = default)")
		driftFloor  = flag.Float64("drift-floor", 0, "windowed prediction agreement below which CMM-L self-demotes to CMM-a (0 = default)")
		shadowEvery = flag.Int("shadow-every", 0, "force a shadow-audit sampling epoch every N confident epochs (0 = audits off, drift learns from fallbacks only)")
		eventLog    = flag.String("telemetry", "", "append per-epoch telemetry events as JSONL to this file (the CMM-L retraining corpus)")
	)
	flag.Parse()

	// Without -store, a private temporary directory stands in for it, so
	// results stay on disk rather than in a bounded memory front, and it
	// goes away after the drain.
	root := *storeDir
	if root == "" {
		var err error
		if root, err = os.MkdirTemp("", "cmmserve-*"); err != nil {
			return err
		}
		defer os.RemoveAll(root)
	}
	store, err := runstore.Open(root,
		runstore.WithMaxBytes(*storeMaxBytes), runstore.WithMaxAge(*storeMaxAge))
	if err != nil {
		return err
	}

	// Jobs live beside the run store: any cmmserve process pointed at the
	// same -store forms a fault-tolerant cluster with this one, claiming
	// jobs through atomic leases.
	jobsDir := filepath.Join(root, "jobs")
	jopts := []jobstore.Option{jobstore.WithTTL(*leaseTTL)}
	if *workerID != "" {
		jopts = append(jopts, jobstore.WithWorker(*workerID))
	}
	jstore, err := jobstore.Open(jobsDir, jopts...)
	if err != nil {
		return err
	}
	fmt.Printf("cmmserve: durable jobs at %s (worker %s, lease ttl %s)\n",
		jstore.Dir(), jstore.Worker(), *leaseTTL)

	// -model-dir turns on the CMM-L serving path: the registry's current
	// model is loaded now (an empty registry is fine — jobs are rejected
	// until the first promotion) and watched for promotions.
	var models *server.ModelManager
	var counters telemetry.Counters
	if *modelDir != "" {
		reg, err := learn.OpenRegistry(*modelDir)
		if err != nil {
			return err
		}
		drift := cmm.DriftConfig{
			Window:         *driftWin,
			AgreementFloor: *driftFloor,
			ShadowEvery:    *shadowEvery,
		}
		models = server.NewModelManager(reg, *confidence, drift, &counters)
		if _, err := models.Reload(); err != nil {
			fmt.Fprintf(os.Stderr, "cmmserve: model registry %s: %v (CMM-L jobs rejected until a model is promoted)\n", *modelDir, err)
		} else {
			fmt.Printf("cmmserve: serving CMM-L model %s from %s\n", models.Fingerprint(), *modelDir)
		}
	}

	// -telemetry appends every job's per-epoch events to a JSONL file —
	// the corpus cmmtrain -retrain reads. Async so a slow disk never
	// stalls the epoch loop.
	var eventSink telemetry.Sink
	if *eventLog != "" {
		f, err := os.OpenFile(*eventLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		jsonl := telemetry.NewJSONLSink(f)
		async := telemetry.NewAsyncSink(jsonl, 4096)
		defer func() {
			async.Close()
			jsonl.Close()
			f.Close()
		}()
		eventSink = async
		fmt.Printf("cmmserve: appending telemetry events to %s\n", *eventLog)
	}

	// Bind before server.New starts the worker pool and the scanner, so a
	// taken port fails the start with nothing running.
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}

	srv := server.New(server.Config{
		Store:          store,
		Jobs:           jstore,
		Workers:        *jobs,
		QueueDepth:     *queue,
		Counters:       &counters,
		EventSink:      eventSink,
		Models:         models,
		DefaultTimeout: *timeout,
		MaxAttempts:    *maxAttempts,
		AttemptTimeout: *attemptTimeout,
		ScanInterval:   *scanEvery,
	})

	fmt.Printf("cmmserve: run store at %s\n", store.Dir())
	fmt.Printf("cmmserve: listening on http://%s (POST /v1/jobs)\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runstore.StartSweeper(ctx, store, *sweepEvery, 0.1, func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "cmmserve: "+format+"\n", args...)
	})
	if models != nil {
		go models.Watch(ctx, *modelPoll)
	}
	// Flip /healthz to "draining" the moment the signal arrives, so load
	// balancers stop routing here while in-flight requests finish.
	go func() {
		<-ctx.Done()
		srv.BeginDrain()
	}()

	handler := srv.Handler()
	if *pprofOn {
		outer := http.NewServeMux()
		outer.Handle("/", handler)
		server.MountPprof(outer)
		handler = outer
		fmt.Printf("cmmserve: pprof at /debug/pprof/\n")
	}
	httpSrv := server.NewHTTPServer(*listen, handler)
	if err := server.ServeUntil(ctx, httpSrv, ln, *grace); err != nil {
		fmt.Fprintln(os.Stderr, "cmmserve: http:", err)
	}

	// The listener is down; now drain the job pool.
	drainCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "cmmserve: drain cut short:", err)
	}
	st := store.Stats()
	fmt.Printf("cmmserve: drained; store served %d hits / %d misses\n", st.Hits, st.Misses)
	return nil
}
