// Command cmmd is the userspace analogue of the paper's kernel module: a
// daemon loop that monitors PMU metrics every execution epoch, detects
// prefetch-aggressive cores, and programs prefetch-control MSRs and CAT
// partitions — printing each epoch's decision.
//
// It drives the simulated machine. The same controller code would drive
// real hardware given a Target backed by /dev/cpu/*/msr and perf counters
// (see internal/msr.DevCPU for the register half of that backend).
//
// Usage:
//
//	cmmd -policy CMM-a -benchmarks 410.bwaves,rand_access,429.mcf,453.povray -epochs 6
//	cmmd -policy PT -mix "Pref Unfri" -index 2 -epochs 10
//	cmmd -policy CMM-a -mix "Pref Unfri" -epochs 500 -listen :8080
//	    # plain-text counters at /metrics, expvar JSON at /debug/vars;
//	    # add -pprof for /debug/pprof/
//	cmmd -policy CMM-a -mix "Pref Fri" -telemetry epochs.jsonl
//	    # one structured JSONL event per epoch
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cmm"
	icmm "cmm/internal/cmm"
	"cmm/internal/server"
	"cmm/internal/telemetry"
)

// counters aggregates the epoch-event stream for the /metrics endpoint.
var counters telemetry.Counters

func main() {
	var (
		policy     = flag.String("policy", "CMM-a", "policy: "+strings.Join(cmm.Policies(), ", "))
		benchmarks = flag.String("benchmarks", "", "comma-separated benchmark names (one per core)")
		mix        = flag.String("mix", "", "workload category to draw a mix from: "+strings.Join(cmm.Categories(), ", "))
		index      = flag.Int("index", 0, "mix index within the category [0,10)")
		cores      = flag.Int("cores", 8, "core count when using -mix")
		epochs     = flag.Int("epochs", 5, "execution epochs to run")
		seed       = flag.Int64("seed", 1, "simulation seed")
		list       = flag.Bool("list", false, "list benchmarks and exit")
		hw         = flag.Bool("hw", false, "drive real hardware (msr driver + perf events) instead of the simulator")
		jsonOut    = flag.Bool("json", false, "dump the decision history as JSON at the end")
		ghz        = flag.Float64("ghz", 2.1, "core clock in GHz for -hw")
		listen     = flag.String("listen", "", "serve plain-text /metrics and expvar /debug/vars on this address (e.g. :8080) while the daemon runs")
		teleOut    = flag.String("telemetry", "", "append per-epoch telemetry events as JSONL to this file")
		pprofOn    = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the -listen address")
	)
	flag.Parse()

	// SIGINT/SIGTERM stop the epoch loop at the next epoch boundary and
	// shut the metrics listener down gracefully.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	sinks := []telemetry.Sink{&counters}
	if *teleOut != "" {
		f, err := os.Create(*teleOut)
		if err != nil {
			fatal(err)
		}
		jsonl := telemetry.NewJSONLSink(f)
		defer func() {
			if err := jsonl.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "cmmd: telemetry:", err)
			}
		}()
		sinks = append(sinks, jsonl)
	}
	sink := telemetry.Multi(sinks...)
	if *listen != "" {
		wait := serveMetrics(ctx, *listen, *pprofOn)
		defer func() { stop(); wait() }()
	}

	if *list {
		for _, b := range cmm.Benchmarks() {
			fmt.Printf("%-16s %-10s agg=%-5v friendly=%-5v llc-sensitive=%-5v %s\n",
				b.Name, b.Pattern, b.PrefetchAggressive, b.PrefetchFriendly, b.LLCSensitive, b.Analogue)
		}
		return
	}

	if *hw {
		// On real hardware the OS schedules the workloads; cmmd only
		// manages prefetchers and CAT around whatever is running.
		runHardware(*policy, *cores, *ghz, *epochs, sink)
		return
	}

	var names []string
	switch {
	case *benchmarks != "":
		names = strings.Split(*benchmarks, ",")
	case *mix != "":
		var err error
		names, err = cmm.MixBenchmarks(*mix, *index, *cores, *seed)
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("need -benchmarks or -mix"))
	}

	m, err := cmm.NewMachine(names, *seed)
	if err != nil {
		fatal(err)
	}
	if err := m.UsePolicy(*policy); err != nil {
		fatal(err)
	}
	m.SetTelemetrySink(sink)

	fmt.Printf("machine: %d cores, policy %s\n", m.NumCores(), m.PolicyName())
	for i, n := range m.BenchmarkNames() {
		fmt.Printf("  core %d: %s\n", i, n)
	}
	for e := 0; e < *epochs; e++ {
		if ctx.Err() != nil {
			fmt.Printf("interrupted after %d epochs\n", e)
			break
		}
		if err := m.RunEpochs(1); err != nil {
			fatal(err)
		}
		d := m.LastDecision()
		fmt.Printf("epoch %2d @%12d cycles: %s\n", e+1, m.Cycles(), d.Summary)
		if d.PartitionMasks != nil {
			fmt.Printf("           partitions:")
			for core, mask := range d.PartitionMasks {
				fmt.Printf(" c%d=%#x", core, mask)
			}
			fmt.Println()
		}
	}
	if *jsonOut {
		data, err := m.DecisionsJSON()
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
	}
	fmt.Printf("controller profiling overhead: %.2f%% of machine time\n", m.ControllerOverhead()*100)
	printCounters()
	ipcs := m.MeasureIPC(500_000)
	fmt.Printf("final IPCs: ")
	for i, v := range ipcs {
		if i > 0 {
			fmt.Print(" ")
		}
		fmt.Printf("%.3f", v)
	}
	fmt.Println()
}

// runHardware drives the real machine: the OS schedules whatever runs on
// the cores; cmmd only manages prefetchers and CAT around it.
func runHardware(policy string, cores int, ghz float64, epochs int, sink telemetry.Sink) {
	target, closeFn, err := newHardwareTarget(cores, ghz)
	if err != nil {
		fatal(fmt.Errorf("hardware target: %w", err))
	}
	defer closeFn()
	p, ok := icmm.PolicyByName(policy)
	if !ok {
		fatal(fmt.Errorf("unknown policy %q", policy))
	}
	cfg := icmm.DefaultConfig()
	// Paper-scale epochs on real time: 5e9 cycles execution, 1e8 sampling.
	cfg.ExecutionEpoch = 5_000_000_000
	cfg.SamplingInterval = 100_000_000
	ctrl, err := icmm.NewController(cfg, target, p)
	if err != nil {
		fatal(err)
	}
	ctrl.SetSink(sink)
	fmt.Printf("driving %d hardware cores with %s (epoch %.2fs, sample %.3fs)\n",
		cores, policy, float64(cfg.ExecutionEpoch)/(ghz*1e9), float64(cfg.SamplingInterval)/(ghz*1e9))
	for e := 0; e < epochs; e++ {
		if err := ctrl.RunEpochs(1); err != nil {
			fatal(err)
		}
		fmt.Printf("epoch %2d: %s\n", e+1, icmm.AggSummary(ctrl.LastDecision()))
	}
	printCounters()
}

// serveMetrics exposes the daemon's aggregate counters over HTTP: a
// plain-text /metrics endpoint (one "cmm_<name> <value>" line per
// counter) and the standard expvar JSON at /debug/vars. The listener
// carries the shared production timeouts and drains gracefully when ctx
// is cancelled; the returned wait blocks until it is down.
func serveMetrics(ctx context.Context, addr string, pprofOn bool) (wait func()) {
	counters.PublishExpvar("cmm_")
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		counters.WriteMetrics(w, "cmm_")
	})
	mux.Handle("/debug/vars", expvar.Handler())
	if pprofOn {
		server.MountPprof(mux)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(fmt.Errorf("listen %s: %w", addr, err))
	}
	fmt.Printf("telemetry: http://%s/metrics (expvar at /debug/vars)\n", ln.Addr())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := server.ServeUntil(ctx, server.NewHTTPServer(addr, mux), ln, 5*time.Second); err != nil {
			fmt.Fprintln(os.Stderr, "cmmd: metrics server:", err)
		}
	}()
	return func() { <-done }
}

// printCounters reports the aggregate telemetry after the epoch loop.
func printCounters() {
	s := counters.Snapshot()
	fmt.Printf("telemetry: %d epochs, %d detections, %d throttle flips, %d partition changes, %d sampling cycles\n",
		s["epochs_total"], s["detections_total"], s["throttle_flips_total"],
		s["partition_changes_total"], s["sampling_cycles_total"])
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cmmd:", err)
	os.Exit(1)
}
