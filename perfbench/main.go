// Command perfbench is the repository benchmark. It runs one of three
// workloads that together exercise every layer of the reproduction:
//
//	fig13-quick    the cold quick-mode Fig. 13 comparison (simulator-bound)
//	decide-replay  the controller's decide path over recorded Target traffic
//	service-mix    the job/read HTTP service with reads beside writes
//
// Usage (normally through run.sh, which builds this package first):
//
//	perfbench -workload NAME -seed N -seconds S -trace 0|1
//
// With -trace 0 the last stdout line is the end-to-end result; with
// -trace 1 the workload is run with in-memory spans at every layer
// boundary, a per-layer probe pass covers the layers the workload does not
// drive itself, and the last line carries the per-layer metrics. Every
// output is checked; a wrong output counts as a failed operation. README.md
// lists the metrics and which end-to-end number each layer should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp identifies the code and machine a result was measured on.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Commit     string `json:"commit"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
}

// busyClients is the most goroutines or connections any workload keeps
// busy: service-mix's two client connections.
const busyClients = 2

// env is what a workload runs with.
type env struct {
	root    string        // checkout root (models/, internal/experiments/testdata/)
	work    string        // scratch directory the workload may write under
	seed    int64         // input seed
	seconds time.Duration // length of the measured phase
	tr      *tracer       // nil when tracing is off
	// cmmbench is the cmd/cmmbench binary a traced run takes its
	// simulator microbenchmarks from.
	cmmbench string

	setupReps int    // minimum set-up repetitions behind setup_s
	traceDir  string // where a traced run writes its spans
	stamp     stamp
}

// outcome is one workload run's checked operations and metrics.
type outcome struct {
	attempted, failed int64
	metrics           map[string]metric
	layers            map[string]metric // per-layer metrics, set by traced runs
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// layer sets a per-layer metric; its unit comes from perLayer.
func (o *outcome) layer(name string, v float64) {
	if o.layers == nil {
		o.layers = map[string]metric{}
	}
	o.layers[name] = metric{Value: v, Unit: perLayer[name]}
}

// check counts one checked operation, failed when err is non-nil.
func (o *outcome) check(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if o.failed <= 5 {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
		}
	}
}

// workloads maps workload names to their end-to-end runs.
var workloads = map[string]func(env) (outcome, error){
	"fig13-quick":   runFig13,
	"decide-replay": runDecideReplay,
	"service-mix":   runServiceMix,
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	var (
		name    = fs.String("workload", "", "workload: fig13-quick, decide-replay or service-mix")
		seed    = fs.Int64("seed", 1, "input seed")
		seconds = fs.Int("seconds", 10, "length of the measured phase in seconds")
		trace   = fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
		root    = fs.String("root", ".", "checkout root")
		work    = fs.String("work", ".bench_build/work", "scratch directory inside the checkout")
		bench   = fs.String("cmmbench", ".bench_build/cmmbench", "cmd/cmmbench binary (traced runs)")
	)
	fs.Parse(os.Args[1:])
	if err := run(*name, *seed, *seconds, *trace, *root, *work, *bench); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, root, work, bench string) error {
	wl, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	if seconds < 1 {
		return fmt.Errorf("seconds %d < 1", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("trace %d: want 0 or 1", trace)
	}
	if err := checkClients(busyClients, runtime.NumCPU()); err != nil {
		return err
	}
	for _, p := range []string{goldenPath(root), modelPath(root)} {
		if _, err := os.Stat(p); err != nil {
			return fmt.Errorf("checkout incomplete: %w", err)
		}
	}
	scratch, err := os.MkdirTemp(mkdirAll(work), name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	st := stamp{
		Workload: name, Seed: seed, Commit: gitCommit(root),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: cpuModel(), GoVersion: runtime.Version(),
	}
	e := env{
		root: root, work: scratch, seed: seed, seconds: time.Duration(seconds) * time.Second, cmmbench: bench,
		setupReps: setupReps, traceDir: mkdirAll(filepath.Join(work, "traces")), stamp: st,
	}
	var out outcome
	if trace == 1 {
		out, err = runTraced(name, wl, e)
	} else {
		out, err = wl(e)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Stamp stamp `json:"stamp"`
	}{st})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	// Failed operations are not timed, so a run where every operation
	// failed has no samples and a metric may be NaN; JSON has no NaN.
	for k, m := range out.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			out.metrics[k] = metric{Unit: m.Unit}
		}
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	if res.Attempted < 1 {
		return errors.New("workload attempted no checked operation")
	}
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// checkClients refuses more busy clients than the machine has CPUs, so a
// workload never measures its own oversubscription.
func checkClients(clients, ncpu int) error {
	switch {
	case clients < 1:
		return fmt.Errorf("clients %d < 1", clients)
	case clients > ncpu:
		return fmt.Errorf("clients %d > nproc %d: refusing to oversubscribe the machine", clients, ncpu)
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func goldenPath(root string) string {
	return filepath.Join(root, "internal", "experiments", "testdata", "fig13_quick.json")
}

func modelPath(root string) string { return filepath.Join(root, "models", "cmml.json") }

func mkdirAll(dir string) string {
	os.MkdirAll(dir, 0o755) // a failure surfaces in the MkdirTemp that follows
	return dir
}

// gitCommit reads the checked-out commit from .git without running git;
// a checkout without .git reports "unknown".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, r, ok := strings.Cut(line, " "); ok && r == ref {
			return sha
		}
	}
	return "unknown"
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
}
