// Command cmmbench is the continuous benchmark harness: it runs the
// repo's performance-critical paths under testing.Benchmark and times a
// cold quick-mode Fig. 13 sweep, then writes one BENCH_<stamp>.json
// snapshot so performance can be tracked across commits.
//
// Usage:
//
//	cmmbench                        # microbenchmarks + quick sweep,
//	                                # writes BENCH_<UTC stamp>.json
//	cmmbench -quick                 # shorter benchtime, 1 mix/category
//	cmmbench -sweep=false           # microbenchmarks only
//	cmmbench -out bench.json        # explicit output path
//	cmmbench -benchtime 3s          # pass through to testing.Benchmark
//
// The JSON carries the machine identity (Go version, GOOS/GOARCH, CPU
// model, core count), every microbenchmark's iterations, ns/op, B/op and
// allocs/op, the sweep's cold wall time, and a GoBench line per benchmark
// in the standard text format, so `jq -r .GoBench[]` piped into benchstat
// compares any two snapshots.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"cmm"
	"cmm/internal/cache"
	cmmctl "cmm/internal/cmm" // aliased: the root package is also named cmm
	"cmm/internal/experiments"
	"cmm/internal/mixes"
	"cmm/internal/pmu"
	"cmm/internal/sim"
	"cmm/internal/workload"
)

// file is the snapshot schema written as BENCH_<stamp>.json.
//
// Schema history: v1 carried Benchmarks + Sweep; v2 added the Geometry
// section (many-core NUMA ns/epoch, naive vs optimized round loop).
type file struct {
	Schema     int    // schema version for downstream tooling
	Stamp      string // UTC, 20060102T150405Z
	GoVersion  string
	GOOS       string
	GOARCH     string
	NumCPU     int
	CPUModel   string // best-effort, from /proc/cpuinfo
	Benchtime  string // testing -benchtime in force
	Benchmarks []benchResult
	Sweep      *sweepResult     // nil when -sweep=false
	Geometry   []geometryResult // nil when -geometry=false
	GoBench    []string         // standard benchmark text lines (benchstat input)
}

type benchResult struct {
	Name        string
	Iterations  int
	NsPerOp     float64
	BytesPerOp  int64
	AllocsPerOp int64
}

// geometryResult is one many-core NUMA geometry's A/B comparison: the
// naive configuration (modulo round loop, combination re-profiling every
// epoch) against the optimized hot path (node-sharded round loop,
// amortized combination refresh). Runs are interleaved A/B per rep and the
// per-epoch medians reported, so machine noise hits both sides equally.
type geometryResult struct {
	Cores           int
	Nodes           int
	Reps            int     // interleaved A/B repetitions
	EpochsPerRep    int     // timed controller epochs per repetition
	ComboRefresh    int     // optimized side's ComboRefreshEpochs
	NaiveNsPerEpoch float64 // median ns/epoch, naive configuration
	OptNsPerEpoch   float64 // median ns/epoch, optimized configuration
	CutPct          float64 // 100 * (1 - Opt/Naive)
}

type sweepResult struct {
	WallSeconds      float64 // cold end-to-end RunComparison time
	MixesPerCategory int
	Policies         []string
	Mixes            int
	MeanNormHS       map[string]float64
}

func main() {
	var (
		out       = flag.String("out", "", "output path (default BENCH_<stamp>.json in the current directory)")
		quick     = flag.Bool("quick", false, "short benchtime and 1 mix/category: the CI smoke configuration")
		sweep     = flag.Bool("sweep", true, "run and time the quick Fig. 13 comparison sweep")
		geometry  = flag.Bool("geometry", true, "run the many-core NUMA geometry scaling benches (16/32/64 cores; -quick: 32 only)")
		benchtime = flag.String("benchtime", "", "testing -benchtime (default 1s, or 2x with -quick)")
		workers   = flag.Int("workers", 0, "concurrent sweep runs (0 = NumCPU); output is worker-count independent")
	)
	flag.Parse()

	bt := *benchtime
	if bt == "" {
		if *quick {
			bt = "2x"
		} else {
			bt = "1s"
		}
	}
	testing.Init()
	if err := flag.Set("test.benchtime", bt); err != nil {
		fatal(err)
	}

	now := time.Now().UTC()
	f := &file{
		Schema:    2,
		Stamp:     now.Format("20060102T150405Z"),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		CPUModel:  cpuModel(),
		Benchtime: bt,
	}

	for _, b := range benchmarks() {
		fmt.Fprintf(os.Stderr, "bench %-28s ", b.name)
		r := testing.Benchmark(b.fn)
		res := benchResult{
			Name:        b.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		f.Benchmarks = append(f.Benchmarks, res)
		line := fmt.Sprintf("Benchmark%s %8d %12.0f ns/op %8d B/op %8d allocs/op",
			b.name, r.N, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
		f.GoBench = append(f.GoBench, line)
		fmt.Fprintf(os.Stderr, "%12.0f ns/op %6d allocs/op\n", res.NsPerOp, res.AllocsPerOp)
	}

	if *sweep {
		opts := experiments.QuickOptions()
		if *quick {
			opts.MixesPerCategory = 1
		}
		opts.Workers = *workers
		fmt.Fprintf(os.Stderr, "sweep quick Fig. 13 (%d mix(es)/category, cold) ... ", opts.MixesPerCategory)
		start := time.Now()
		comp, err := experiments.RunComparison(opts, cmmctl.Policies()[1:])
		if err != nil {
			fatal(err)
		}
		wall := time.Since(start)
		sr := &sweepResult{
			WallSeconds:      wall.Seconds(),
			MixesPerCategory: opts.MixesPerCategory,
			Policies:         comp.Policies,
			Mixes:            len(comp.Mixes),
			MeanNormHS:       map[string]float64{},
		}
		for _, p := range comp.Policies {
			sum := 0.0
			for _, r := range comp.Results[p] {
				sum += r.NormHS
			}
			sr.MeanNormHS[p] = sum / float64(len(comp.Results[p]))
		}
		f.Sweep = sr
		f.GoBench = append(f.GoBench, fmt.Sprintf(
			"BenchmarkQuickFig13Sweep %8d %12.0f ns/op", 1, float64(wall.Nanoseconds())))
		fmt.Fprintf(os.Stderr, "%.1fs\n", wall.Seconds())
	}

	if *geometry {
		geoms := []struct{ cores, nodes int }{{16, 2}, {32, 4}, {64, 8}}
		reps := 5
		if *quick {
			geoms = geoms[1:2] // 32-core smoke only
			reps = 3
		}
		for _, g := range geoms {
			fmt.Fprintf(os.Stderr, "geometry %2dc/%dn (%d reps, interleaved A/B) ... ",
				g.cores, g.nodes, reps)
			gr, err := geometryBench(g.cores, g.nodes, reps)
			if err != nil {
				fatal(err)
			}
			f.Geometry = append(f.Geometry, gr)
			f.GoBench = append(f.GoBench,
				fmt.Sprintf("BenchmarkGeometryEpoch/naive_%dc_%dn %8d %12.0f ns/op",
					g.cores, g.nodes, gr.Reps*gr.EpochsPerRep, gr.NaiveNsPerEpoch),
				fmt.Sprintf("BenchmarkGeometryEpoch/opt_%dc_%dn %8d %12.0f ns/op",
					g.cores, g.nodes, gr.Reps*gr.EpochsPerRep, gr.OptNsPerEpoch))
			fmt.Fprintf(os.Stderr, "naive %.0f opt %.0f ns/epoch (cut %.1f%%)\n",
				gr.NaiveNsPerEpoch, gr.OptNsPerEpoch, gr.CutPct)
		}
	}

	path := *out
	if path == "" {
		path = "BENCH_" + f.Stamp + ".json"
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Println(path)
}

// namedBench pairs a benchmark body with its report name.
type namedBench struct {
	name string
	fn   func(b *testing.B)
}

// benchmarks returns the harness's fixed suite. The bodies mirror the
// package benchmarks of the same names (bench_test.go files) so numbers
// from CI test runs and from this harness line up.
func benchmarks() []namedBench {
	return []namedBench{
		{"RunEpochs", benchRunEpochs},
		{"MeasureLoop", benchMeasureLoop},
		{"CacheLookupHit", benchCacheLookupHit},
		{"CacheFillEvictLLC", benchCacheFillEvictLLC},
	}
}

// benchRunEpochs measures one full controller epoch (execution window,
// PMU delta, policy decision, MSR writes) on an 8-core Pref Unfri mix —
// the repo's headline ns/epoch metric.
func benchRunEpochs(b *testing.B) {
	names, err := cmm.MixBenchmarks(mixes.PrefUnfri.String(), 0, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := cmm.CMMDefaults()
	cfg.ExecutionEpoch = 400_000
	cfg.SamplingInterval = 40_000
	m, err := cmm.NewMachine(names, 1, cmm.WithCMMConfig(cfg))
	if err != nil {
		b.Fatal(err)
	}
	if err := m.UsePolicy("CMM-a"); err != nil {
		b.Fatal(err)
	}
	if err := m.RunEpochs(1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.RunEpochs(1); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMeasureLoop measures the steady-state snapshot/run/delta cycle the
// controllers sit in; it must stay allocation-free.
func benchMeasureLoop(b *testing.B) {
	specs := make([]workload.Spec, 8)
	suite := workload.Suite()
	for i := range specs {
		specs[i] = suite[i%len(suite)]
	}
	sys, err := sim.New(sim.DefaultConfig(), specs, 1)
	if err != nil {
		b.Fatal(err)
	}
	sys.Run(200_000)
	var snaps []pmu.Snapshot
	var samples []pmu.Sample
	// One warm pass so the measured loop reports the steady state: the
	// first iteration's buffer growth is setup, not epoch cost.
	snaps = sys.SnapshotsInto(snaps)
	samples = sys.DeltasInto(samples, snaps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snaps = sys.SnapshotsInto(snaps)
		sys.Run(sim.DefaultConfig().RoundCycles)
		samples = sys.DeltasInto(samples, snaps)
	}
	_ = samples
}

// benchCacheLookupHit measures a demand hit on the most recent way of an
// LLC-geometry set — the single hottest simulator operation.
func benchCacheLookupHit(b *testing.B) {
	c := cache.New(cache.Config{Sets: 16384, Ways: 20, LineBytes: 64, HitLatency: 44})
	mask := c.Config().AllWays()
	c.Fill(7, 0, false, mask, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(7, true, uint64(i))
	}
}

// benchCacheFillEvictLLC measures LRU eviction fills in a full
// LLC-geometry set under a partial CAT mask.
func benchCacheFillEvictLLC(b *testing.B) {
	cfg := cache.Config{Sets: 16384, Ways: 20, LineBytes: 64, HitLatency: 44}
	c := cache.New(cfg)
	mask := uint64(1)<<10 - 1 // 10-way partition
	sets := uint64(cfg.Sets)
	for i := uint64(0); i < sets*20; i++ {
		c.Fill(i, 0, false, c.Config().AllWays(), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Fill(sets*20+uint64(i), 0, false, mask, 0)
	}
}

// geoEpochs is how many controller epochs each timed repetition runs. It
// matches the optimized side's combination-refresh interval so one rep
// covers a full gate cycle (one re-profiled epoch plus gated epochs).
const geoEpochs = 6

// geometryBench times CMM-a controller epochs on a many-core NUMA mix in
// two configurations, interleaved naive/optimized per rep, and returns the
// medians. Naive: modulo round loop, combination re-profiling every epoch.
// Optimized: node-sharded round loop, refresh every geoEpochs epochs.
func geometryBench(cores, nodes, reps int) (geometryResult, error) {
	gr := geometryResult{
		Cores: cores, Nodes: nodes, Reps: reps,
		EpochsPerRep: geoEpochs, ComboRefresh: geoEpochs,
	}
	mix, err := mixes.Build(mixes.ManyCore, cores, 1)
	if err != nil {
		return gr, err
	}
	naive := make([]float64, 0, reps)
	opt := make([]float64, 0, reps)
	for rep := 0; rep < reps; rep++ {
		a, err := timeEpochs(mix, nodes, false, 1)
		if err != nil {
			return gr, err
		}
		b, err := timeEpochs(mix, nodes, true, geoEpochs)
		if err != nil {
			return gr, err
		}
		naive = append(naive, a)
		opt = append(opt, b)
	}
	gr.NaiveNsPerEpoch = median(naive)
	gr.OptNsPerEpoch = median(opt)
	gr.CutPct = 100 * (1 - gr.OptNsPerEpoch/gr.NaiveNsPerEpoch)
	return gr, nil
}

// timeEpochs builds a fresh machine for the mix at the given geometry and
// returns wall ns per controller epoch over geoEpochs epochs, after one
// warm epoch (initial buffer growth and the first combination profile are
// setup cost, not steady state).
func timeEpochs(mix mixes.Mix, nodes int, sharded bool, comboRefresh int) (float64, error) {
	scfg := sim.NUMAConfig(nodes)
	scfg.Topology.ShardedRun = sharded
	sys, err := sim.New(scfg, mix.Specs, 1)
	if err != nil {
		return 0, err
	}
	ccfg := cmmctl.DefaultConfig()
	// Reduced windows, as in benchRunEpochs: the loop structure is the
	// same, the wait for simulated cycles is shorter.
	ccfg.ExecutionEpoch = 400_000
	ccfg.SamplingInterval = 40_000
	ccfg.ComboRefreshEpochs = comboRefresh
	ctl, err := cmmctl.NewController(ccfg, cmmctl.NewSimTarget(sys), &cmmctl.Coordinated{Variant: cmmctl.VariantA})
	if err != nil {
		return 0, err
	}
	if err := ctl.RunEpochs(1); err != nil {
		return 0, err
	}
	start := time.Now()
	if err := ctl.RunEpochs(geoEpochs); err != nil {
		return 0, err
	}
	return float64(time.Since(start).Nanoseconds()) / geoEpochs, nil
}

// median returns the middle value (mean of the middle two for even n).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
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
	fmt.Fprintln(os.Stderr, "cmmbench:", err)
	os.Exit(1)
}
