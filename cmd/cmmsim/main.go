// Command cmmsim regenerates the paper's tables and figures on the
// simulated machine.
//
// Usage:
//
//	cmmsim -table1                  # Table I (metric definitions)
//	cmmsim -fig 1                   # Fig. 1: memory BW w/ and w/o prefetch
//	cmmsim -fig 3                   # Fig. 3: IPC vs LLC ways
//	cmmsim -fig 7                   # Fig. 7: PT normalized HS/WS
//	cmmsim -fig 13 -full            # Fig. 13: all 7 mechanisms, full size
//	cmmsim -fig comparison -csv     # all policy metrics as CSV
//	cmmsim -fig 13 -workers 8 -progress  # fan runs over 8 workers
//	cmmsim -fig 13 -quick -telemetry out.jsonl  # per-epoch decision stream
//	cmmsim -fig 13 -cpuprofile cpu.pb.gz        # pprof the run
//	cmmsim -fig 13 -store runs/                 # memoize runs; a warm rerun
//	                                            # simulates nothing and is
//	                                            # bit-identical
//	cmmsim -fig 13 -model model.json            # add the learned CMM-L
//	                                            # policy to the comparison
//	cmmsim -fig 13 -topology 2x16               # 2 NUMA nodes, 16 cores
//	cmmsim -fig numasweep -sweepjson out.json   # many-core NUMA evaluation
//	                                            # (default geometry 8x64)
//
// Figures 7–15 share one comparison dataset; requesting any of them runs
// the whole set of policies the figure needs. -quick (default) uses 2
// mixes per category and short epochs; -full uses the paper's 10 mixes
// per category and longer windows.
//
// Simulation runs fan out across -workers goroutines (default: one per
// CPU). The output is deterministic: any worker count produces the
// identical tables, because results are keyed by (mix, policy, seed)
// index, never by completion order.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"cmm/internal/cmm"
	"cmm/internal/experiments"
	"cmm/internal/learn"
	"cmm/internal/mixes"
	"cmm/internal/runstore"
	"cmm/internal/sim"
	"cmm/internal/telemetry"
	"cmm/internal/workload"
)

func main() {
	var (
		fig        = flag.String("fig", "", "figure to regenerate: 1,2,3,7,8,9,10,11,12,13,14,15, 'comparison', 'bwsweep', or 'numasweep'")
		topo       = flag.String("topology", "", "NUMA geometry as NODESxCORES, e.g. 2x16 or 8x64 (default: 1x8; numasweep defaults to 8x64)")
		table1     = flag.Bool("table1", false, "print Table I")
		full       = flag.Bool("full", false, "paper-size run (10 mixes/category, longer windows, median of 3 seeds)")
		quick      = flag.Bool("quick", true, "cut-down run (2 mixes/category, short windows); the default, -quick=false is -full")
		csv        = flag.Bool("csv", false, "emit comparison data as CSV instead of tables")
		seeds      = flag.Int("seeds", 0, "override the number of run seeds (0 = option default)")
		mixesN     = flag.Int("mixes", 0, "override mixes per category (0 = option default)")
		out        = flag.String("out", "", "write output to file instead of stdout")
		workers    = flag.Int("workers", 0, "concurrent simulation runs (0 = NumCPU, 1 = serial); any value produces identical output")
		storeDir   = flag.String("store", "", "content-addressed run store directory; cached runs skip simulation and reproduce bit-identical output")
		progress   = flag.Bool("progress", false, "report per-run progress on stderr")
		teleOut    = flag.String("telemetry", "", "write per-epoch controller telemetry as JSONL to this file")
		sweepJSON  = flag.String("sweepjson", "", "with -fig bwsweep: also write the machine-readable sweep artifact (JSON) to this file")
		modelPath  = flag.String("model", "", "trained model file (cmmtrain output); adds the CMM-L policy to comparison figures")
		confidence = flag.Float64("confidence", 0, "CMM-L prediction-confidence threshold (0 = default)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile (pprof) to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile (pprof) to this file at exit")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cmmsim: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "cmmsim: memprofile:", err)
			}
		}()
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	if *table1 {
		experiments.WriteTable1(w)
		return
	}
	if *fig == "" {
		flag.Usage()
		os.Exit(2)
	}

	opts := experiments.QuickOptions()
	if *full || !*quick {
		opts = experiments.DefaultOptions()
	}
	if *seeds > 0 {
		opts.Seeds = opts.Seeds[:0]
		for s := int64(1); s <= int64(*seeds); s++ {
			opts.Seeds = append(opts.Seeds, s)
		}
	}
	if *mixesN > 0 {
		opts.MixesPerCategory = *mixesN
	}
	if *topo == "" && *fig == "numasweep" {
		*topo = "8x64"
	}
	if *topo != "" {
		nodes, cores, err := parseTopology(*topo)
		if err != nil {
			fatal(err)
		}
		opts.Cores = cores
		opts.Sim.Topology = sim.Topology{
			Nodes:         nodes,
			RemotePenalty: sim.DefaultRemotePenalty,
			ShardedRun:    true,
		}
	}
	opts.Workers = *workers
	if *storeDir != "" {
		store, err := runstore.Open(*storeDir)
		if err != nil {
			fatal(err)
		}
		opts.Store = store
		defer func() {
			st := store.Stats()
			fmt.Fprintf(os.Stderr, "cmmsim: store %s: %d hits, %d misses\n", *storeDir, st.Hits, st.Misses)
		}()
	}
	if *teleOut != "" {
		f, err := os.Create(*teleOut)
		if err != nil {
			fatal(err)
		}
		sink := telemetry.NewJSONLSink(f)
		defer func() {
			if err := sink.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "cmmsim: telemetry:", err)
			}
		}()
		opts.Telemetry = sink
	}
	if *progress {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r%d/%d runs", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	switch *fig {
	case "all":
		f1, f2, err := experiments.Characterize(opts, workload.Suite())
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(w, "=== Fig. 1: memory bandwidth, demand vs with-prefetch ===")
		experiments.WriteFig1(w, f1)
		fmt.Fprintln(w, "\n=== Fig. 2: IPC speedup from prefetching ===")
		experiments.WriteFig2(w, f2)
		f3, err := experiments.Fig3(opts)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(w, "\n=== Fig. 3: IPC vs allocated LLC ways ===")
		experiments.WriteFig3(w, f3)
		comp, err := experiments.RunComparison(opts, cmm.Policies()[1:])
		if err != nil {
			fatal(err)
		}
		for _, f := range []string{"7", "8", "9", "10", "11", "12", "13", "14", "15"} {
			fmt.Fprintln(w, "\n===", "Figure", f, "===")
			writeFigure(w, comp, f)
		}
		fmt.Fprintln(w, "\n=== markdown summary (EXPERIMENTS.md) ===")
		experiments.WriteMarkdownCharacterization(w, f1, f2, f3)
		experiments.WriteMarkdownSummary(w, comp)
		fmt.Fprintln(w, "\n=== controller telemetry ===")
		experiments.WriteTelemetry(w, comp)
		fmt.Fprintln(w, "\n=== raw comparison data (CSV) ===")
		fmt.Fprint(w, experiments.CSV(comp))
	case "1":
		rows, err := experiments.Fig1(opts)
		if err != nil {
			fatal(err)
		}
		experiments.WriteFig1(w, rows)
	case "2":
		rows, err := experiments.Fig2(opts)
		if err != nil {
			fatal(err)
		}
		experiments.WriteFig2(w, rows)
	case "3":
		rows, err := experiments.Fig3(opts)
		if err != nil {
			fatal(err)
		}
		experiments.WriteFig3(w, rows)
	case "bwsweep":
		if err := runBWSweep(w, opts, *sweepJSON, *csv); err != nil {
			fatal(err)
		}
	case "numasweep":
		if err := runNUMASweep(w, opts, *sweepJSON, *csv); err != nil {
			fatal(err)
		}
	case "7", "8", "9", "10", "11", "12", "13", "14", "15", "comparison":
		policies := cmm.Policies()[1:]
		withLearned := false
		if *modelPath != "" {
			m, err := learn.LoadModel(*modelPath)
			if err != nil {
				fatal(err)
			}
			lp, err := cmm.NewLearned(m, *confidence)
			if err != nil {
				fatal(err)
			}
			policies = append(policies, lp)
			withLearned = true
		}
		comp, err := experiments.RunComparison(opts, policies)
		if err != nil {
			fatal(err)
		}
		if *csv {
			fmt.Fprint(w, experiments.CSV(comp))
			return
		}
		writeFigure(w, comp, *fig)
		if withLearned {
			fmt.Fprintln(w, "\nCMM-L (learned back end) vs the sampled CMM-a:")
			experiments.WriteHSWS(w, comp, "CMM-a", "CMM-L")
		}
		// Telemetry-enabled runs report controller overhead alongside the
		// figure ("comparison" always carries the summary).
		if *teleOut != "" || *fig == "comparison" || withLearned {
			fmt.Fprintln(w)
			experiments.WriteTelemetry(w, comp)
		}
	default:
		fatal(fmt.Errorf("unknown figure %q", *fig))
	}
}

// runBWSweep evaluates the CBP policies against the paper's coordinated
// mechanisms on the bandwidth-saturated mix family — the workloads where
// cache and prefetch control alone cannot relieve memory queueing delay.
// jsonPath, when set, receives the machine-readable artifact.
func runBWSweep(w io.Writer, opts experiments.Options, jsonPath string, asCSV bool) error {
	fam, err := mixes.BWSaturated(opts.Cores, opts.BaseSeed, 2*opts.MixesPerCategory)
	if err != nil {
		return err
	}
	policies := []cmm.Policy{
		&cmm.Coordinated{Variant: cmm.VariantA},
		&cmm.Coordinated{Variant: cmm.VariantB},
		&cmm.Coordinated{Variant: cmm.VariantC},
		&cmm.CPBW{},
		&cmm.CPBWPT{},
	}
	comp, err := experiments.RunComparisonMixes(opts, fam, policies)
	if err != nil {
		return err
	}
	if asCSV {
		fmt.Fprint(w, experiments.CSV(comp))
		return nil
	}
	art := newBWSweepArtifact(comp)
	fmt.Fprintln(w, "BW sweep: bandwidth-saturated mixes, normalized HS and WS")
	experiments.WriteHSWS(w, comp, comp.Policies...)
	fmt.Fprintln(w)
	experiments.WriteTelemetry(w, comp)
	fmt.Fprintf(w, "\nmean NormHS: best CMM (%s) %.4f, CP+BW %.4f, CP+BW+PT %.4f — three-way wins: %v\n",
		art.BestCMM, art.BestCMMMeanHS, art.MeanNormHS["CP+BW"], art.MeanNormHS["CP+BW+PT"], art.ThreeWayWins)
	if jsonPath != "" {
		data, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(jsonPath, append(data, '\n'), 0o644)
	}
	return nil
}

// bwSweepArtifact is the committed evidence format for the CBP evaluation:
// per-mix scores plus the family-mean comparison against the best of the
// paper's CMM variants.
type bwSweepArtifact struct {
	Cores         int
	Seeds         []int64
	Mixes         []string
	Policies      []string
	Results       map[string][]experiments.MixResult
	MeanNormHS    map[string]float64
	MeanNormWS    map[string]float64
	BestCMM       string
	BestCMMMeanHS float64
	// ThreeWayWins records the acceptance check: CP+BW+PT's family-mean
	// NormHS strictly above the best of CMM-a/b/c.
	ThreeWayWins bool
}

func newBWSweepArtifact(comp *experiments.Comparison) bwSweepArtifact {
	art := bwSweepArtifact{
		Cores:      comp.Options.Cores,
		Seeds:      comp.Options.Seeds,
		Policies:   comp.Policies,
		Results:    comp.Results,
		MeanNormHS: map[string]float64{},
		MeanNormWS: map[string]float64{},
	}
	for _, m := range comp.Mixes {
		art.Mixes = append(art.Mixes, m.Name)
	}
	for _, p := range comp.Policies {
		hs := comp.CategoryMeans(p, experiments.MetricHS)
		ws := comp.CategoryMeans(p, experiments.MetricWS)
		art.MeanNormHS[p] = hs[mixes.BWSat]
		art.MeanNormWS[p] = ws[mixes.BWSat]
	}
	for _, p := range []string{"CMM-a", "CMM-b", "CMM-c"} {
		if hs, ok := art.MeanNormHS[p]; ok && (art.BestCMM == "" || hs > art.BestCMMMeanHS) {
			art.BestCMM, art.BestCMMMeanHS = p, hs
		}
	}
	art.ThreeWayWins = art.MeanNormHS["CP+BW+PT"] > art.BestCMMMeanHS
	return art
}

// parseTopology parses a NODESxCORES geometry string such as "2x16".
func parseTopology(s string) (nodes, cores int, err error) {
	if _, err := fmt.Sscanf(s, "%dx%d", &nodes, &cores); err != nil {
		return 0, 0, fmt.Errorf("topology %q: want NODESxCORES, e.g. 2x16", s)
	}
	if nodes < 1 || cores < nodes || cores%nodes != 0 {
		return 0, 0, fmt.Errorf("topology %q: cores must be a positive multiple of nodes", s)
	}
	return nodes, cores, nil
}

// runNUMASweep evaluates the coordinated mechanisms against the CP-only
// partitioners on the many-core NUMA mix family — machines whose Agg set
// grows past Config.MaxIndividual, so prefetch control must fall back to
// group-level (K-Means) throttling and amortized combination profiling.
// jsonPath, when set, receives the machine-readable artifact.
func runNUMASweep(w io.Writer, opts experiments.Options, jsonPath string, asCSV bool) error {
	topo := opts.Sim.Topology
	// Amortize the exhaustive combination search across epochs: at 64
	// cores, re-profiling 2^entities combinations every epoch is exactly
	// the overhead the hot-path pass removes.
	opts.CMM.ComboRefreshEpochs = numaSweepComboRefresh
	fam, err := mixes.ManyCoreFamily(opts.Cores, opts.BaseSeed, 2*opts.MixesPerCategory)
	if err != nil {
		return err
	}
	policies := []cmm.Policy{
		cmm.Dunn{},
		cmm.PrefCP{},
		&cmm.Coordinated{Variant: cmm.VariantA},
		&cmm.CPBWPT{},
	}
	comp, err := experiments.RunComparisonMixes(opts, fam, policies)
	if err != nil {
		return err
	}
	if asCSV {
		fmt.Fprint(w, experiments.CSV(comp))
		return nil
	}
	art := newNUMASweepArtifact(comp, topo)
	fmt.Fprintf(w, "NUMA sweep: many-core mixes on %d nodes x %d cores, normalized HS and WS\n",
		art.Nodes, art.Cores)
	experiments.WriteHSWS(w, comp, comp.Policies...)
	fmt.Fprintln(w)
	experiments.WriteTelemetry(w, comp)
	fmt.Fprintf(w, "\nmean NormHS: best CP-only (%s) %.4f, CMM-a %.4f, CP+BW+PT %.4f — CMM beats CP-only: %v, CBP beats CP-only: %v\n",
		art.BestCPOnly, art.BestCPOnlyMeanHS, art.MeanNormHS["CMM-a"],
		art.MeanNormHS["CP+BW+PT"], art.CMMBeatsCPOnly, art.CBPBeatsCPOnly)
	if jsonPath != "" {
		data, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(jsonPath, append(data, '\n'), 0o644)
	}
	return nil
}

// numaSweepComboRefresh is the combination-profiling refresh interval the
// sweep runs with (re-probe the winning on/off combination every N epochs).
const numaSweepComboRefresh = 6

// numaSweepArtifact is the committed evidence format for the many-core
// NUMA evaluation: per-mix scores plus the family-mean comparison of the
// coordinated mechanisms against the best CP-only partitioner.
type numaSweepArtifact struct {
	Nodes              int
	Cores              int
	RemotePenalty      int
	ComboRefreshEpochs int
	Seeds              []int64
	Mixes              []string
	Policies           []string
	Results            map[string][]experiments.MixResult
	MeanNormHS         map[string]float64
	MeanNormWS         map[string]float64
	BestCPOnly         string
	BestCPOnlyMeanHS   float64
	// CMMBeatsCPOnly / CBPBeatsCPOnly record the acceptance check: the
	// coordinated mechanisms' family-mean NormHS strictly above the best
	// cache-partitioning-only mechanism at many-core scale.
	CMMBeatsCPOnly bool
	CBPBeatsCPOnly bool
}

func newNUMASweepArtifact(comp *experiments.Comparison, topo sim.Topology) numaSweepArtifact {
	nodes := topo.Nodes
	if nodes < 1 {
		nodes = 1
	}
	art := numaSweepArtifact{
		Nodes:              nodes,
		Cores:              comp.Options.Cores,
		RemotePenalty:      topo.RemotePenalty,
		ComboRefreshEpochs: numaSweepComboRefresh,
		Seeds:              comp.Options.Seeds,
		Policies:           comp.Policies,
		Results:            comp.Results,
		MeanNormHS:         map[string]float64{},
		MeanNormWS:         map[string]float64{},
	}
	for _, m := range comp.Mixes {
		art.Mixes = append(art.Mixes, m.Name)
	}
	for _, p := range comp.Policies {
		hs := comp.CategoryMeans(p, experiments.MetricHS)
		ws := comp.CategoryMeans(p, experiments.MetricWS)
		art.MeanNormHS[p] = hs[mixes.ManyCore]
		art.MeanNormWS[p] = ws[mixes.ManyCore]
	}
	for _, p := range []string{"Dunn", "Pref-CP"} {
		if hs, ok := art.MeanNormHS[p]; ok && (art.BestCPOnly == "" || hs > art.BestCPOnlyMeanHS) {
			art.BestCPOnly, art.BestCPOnlyMeanHS = p, hs
		}
	}
	art.CMMBeatsCPOnly = art.MeanNormHS["CMM-a"] > art.BestCPOnlyMeanHS
	art.CBPBeatsCPOnly = art.MeanNormHS["CP+BW+PT"] > art.BestCPOnlyMeanHS
	return art
}

func writeFigure(w io.Writer, comp *experiments.Comparison, fig string) {
	pt := []string{"PT"}
	cp := []string{"Dunn", "Pref-CP", "Pref-CP2"}
	cmms := []string{"CMM-a", "CMM-b", "CMM-c"}
	all := append(append(append([]string{}, pt...), cp...), cmms...)
	switch fig {
	case "7":
		fmt.Fprintln(w, "Fig. 7: normalized HS and WS of PT vs baseline")
		experiments.WriteHSWS(w, comp, pt...)
	case "8":
		fmt.Fprintln(w, "Fig. 8: lowest normalized IPC in each workload under PT")
		experiments.WriteSingleMetric(w, comp, "worst-case", experiments.MetricWorstCase, pt...)
	case "9":
		fmt.Fprintln(w, "Fig. 9: normalized HS and WS of the CP mechanisms")
		experiments.WriteHSWS(w, comp, cp...)
	case "10":
		fmt.Fprintln(w, "Fig. 10: worst-case speedup of the CP mechanisms")
		experiments.WriteSingleMetric(w, comp, "worst-case", experiments.MetricWorstCase, cp...)
	case "11":
		fmt.Fprintln(w, "Fig. 11: normalized HS and WS of CMM-a/b/c")
		experiments.WriteHSWS(w, comp, cmms...)
	case "12":
		fmt.Fprintln(w, "Fig. 12: worst-case speedup of CMM-a/b/c")
		experiments.WriteSingleMetric(w, comp, "worst-case", experiments.MetricWorstCase, cmms...)
	case "13":
		fmt.Fprintln(w, "Fig. 13: all 7 mechanisms, normalized HS and WS")
		experiments.WriteHSWS(w, comp, all...)
	case "14":
		fmt.Fprintln(w, "Fig. 14: normalized memory bandwidth")
		experiments.WriteSingleMetric(w, comp, "bandwidth", experiments.MetricBW, all...)
	case "15":
		fmt.Fprintln(w, "Fig. 15: normalized STALLS_L2_PENDING")
		experiments.WriteSingleMetric(w, comp, "stalls", experiments.MetricStalls, all...)
	case "comparison":
		for _, f := range []string{"13", "14", "15"} {
			writeFigure(w, comp, f)
			fmt.Fprintln(w, strings.Repeat("-", 60))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cmmsim:", err)
	os.Exit(1)
}
