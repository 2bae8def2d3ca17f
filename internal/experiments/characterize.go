package experiments

import (
	"fmt"
	"sync"

	"cmm/internal/mem"
	"cmm/internal/mixes"
	"cmm/internal/msr"
	"cmm/internal/parallel"
	"cmm/internal/pmu"
	"cmm/internal/sim"
	"cmm/internal/telemetry"
	"cmm/internal/workload"
)

// soloRun measures one benchmark running alone: IPC, memory bandwidth and
// the PMU sample over the window. msrVal programs the prefetchers; ways>0
// restricts the core to a CAT partition of that many ways.
type soloRun struct {
	IPC     float64
	TotalBW float64 // GB/s, demand+prefetch
	Sample  pmu.Sample
}

// measBufs holds reusable PMU measurement buffers. Solo runs borrow them
// from measPool so repeated sweeps (and each parallel worker) reuse
// storage instead of allocating per run.
type measBufs struct {
	snaps   []pmu.Snapshot
	samples []pmu.Sample
}

var measPool = sync.Pool{New: func() any { return new(measBufs) }}

func runSolo(opts Options, spec workload.Spec, seed int64, msrVal uint64, ways int) (soloRun, error) {
	// Alone-IPC baselines run one core with local memory: a 1-core machine
	// is single-node by construction, so a multi-node Options.Sim topology
	// (whose node count cannot divide 1 core) is dropped here. This keeps
	// solo baselines comparable across geometries of the same machine.
	cfg := opts.Sim
	cfg.Topology = sim.Topology{}
	sys, err := sim.New(cfg, []workload.Spec{spec}, seed)
	if err != nil {
		return soloRun{}, err
	}
	if err := sys.Bank().Write(0, msr.MiscFeatureControl, msrVal); err != nil {
		return soloRun{}, err
	}
	if ways > 0 {
		m, err := sys.Config().CAT.Mask(0, ways)
		if err != nil {
			return soloRun{}, err
		}
		if err := sys.CAT().SetMask(1, m); err != nil {
			return soloRun{}, err
		}
		if err := sys.CAT().Assign(0, 1); err != nil {
			return soloRun{}, err
		}
	}
	sys.Run(opts.SoloWarmCycles)
	bufs := measPool.Get().(*measBufs)
	defer measPool.Put(bufs)
	bufs.snaps = sys.SnapshotsInto(bufs.snaps)
	bytesBefore := sys.TotalBytes(0)
	sys.Run(opts.SoloMeasureCycles)
	bufs.samples = sys.DeltasInto(bufs.samples, bufs.snaps)
	s := bufs.samples[0]
	bytes := sys.TotalBytes(0) - bytesBefore
	if opts.Telemetry != nil {
		opts.Telemetry.Emit(telemetry.Event{
			Type:       telemetry.TypeSolo,
			Benchmark:  spec.Name,
			Seed:       seed,
			IPC:        s.IPC(),
			ExecCycles: opts.SoloMeasureCycles,
		})
	}
	return soloRun{
		IPC:     s.IPC(),
		TotalBW: mem.BandwidthGBs(bytes, s.Value(pmu.Cycles), opts.Sim.CoreGHz),
		Sample:  s,
	}, nil
}

// Fig1Row is one bar of Fig. 1: a benchmark's demand memory bandwidth
// (prefetchers off) and its total bandwidth with prefetching.
type Fig1Row struct {
	Benchmark   string
	DemandGBs   float64 // bandwidth with prefetchers disabled
	PrefetchGBs float64 // bandwidth with prefetchers enabled
	IncreasePct float64 // (PrefetchGBs-DemandGBs)/DemandGBs * 100
	DemandMBs   float64 // DemandGBs in MB/s (the paper's 1500 MB/s cut)
}

// Characterize runs each benchmark solo with prefetchers on and off and
// derives both Fig. 1 (bandwidth) and Fig. 2 (speedup) rows from the same
// pair of runs. The per-benchmark off/on run pairs are independent solo
// simulations, so they fan out across Options.Workers; rows are assembled
// by benchmark index, keeping the output identical for any worker count.
func Characterize(opts Options, specs []workload.Spec) ([]Fig1Row, []Fig2Row, error) {
	if err := opts.Validate(); err != nil {
		return nil, nil, err
	}
	f1 := make([]Fig1Row, len(specs))
	f2 := make([]Fig2Row, len(specs))
	prog := newProgress(opts, 2*len(specs))
	err := parallel.ForEachCtx(opts.ctx(), opts.Workers, len(specs), func(i int) error {
		spec := specs[i]
		off, err := runSoloCached(opts, spec, opts.BaseSeed, msr.DisableAll, 0, runSolo)
		if err != nil {
			return fmt.Errorf("characterize %s off: %w", spec.Name, err)
		}
		prog.tick()
		on, err := runSoloCached(opts, spec, opts.BaseSeed, 0, 0, runSolo)
		if err != nil {
			return fmt.Errorf("characterize %s on: %w", spec.Name, err)
		}
		prog.tick()
		r1 := Fig1Row{
			Benchmark:   spec.Name,
			DemandGBs:   off.TotalBW,
			PrefetchGBs: on.TotalBW,
			DemandMBs:   off.TotalBW * 1000,
		}
		if off.TotalBW > 0 {
			r1.IncreasePct = (on.TotalBW - off.TotalBW) / off.TotalBW * 100
		}
		f1[i] = r1
		r2 := Fig2Row{Benchmark: spec.Name, IPCOn: on.IPC, IPCOff: off.IPC}
		if off.IPC > 0 {
			r2.SpeedupPct = (on.IPC/off.IPC - 1) * 100
		}
		f2[i] = r2
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return f1, f2, nil
}

// Fig1 measures memory bandwidth with and without prefetching for every
// benchmark in the suite.
func Fig1(opts Options) ([]Fig1Row, error) {
	f1, _, err := Characterize(opts, workload.Suite())
	return f1, err
}

// Fig2Row is one bar of Fig. 2: IPC speedup from prefetching.
type Fig2Row struct {
	Benchmark  string
	IPCOn      float64
	IPCOff     float64
	SpeedupPct float64 // (on/off - 1) * 100
}

// Fig2 measures the solo IPC speedup from prefetching for every benchmark.
func Fig2(opts Options) ([]Fig2Row, error) {
	_, f2, err := Characterize(opts, workload.Suite())
	return f2, err
}

// Fig3Ways is the way sweep used for Fig. 3.
var Fig3Ways = []int{1, 2, 4, 6, 8, 10, 12, 16, 20}

// Fig3Row is one line of Fig. 3: IPC as a function of allocated LLC ways,
// prefetchers on.
type Fig3Row struct {
	Benchmark string
	Ways      []int
	IPC       []float64
	// NeedsForFrac[f] is the smallest swept way count reaching fraction f
	// of the peak IPC; the paper uses 0.8 and 0.9.
	Needs80, Needs90 int
}

// Fig3 sweeps LLC ways for every benchmark with prefetching enabled.
func Fig3(opts Options) ([]Fig3Row, error) {
	return Fig3Of(opts, workload.Suite(), Fig3Ways)
}

// Fig3Of sweeps the given way counts for the given benchmarks. Every
// (benchmark, ways) point is an independent solo run, so the full sweep
// fans out across Options.Workers; IPC values land in (benchmark, ways)
// slots and the needs-derivation runs serially afterwards, keeping the
// rows identical for any worker count.
func Fig3Of(opts Options, specs []workload.Spec, ways []int) ([]Fig3Row, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	rows := make([]Fig3Row, len(specs))
	for i, spec := range specs {
		rows[i] = Fig3Row{Benchmark: spec.Name, Ways: ways, IPC: make([]float64, len(ways))}
	}
	prog := newProgress(opts, len(specs)*len(ways))
	err := parallel.ForEachCtx(opts.ctx(), opts.Workers, len(specs)*len(ways), func(j int) error {
		si, wi := j/len(ways), j%len(ways)
		r, err := runSoloCached(opts, specs[si], opts.BaseSeed, 0, ways[wi], runSolo)
		if err != nil {
			return fmt.Errorf("fig3 %s %d ways: %w", specs[si].Name, ways[wi], err)
		}
		rows[si].IPC[wi] = r.IPC
		prog.tick()
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range rows {
		peak := 0.0
		for _, ipc := range rows[i].IPC {
			if ipc > peak {
				peak = ipc
			}
		}
		rows[i].Needs80 = needsWays(rows[i], 0.8*peak)
		rows[i].Needs90 = needsWays(rows[i], 0.9*peak)
	}
	return rows, nil
}

func needsWays(row Fig3Row, threshold float64) int {
	for i, ipc := range row.IPC {
		if ipc >= threshold {
			return row.Ways[i]
		}
	}
	return row.Ways[len(row.Ways)-1]
}

// Classify applies the paper's Sec. IV-B criteria to the measured
// characterisation: aggressive if demand BW > 1500 MB/s and prefetch BW
// increase > 50%; friendly if IPC speedup > 30%; LLC sensitive if >= 8
// ways are needed for 80% of peak.
func Classify(f1 []Fig1Row, f2 []Fig2Row, f3 []Fig3Row) map[string]mixes.Class {
	out := map[string]mixes.Class{}
	bw := map[string]Fig1Row{}
	for _, r := range f1 {
		bw[r.Benchmark] = r
	}
	speedup := map[string]Fig2Row{}
	for _, r := range f2 {
		speedup[r.Benchmark] = r
	}
	for _, r := range f3 {
		c := mixes.Class{}
		b := bw[r.Benchmark]
		c.PrefAggressive = b.DemandMBs > 1500 && b.IncreasePct > 50
		c.PrefFriendly = c.PrefAggressive && speedup[r.Benchmark].SpeedupPct > 30
		c.LLCSensitive = r.Needs80 >= 8
		out[r.Benchmark] = c
	}
	return out
}
