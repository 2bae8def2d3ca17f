// Package cmm is the public API of the CMM reproduction: a coordinated
// multi-resource manager that treats hardware prefetchers and the shared
// last-level cache as two allocatable resources (Sun, Shen, Veidenbaum,
// "Combining Prefetch Control and Cache Partitioning to Improve Multicore
// Performance", IPDPS 2019).
//
// The package wraps three layers:
//
//   - a cycle-approximate simulation of the paper's 8-core Xeon E5-2620 v4
//     (private L1/L2 with four Intel-style hardware prefetchers per core,
//     a 20-way inclusive LLC partitioned via CAT way masks, a
//     bandwidth-limited memory model),
//   - the CMM framework itself: PMU-metric front-end detection of
//     prefetch-aggressive cores and the PT / Dunn / Pref-CP / Pref-CP2 /
//     CMM-a/b/c resource-allocation back ends, and
//   - a synthetic SPEC CPU2006-like benchmark suite and the workload-mix
//     generator of the paper's evaluation.
//
// Quick start:
//
//	m, err := cmm.NewMachine([]string{"410.bwaves", "rand_access",
//	    "429.mcf", "453.povray"}, 1)
//	if err != nil { ... }
//	if err := m.UsePolicy("CMM-a"); err != nil { ... }
//	if err := m.RunEpochs(4); err != nil { ... }
//	fmt.Println(m.DecisionSummary(), m.MeasureIPC(2_000_000))
package cmm

import (
	"encoding/json"
	"fmt"
	"sort"

	icmm "cmm/internal/cmm"
	"cmm/internal/mem"
	"cmm/internal/metrics"
	"cmm/internal/mixes"
	"cmm/internal/pmu"
	"cmm/internal/sim"
	"cmm/internal/telemetry"
	"cmm/internal/workload"
)

// Benchmark describes one synthetic benchmark of the suite.
type Benchmark struct {
	// Name is the identifier accepted by NewMachine ("410.bwaves", ...).
	Name string
	// Analogue documents which real program the generator stands in for.
	Analogue string
	// Pattern is the access-pattern shape ("stream", "randburst", ...).
	Pattern string
	// WorkingSetBytes is the touched region size.
	WorkingSetBytes int64
	// PrefetchAggressive, PrefetchFriendly, LLCSensitive are the paper's
	// Sec. IV-B classes.
	PrefetchAggressive, PrefetchFriendly, LLCSensitive bool
}

// Benchmarks lists the suite with its classification.
func Benchmarks() []Benchmark {
	classes := mixes.Classes()
	var out []Benchmark
	for _, s := range workload.Suite() {
		c := classes[s.Name]
		out = append(out, Benchmark{
			Name:               s.Name,
			Analogue:           s.Analogue,
			Pattern:            s.Pattern.String(),
			WorkingSetBytes:    s.WorkingSet,
			PrefetchAggressive: c.PrefAggressive,
			PrefetchFriendly:   c.PrefFriendly,
			LLCSensitive:       c.LLCSensitive,
		})
	}
	return out
}

// Policies lists the available resource-management policies in the paper's
// presentation order: baseline, PT, Dunn, Pref-CP, Pref-CP2, CMM-a/b/c.
func Policies() []string { return icmm.PolicyNames() }

// Categories lists the paper's workload categories.
func Categories() []string {
	out := make([]string, mixes.NumCategories)
	for c := mixes.Category(0); c < mixes.NumCategories; c++ {
		out[c] = c.String()
	}
	return out
}

// MixBenchmarks returns the benchmark names of one of the paper's
// evaluation mixes: category is a Categories() entry, index in [0,10).
func MixBenchmarks(category string, index int, cores int, seed int64) ([]string, error) {
	var cat mixes.Category
	found := false
	for c := mixes.Category(0); c < mixes.NumCategories; c++ {
		if c.String() == category {
			cat, found = c, true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("cmm: unknown category %q (want one of %v)", category, Categories())
	}
	m, err := mixes.Build(cat, cores, seed+int64(cat)*1000+int64(index))
	if err != nil {
		return nil, err
	}
	return m.BenchmarkNames(), nil
}

// Machine is a simulated multicore running one benchmark per core under a
// selectable CMM policy. Not safe for concurrent use.
type Machine struct {
	sys    *sim.System
	target *icmm.SimTarget
	cfg    icmm.Config
	ctrl   *icmm.Controller
	sink   telemetry.Sink

	// snapBuf and sampleBuf are reused across MeasureIPC windows so
	// repeated measurement loops stay allocation-free.
	snapBuf   []pmu.Snapshot
	sampleBuf []pmu.Sample
}

// Option customizes a Machine.
type Option func(*machineOptions)

type machineOptions struct {
	simCfg sim.Config
	cmmCfg icmm.Config
}

// WithSimConfig overrides the machine model (defaults to the paper's
// platform).
func WithSimConfig(cfg sim.Config) Option {
	return func(o *machineOptions) { o.simCfg = cfg }
}

// WithCMMConfig overrides the controller tunables (epoch lengths,
// detection thresholds, partition factor).
func WithCMMConfig(cfg icmm.Config) Option {
	return func(o *machineOptions) { o.cmmCfg = cfg }
}

// SimDefaults returns the default machine model for use with
// WithSimConfig.
func SimDefaults() sim.Config { return sim.DefaultConfig() }

// CMMDefaults returns the default controller tunables for use with
// WithCMMConfig.
func CMMDefaults() icmm.Config { return icmm.DefaultConfig() }

// NewMachine builds a machine running the named benchmarks, one per core.
func NewMachine(benchmarks []string, seed int64, opts ...Option) (*Machine, error) {
	o := machineOptions{simCfg: sim.DefaultConfig(), cmmCfg: icmm.DefaultConfig()}
	for _, opt := range opts {
		opt(&o)
	}
	specs := make([]workload.Spec, len(benchmarks))
	for i, name := range benchmarks {
		s, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("cmm: unknown benchmark %q (see Benchmarks())", name)
		}
		specs[i] = s
	}
	sys, err := sim.New(o.simCfg, specs, seed)
	if err != nil {
		return nil, err
	}
	m := &Machine{sys: sys, target: icmm.NewSimTarget(sys), cfg: o.cmmCfg}
	if err := m.UsePolicy("baseline"); err != nil {
		return nil, err
	}
	return m, nil
}

// NumCores returns the machine width.
func (m *Machine) NumCores() int { return m.sys.NumCores() }

// BenchmarkNames returns the per-core benchmark names.
func (m *Machine) BenchmarkNames() []string {
	out := make([]string, m.sys.NumCores())
	for i := range out {
		out[i] = m.sys.Core(i).Spec().Name
	}
	return out
}

// Cycles returns the machine's global cycle count.
func (m *Machine) Cycles() uint64 { return m.sys.Now() }

// UsePolicy switches the active policy ("baseline", "PT", "Dunn",
// "Pref-CP", "Pref-CP2", "CMM-a", "CMM-b", "CMM-c"). The controller's
// decision history restarts.
func (m *Machine) UsePolicy(name string) error {
	p, ok := icmm.PolicyByName(name)
	if !ok {
		return fmt.Errorf("cmm: unknown policy %q (want one of %v)", name, Policies())
	}
	ctrl, err := icmm.NewController(m.cfg, m.target, p)
	if err != nil {
		return err
	}
	ctrl.SetSink(m.sink)
	m.ctrl = ctrl
	return nil
}

// SetTelemetrySink streams one telemetry.Event per controller epoch to s,
// surviving UsePolicy switches; pass nil to disable (the default). The
// sink must be safe for concurrent use if the caller shares it across
// machines; every sink in internal/telemetry is.
func (m *Machine) SetTelemetrySink(s telemetry.Sink) {
	m.sink = s
	m.ctrl.SetSink(s)
}

// PolicyName returns the active policy's name.
func (m *Machine) PolicyName() string { return m.ctrl.Policy().Name() }

// RunEpochs executes n execution+profiling epochs under the active policy.
func (m *Machine) RunEpochs(n int) error { return m.ctrl.RunEpochs(n) }

// Run advances the machine by raw cycles without invoking the policy
// (useful for warmup or baseline measurement).
func (m *Machine) Run(cycles uint64) { m.sys.Run(cycles) }

// MeasureIPC runs the machine for the given cycles (policy inactive during
// the window) and returns each core's IPC over that window.
func (m *Machine) MeasureIPC(cycles uint64) []float64 {
	m.snapBuf = m.sys.SnapshotsInto(m.snapBuf)
	m.sys.Run(cycles)
	m.sampleBuf = m.sys.DeltasInto(m.sampleBuf, m.snapBuf)
	return sim.IPCs(m.sampleBuf)
}

// HarmonicMeanIPC is the hm_ipc proxy over a measurement window.
func (m *Machine) HarmonicMeanIPC(cycles uint64) float64 {
	return metrics.HarmonicMeanIPC(m.MeasureIPC(cycles))
}

// BandwidthGBs returns each core's cumulative average memory bandwidth in
// GB/s since construction (demand + prefetch).
func (m *Machine) BandwidthGBs() []float64 {
	out := make([]float64, m.sys.NumCores())
	for i := range out {
		cyc := m.sys.Core(i).PMU().Value(pmu.Cycles)
		out[i] = mem.BandwidthGBs(m.sys.TotalBytes(i), cyc, m.sys.Config().CoreGHz)
	}
	return out
}

// Decision summarizes one epoch's resource-allocation decision.
type Decision struct {
	// Policy is the back end that decided.
	Policy string
	// AggCores are the detected prefetch-aggressive cores.
	AggCores []int
	// Friendly and Unfriendly split AggCores by prefetch usefulness when
	// the policy measured it.
	Friendly, Unfriendly []int
	// ThrottledCores have their prefetchers disabled for the next epoch.
	ThrottledCores []int
	// PartitionMasks maps core → CAT way mask (nil when no partitioning).
	PartitionMasks []uint64
	// FellBackToDunn reports the empty-Agg fallback.
	FellBackToDunn bool
	// MBAThrottled lists cores whose memory bandwidth the CBP policies
	// (CP+BW, CP+BW+PT) rate-limit, with MBAPercent the programmed delay
	// value.
	MBAThrottled []int
	MBAPercent   uint64
	// Summary is a one-line human-readable description.
	Summary string
}

func convertDecision(d icmm.Decision, cores int) Decision {
	out := Decision{
		Policy:         d.Policy,
		AggCores:       append([]int(nil), d.Detection.Agg...),
		Friendly:       append([]int(nil), d.Friendly...),
		Unfriendly:     append([]int(nil), d.Unfriendly...),
		ThrottledCores: append([]int(nil), d.Disabled...),
		FellBackToDunn: d.FellBackToDunn,
		MBAThrottled:   append([]int(nil), d.MBAThrottled...),
		MBAPercent:     d.MBAPercent,
		Summary:        icmm.AggSummary(d),
	}
	sort.Ints(out.AggCores)
	if d.Plan != nil {
		out.PartitionMasks = make([]uint64, cores)
		for core, clos := range d.Plan.ClosByCore {
			out.PartitionMasks[core] = d.Plan.Masks[clos]
		}
	}
	return out
}

// Decisions returns every epoch decision since the last UsePolicy.
func (m *Machine) Decisions() []Decision {
	raw := m.ctrl.Decisions()
	out := make([]Decision, len(raw))
	for i, d := range raw {
		out[i] = convertDecision(d, m.sys.NumCores())
	}
	return out
}

// LastDecision returns the most recent epoch decision.
func (m *Machine) LastDecision() Decision {
	return convertDecision(m.ctrl.LastDecision(), m.sys.NumCores())
}

// DecisionSummary returns the most recent decision as a one-liner.
func (m *Machine) DecisionSummary() string {
	return icmm.AggSummary(m.ctrl.LastDecision())
}

// DecisionsJSON renders the controller's decision history as indented
// JSON — the format cmmd emits for tooling.
func (m *Machine) DecisionsJSON() ([]byte, error) {
	return json.MarshalIndent(m.Decisions(), "", "  ")
}

// ControllerOverhead returns the fraction of machine time the active
// controller has spent profiling (sampling intervals) rather than in
// execution epochs — the analogue of the paper's kernel-module overhead
// measurement.
func (m *Machine) ControllerOverhead() float64 { return m.ctrl.OverheadFraction() }

// Evaluate measures a complete policy-vs-baseline comparison for one set
// of benchmarks: it runs the baseline and the policy on identical machines
// and reports the paper's metrics.
type Evaluation struct {
	// PolicyIPC and BaselineIPC are per-core IPCs over the measurement.
	PolicyIPC, BaselineIPC []float64
	// NormWS is the normalized weighted speedup over baseline.
	NormWS float64
	// WorstCase is the minimum per-core speedup over baseline.
	WorstCase float64
}

// Evaluate runs policy and baseline side by side: warmEpochs controller
// epochs are discarded, measureEpochs are measured.
func Evaluate(benchmarks []string, policy string, seed int64, warmEpochs, measureEpochs int, opts ...Option) (Evaluation, error) {
	run := func(p string) ([]float64, error) {
		m, err := NewMachine(benchmarks, seed, opts...)
		if err != nil {
			return nil, err
		}
		if err := m.UsePolicy(p); err != nil {
			return nil, err
		}
		if err := m.RunEpochs(warmEpochs); err != nil {
			return nil, err
		}
		snaps := m.sys.Snapshots()
		if err := m.RunEpochs(measureEpochs); err != nil {
			return nil, err
		}
		return sim.IPCs(m.sys.Deltas(snaps)), nil
	}
	base, err := run("baseline")
	if err != nil {
		return Evaluation{}, err
	}
	pol, err := run(policy)
	if err != nil {
		return Evaluation{}, err
	}
	ws, err := metrics.NormalizedWS(pol, base)
	if err != nil {
		return Evaluation{}, err
	}
	worst, err := metrics.WorstCaseSpeedup(pol, base)
	if err != nil {
		return Evaluation{}, err
	}
	return Evaluation{PolicyIPC: pol, BaselineIPC: base, NormWS: ws, WorstCase: worst}, nil
}
