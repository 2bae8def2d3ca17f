// Package experiments reproduces every table and figure of the paper's
// evaluation: the solo characterisation behind Figs. 1–3 (and Table I via
// the pmu package), and the 40-mix policy comparison behind Figs. 7–15.
//
// Absolute numbers come from the simulator, not the authors' Xeon, so the
// harness targets the paper's *shapes*: who wins, by what rough factor,
// and where the crossovers fall. EXPERIMENTS.md records the side-by-side.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"cmm/internal/cmm"
	"cmm/internal/runstore"
	"cmm/internal/sim"
	"cmm/internal/telemetry"
)

// Options sizes an experiment run.
type Options struct {
	// Sim is the machine configuration.
	Sim sim.Config
	// CMM is the controller configuration.
	CMM cmm.Config
	// Cores is the mix width (paper: 8).
	Cores int
	// WarmEpochs is how many controller epochs to discard before
	// measuring.
	WarmEpochs int
	// MeasureEpochs is how many controller epochs the measurement spans.
	MeasureEpochs int
	// SoloWarmCycles/SoloMeasureCycles size the solo characterisation
	// runs (Figs. 1–3 and IPC-alone for HS).
	SoloWarmCycles, SoloMeasureCycles uint64
	// Seeds are the run seeds; the paper reports the median of three.
	Seeds []int64
	// MixesPerCategory lets quick runs use fewer than the paper's 10.
	MixesPerCategory int
	// BaseSeed feeds mix construction.
	BaseSeed int64
	// Workers bounds how many simulation runs execute concurrently.
	// 0 means runtime.NumCPU(); 1 is the serial path (no goroutines).
	// Results are keyed by index, never by completion order, so any
	// worker count produces bit-identical output — see the Workers=8 vs
	// Workers=1 equivalence test.
	Workers int
	// Progress, when non-nil, is invoked after each completed simulation
	// run with the number done so far and the total planned for the
	// current experiment. Invocations are serialized; the callback must
	// not block for long (it holds up a worker).
	Progress func(done, total int)
	// Telemetry, when non-nil, receives one telemetry.Event per
	// controller epoch of every (mix, policy, seed) run — stamped with
	// the run's identity via telemetry.WithRun — plus one solo event per
	// alone-IPC characterisation run. The sink is shared by all workers,
	// so it must be safe for concurrent use (every sink in the telemetry
	// package is). Telemetry is observation only: enabling it leaves
	// every simulated cycle, and therefore every figure, bit-identical.
	Telemetry telemetry.Sink
	// Store, when non-nil, memoizes run results content-addressed by the
	// full run configuration (machine config, workload specs, policy,
	// seed, epoch settings — see StoreSchema). Hits skip the simulation
	// entirely and decode the stored result, which is kept in canonical
	// JSON so a warm rerun is bit-identical to the cold run that filled
	// it. Cached runs emit no per-epoch telemetry (nothing executes);
	// each lookup emits one TypeStore event instead.
	Store *runstore.Store
	// Context, when non-nil, cancels the experiment between simulation
	// runs: no new runs start after it is done and the context's error is
	// returned. Runs already executing finish first (a single run is not
	// interruptible), so cancellation latency is one run.
	Context context.Context
}

// DefaultOptions returns the full-fidelity configuration used by the
// bench harness: paper-shaped mixes, median of three seeds.
func DefaultOptions() Options {
	return Options{
		Sim:               sim.DefaultConfig(),
		CMM:               cmm.DefaultConfig(),
		Cores:             8,
		WarmEpochs:        1,
		MeasureEpochs:     3,
		SoloWarmCycles:    8_000_000,
		SoloMeasureCycles: 8_000_000,
		Seeds:             []int64{1, 2, 3},
		MixesPerCategory:  10,
		BaseSeed:          1,
	}
}

// QuickOptions returns a cut-down configuration for tests and smoke runs:
// fewer mixes, one seed, shorter windows.
func QuickOptions() Options {
	o := DefaultOptions()
	o.CMM.ExecutionEpoch = 1_500_000
	o.CMM.SamplingInterval = 100_000
	o.MeasureEpochs = 2
	o.SoloWarmCycles = 3_000_000
	o.SoloMeasureCycles = 3_000_000
	o.Seeds = []int64{1}
	o.MixesPerCategory = 2
	return o
}

// Validate reports a descriptive error for unusable options.
func (o Options) Validate() error {
	if err := o.Sim.Validate(); err != nil {
		return err
	}
	if err := o.CMM.Validate(); err != nil {
		return err
	}
	switch {
	case o.Cores < 4:
		return fmt.Errorf("experiments: Cores %d < 4", o.Cores)
	case o.WarmEpochs < 0 || o.MeasureEpochs < 1:
		return fmt.Errorf("experiments: bad epoch counts %d/%d", o.WarmEpochs, o.MeasureEpochs)
	case o.SoloMeasureCycles == 0:
		return fmt.Errorf("experiments: SoloMeasureCycles must be positive")
	case len(o.Seeds) == 0:
		return fmt.Errorf("experiments: no seeds")
	case o.MixesPerCategory < 1:
		return fmt.Errorf("experiments: MixesPerCategory %d < 1", o.MixesPerCategory)
	case o.Workers < 0:
		return fmt.Errorf("experiments: Workers %d < 0", o.Workers)
	}
	return nil
}

// progressCounter serializes Options.Progress callbacks across workers.
type progressCounter struct {
	mu    sync.Mutex
	done  int
	total int
	fn    func(done, total int)
}

// newProgress returns a counter for total runs, or nil when the options
// carry no callback (the tick method is nil-safe).
func newProgress(o Options, total int) *progressCounter {
	if o.Progress == nil {
		return nil
	}
	return &progressCounter{total: total, fn: o.Progress}
}

// tick records one completed run and reports it. The callback runs under
// the lock, so concurrent workers report done in increasing order.
func (p *progressCounter) tick() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	p.fn(p.done, p.total)
}
