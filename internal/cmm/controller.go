package cmm

import (
	"fmt"
	"sort"

	"cmm/internal/cat"
	"cmm/internal/pmu"
	"cmm/internal/telemetry"
)

// Controller drives a policy over a target machine through the paper's
// epoch structure (Fig. 4): an execution epoch, then a profiling epoch of
// sampling intervals (run inside the policy), repeated.
type Controller struct {
	cfg    Config
	target Target
	policy Policy
	sink   telemetry.Sink

	decisions []Decision

	// snapBuf and execBuf are reused across epochs so the steady-state
	// loop does not allocate; policies receive execBuf as their exec
	// samples and must not retain it past the Epoch call.
	snapBuf []pmu.Snapshot
	execBuf []pmu.Sample
	ct      countingTarget

	// executionCycles and profilingCycles split the machine time the
	// controller has consumed between execution epochs and the policy's
	// profiling (sampling intervals). The paper reports its kernel
	// module's handler overhead below 0.1% of cycles; in this framework
	// the analogous cost is the profiling share, available from
	// OverheadFraction.
	executionCycles uint64
	profilingCycles uint64
}

// countingTarget wraps a Target to meter the cycles a policy consumes
// during profiling.
type countingTarget struct {
	Target
	cycles uint64
}

func (c *countingTarget) RunCycles(n uint64) {
	c.cycles += n
	c.Target.RunCycles(n)
}

// NewController validates the configuration and binds policy to target.
func NewController(cfg Config, t Target, p Policy) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if t == nil || p == nil {
		return nil, fmt.Errorf("cmm: nil target or policy")
	}
	return &Controller{cfg: cfg, target: t, policy: p}, nil
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// Policy returns the active back end.
func (c *Controller) Policy() Policy { return c.policy }

// Decisions returns every per-epoch decision taken so far.
func (c *Controller) Decisions() []Decision { return c.decisions }

// LastDecision returns the most recent decision, or a zero Decision.
func (c *Controller) LastDecision() Decision {
	if len(c.decisions) == 0 {
		return Decision{}
	}
	return c.decisions[len(c.decisions)-1]
}

// SetSink installs a telemetry sink that receives one Event per epoch run
// by RunEpochs. Pass nil to disable (the default): the disabled path costs
// a single nil check per epoch, so telemetry never shows up in overhead
// measurements unless it is on. The sink must be safe for concurrent use
// when the controller's owner shares it across goroutines.
func (c *Controller) SetSink(s telemetry.Sink) { c.sink = s }

// RunEpochs executes n full execution+profiling epochs: each snapshots
// the PMUs, runs the execution epoch, and hands over to FinishEpoch.
func (c *Controller) RunEpochs(n int) error {
	for i := 0; i < n; i++ {
		c.snapBuf = snapshotsInto(c.snapBuf, c.target)
		c.target.RunCycles(c.cfg.ExecutionEpoch)
		if err := c.FinishEpoch(c.snapBuf); err != nil {
			return err
		}
	}
	return nil
}

// FinishEpoch completes an epoch whose execution phase has already run:
// the target executed ExecutionEpoch cycles since the PMU snapshots snaps
// were taken, with no MSR written in between. It charges those cycles,
// runs the policy's profiling and decision, and emits the epoch's
// telemetry. RunEpochs is this after its own execution phase; calling it
// directly lets a caller share one execution phase among controllers —
// the experiment engine runs each mix's policy-independent first epoch
// once and copies the machine for every policy. snaps is only read.
func (c *Controller) FinishEpoch(snaps []pmu.Snapshot) error {
	c.executionCycles += c.cfg.ExecutionEpoch
	c.execBuf = deltasInto(c.execBuf, c.target, snaps)
	ct := &c.ct
	ct.Target, ct.cycles = c.target, 0
	dec, err := c.policy.Epoch(ct, c.cfg, c.execBuf)
	if err != nil {
		return fmt.Errorf("cmm: epoch %d (%s): %w", len(c.decisions), c.policy.Name(), err)
	}
	c.profilingCycles += ct.cycles
	c.annotateNodes(&dec)
	if c.sink != nil {
		var prev *Decision
		if len(c.decisions) > 0 {
			prev = &c.decisions[len(c.decisions)-1]
		}
		c.sink.Emit(epochEvent(len(c.decisions), dec, prev, c.cfg.ExecutionEpoch, ct.cycles))
	}
	c.decisions = append(c.decisions, dec)
	return nil
}

// annotateNodes attributes a decision to NUMA nodes when the target knows
// its topology (TopologyTarget) and has more than one node: the core→node
// map and the per-node Agg counts. Single-node targets leave both nil, so
// single-socket decisions (and their telemetry) are unchanged.
func (c *Controller) annotateNodes(dec *Decision) {
	tt, ok := c.target.(TopologyTarget)
	if !ok || tt.NumNodes() <= 1 {
		return
	}
	n := c.target.NumCores()
	dec.CoreNode = make([]int, n)
	for i := 0; i < n; i++ {
		dec.CoreNode[i] = tt.NodeOf(i)
	}
	dec.NodeAgg = make([]int, tt.NumNodes())
	for _, a := range dec.Detection.Agg {
		if a >= 0 && a < n {
			dec.NodeAgg[dec.CoreNode[a]]++
		}
	}
}

// epochEvent renders one decision as a telemetry event. prev is the
// preceding epoch's decision (nil on the first epoch, which compares
// against the reset state: nothing throttled, no partitioning).
func epochEvent(index int, dec Decision, prev *Decision, execCycles, profCycles uint64) telemetry.Event {
	e := telemetry.Event{
		Type:           telemetry.TypeEpoch,
		Policy:         dec.Policy,
		Epoch:          index,
		Agg:            sortedCopy(dec.Detection.Agg),
		Friendly:       sortedCopy(dec.Friendly),
		Unfriendly:     sortedCopy(dec.Unfriendly),
		Throttled:      sortedCopy(dec.Disabled),
		PartitionMasks: planMasks(dec.Plan),
		SampledCombos:  dec.SampledCombos,
		BestHMIPC:      dec.BestScore,
		FellBackToDunn: dec.FellBackToDunn,
		ExecCycles:     execCycles,
		ProfCycles:     profCycles,
		MBAThrottled:   sortedCopy(dec.MBAThrottled),
		MBAPercent:     dec.MBAPercent,
		MBALevels:      append([]uint64(nil), dec.MBALevels...),
		PGA:            append([]float64(nil), dec.Detection.PGA...),
		L2PMR:          append([]float64(nil), dec.Detection.PMR...),
		L2PTR:          append([]float64(nil), dec.Detection.PTR...),
		LLCPT:          append([]float64(nil), dec.Detection.LLCPT...),
		CoreIPC:        append([]float64(nil), dec.Detection.IPC...),
		MPKI:           append([]float64(nil), dec.Detection.MPKI...),
		StallRatio:     append([]float64(nil), dec.Detection.StallRatio...),
		MemTraffic:     append([]float64(nil), dec.Detection.MemTraffic...),
		Predicted:      dec.Predicted,
		PredConfidence: dec.PredConfidence,
		LearnFallback:  dec.LearnFallback,
		ShadowAudit:    dec.ShadowAudit,
		LearnDemoted:   dec.LearnDemoted,
		CoreNode:       append([]int(nil), dec.CoreNode...),
		NodeAgg:        append([]int(nil), dec.NodeAgg...),
	}
	var prevDisabled []int
	var prevPlan *cat.Plan
	var prevLevels []uint64
	if prev != nil {
		prevDisabled, prevPlan, prevLevels = prev.Disabled, prev.Plan, prev.MBALevels
	}
	e.ThrottleFlip = !equalInts(sortedCopy(dec.Disabled), sortedCopy(prevDisabled))
	e.PartitionChange = !plansEqual(dec.Plan, prevPlan)
	e.MBAChange = !mbaLevelsEqual(dec.MBALevels, prevLevels)
	return e
}

// mbaLevelsEqual compares two per-core MBA level vectors; nil means
// "no bandwidth partitioning", equivalent to an all-zero vector.
func mbaLevelsEqual(a, b []uint64) bool {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		var av, bv uint64
		if i < len(a) {
			av = a[i]
		}
		if i < len(b) {
			bv = b[i]
		}
		if av != bv {
			return false
		}
	}
	return true
}

// DecisionStats aggregates a decision history for reporting: how many
// epochs ran, how many detected a non-empty Agg set, how often the
// throttle set or partition plan changed between consecutive epochs, and
// the total sampling intervals spent profiling.
type DecisionStats struct {
	Epochs           int
	Detections       int
	ThrottleFlips    int
	PartitionChanges int
	SampledCombos    int
	// MBAChanges counts epochs whose per-core MBA level vector differs
	// from the previous epoch's (bandwidth repartitioning events).
	MBAChanges int `json:",omitempty"`
	// Predictions and LearnFallbacks count the learned policy's (CMM-L)
	// epochs decided by the model versus sent down the sampling path.
	Predictions    int `json:",omitempty"`
	LearnFallbacks int `json:",omitempty"`
	// ShadowAudits counts drift-monitor audit epochs and LearnDemotions
	// counts auto-demotion transitions (0 or 1 per model lifetime).
	ShadowAudits   int `json:",omitempty"`
	LearnDemotions int `json:",omitempty"`
}

// SummarizeDecisions reduces a decision history (Controller.Decisions) to
// its aggregate stats, using the same change definitions as the per-epoch
// telemetry events: the first epoch compares against the reset state.
func SummarizeDecisions(decs []Decision) DecisionStats {
	var s DecisionStats
	var prev *Decision
	for i := range decs {
		d := &decs[i]
		s.Epochs++
		if len(d.Detection.Agg) > 0 {
			s.Detections++
		}
		var prevDisabled []int
		var prevPlan *cat.Plan
		var prevLevels []uint64
		if prev != nil {
			prevDisabled, prevPlan, prevLevels = prev.Disabled, prev.Plan, prev.MBALevels
		}
		if !equalInts(sortedCopy(d.Disabled), sortedCopy(prevDisabled)) {
			s.ThrottleFlips++
		}
		if !plansEqual(d.Plan, prevPlan) {
			s.PartitionChanges++
		}
		if !mbaLevelsEqual(d.MBALevels, prevLevels) {
			s.MBAChanges++
		}
		s.SampledCombos += d.SampledCombos
		if d.Predicted {
			s.Predictions++
		}
		if d.LearnFallback {
			s.LearnFallbacks++
		}
		if d.ShadowAudit {
			s.ShadowAudits++
		}
		if d.LearnDemoted {
			s.LearnDemotions++
		}
		prev = d
	}
	return s
}

// planMasks flattens a CAT plan to per-core way masks (nil plan → nil).
func planMasks(p *cat.Plan) []uint64 {
	if p == nil {
		return nil
	}
	out := make([]uint64, len(p.ClosByCore))
	for core, clos := range p.ClosByCore {
		out[core] = p.Masks[clos]
	}
	return out
}

// plansEqual compares two plans by the per-core masks they program.
func plansEqual(a, b *cat.Plan) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	am, bm := planMasks(a), planMasks(b)
	if len(am) != len(bm) {
		return false
	}
	for i := range am {
		if am[i] != bm[i] {
			return false
		}
	}
	return true
}

// equalInts reports element-wise equality.
func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Overhead returns the machine cycles spent in execution epochs and in
// the policy's profiling (sampling intervals) so far.
func (c *Controller) Overhead() (execution, profiling uint64) {
	return c.executionCycles, c.profilingCycles
}

// OverheadFraction returns the share of machine time consumed by
// profiling, in [0,1).
func (c *Controller) OverheadFraction() float64 {
	total := c.executionCycles + c.profilingCycles
	if total == 0 {
		return 0
	}
	return float64(c.profilingCycles) / float64(total)
}

// AggSummary formats a decision's Agg analysis for logs and examples.
func AggSummary(d Decision) string {
	if len(d.Detection.Agg) == 0 {
		note := "agg set empty"
		if d.FellBackToDunn {
			note += " (fell back to Dunn partitioning)"
		}
		return note
	}
	s := fmt.Sprintf("agg=%v", d.Detection.Agg)
	if d.Friendly != nil || d.Unfriendly != nil {
		s += fmt.Sprintf(" friendly=%v unfriendly=%v", d.Friendly, d.Unfriendly)
	}
	if len(d.Disabled) > 0 {
		s += fmt.Sprintf(" throttled=%v", d.Disabled)
	} else {
		s += " throttled=[]"
	}
	return s
}

// Policies returns all evaluated back ends keyed by their report names, in
// the paper's presentation order (the "7 throttling mechanisms" of
// Fig. 13 plus the baseline).
func Policies() []Policy {
	return []Policy{
		Baseline{},
		PT{},
		Dunn{},
		PrefCP{},
		PrefCP2{},
		&Coordinated{Variant: VariantA},
		&Coordinated{Variant: VariantB},
		&Coordinated{Variant: VariantC},
	}
}

// ExtensionPolicies returns back ends beyond the paper's evaluated set:
// the CBP three-way coordination policies CP+BW and CP+BW+PT.
func ExtensionPolicies() []Policy {
	return []Policy{&CPBW{}, &CPBWPT{}}
}

// PolicyByName returns the policy with the given report name, searching
// the paper's set and the extensions.
func PolicyByName(name string) (Policy, bool) {
	for _, p := range append(Policies(), ExtensionPolicies()...) {
		if p.Name() == name {
			return p, true
		}
	}
	return nil, false
}

// PolicyNames lists the report names in presentation order.
func PolicyNames() []string {
	ps := Policies()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name()
	}
	return names
}

// sortedCopy returns a sorted copy of xs (helper for deterministic logs).
func sortedCopy(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}
