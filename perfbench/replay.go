package main

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"

	"cmm/internal/cat"
	icmm "cmm/internal/cmm"
	"cmm/internal/learn"
	"cmm/internal/mixes"
	"cmm/internal/pmu"
	"cmm/internal/sim"
)

// Recorded Target call kinds.
const (
	callPMU = iota
	callReadMSR
	callRun
)

// call is one recorded Target call and what the machine answered.
type call struct {
	kind int
	cpu  int
	reg  uint32
	val  uint64       // ReadMSR result or RunCycles count
	snap pmu.Snapshot // ReadPMU result
}

type msrKey struct {
	cpu int
	reg uint32
}

// epochRecord is one recorded controller epoch.
type epochRecord struct {
	calls    []call
	decision icmm.Decision     // deep copy of the epoch's decision
	msr      map[msrKey]uint64 // end-of-epoch value of every register written so far
	exec     []pmu.Sample      // the execution epoch's samples (layer probes)
}

// decideTrace is one policy's recorded run on one machine.
type decideTrace struct {
	name     string
	policy   icmm.Policy // cloned for every replay pass
	cfg      icmm.Config
	cores    int
	ghz      float64
	cat      cat.Config
	nodeOf   []int
	numNodes int
	epochs   []epochRecord
}

// traceSpec names one recorded configuration.
type traceSpec struct {
	name   string
	mix    int64 // which of the run's mixes, see recordTrace
	policy func() (icmm.Policy, error)
	cores  int
	nodes  int // 1: the paper's single-socket machine
	epochs int
}

// mixes8 is how many 8-core mixes decide-replay records each back end on,
// and mixes64 how many 64-core mixes it records CMM-a on. Decide time
// depends on the mix; with several mixes no single mix sets the median.
const (
	mixes8  = 3
	mixes64 = 3
)

// decideSpecs lists the decide-replay traces: five back ends on each of
// mixes8 8-core Pref Unfri mixes and CMM-a on each of mixes64 64-core,
// 8-node many-core mixes.
func decideSpecs(modelFile string, epochs8, epochs64 int) []traceSpec {
	fixed := func(p icmm.Policy) func() (icmm.Policy, error) {
		return func() (icmm.Policy, error) { return p.Clone(), nil }
	}
	learned := func() (icmm.Policy, error) {
		m, err := learn.LoadModel(modelFile)
		if err != nil {
			return nil, err
		}
		return icmm.NewLearned(m, 0)
	}
	var specs []traceSpec
	for mix := int64(0); mix < mixes8; mix++ {
		specs = append(specs,
			traceSpec{"pt", mix, fixed(icmm.PT{}), 8, 1, epochs8},
			traceSpec{"dunn", mix, fixed(icmm.Dunn{}), 8, 1, epochs8},
			traceSpec{"cmm-a", mix, fixed(&icmm.Coordinated{Variant: icmm.VariantA}), 8, 1, epochs8},
			traceSpec{"cp-bw-pt", mix, fixed(&icmm.CPBWPT{}), 8, 1, epochs8},
			traceSpec{"cmm-l", mix, learned, 8, 1, epochs8})
	}
	for mix := int64(0); mix < mixes64; mix++ {
		specs = append(specs, traceSpec{"cmm-a-64c", mix, fixed(&icmm.Coordinated{Variant: icmm.VariantA}), 64, 8, epochs64})
	}
	return specs
}

// decideConfig is the controller configuration of every trace: the
// reduced windows of the RunEpochs bench, so recording stays cheap while
// the decide work per epoch is the same.
func decideConfig() icmm.Config {
	cfg := icmm.DefaultConfig()
	cfg.ExecutionEpoch = 400_000
	cfg.SamplingInterval = 40_000
	return cfg
}

// recordTrace runs spec on a fresh simulated machine built from seed and
// records every Target call, decision and end-of-epoch MSR state. The
// run's mixes take seeds of their own, seed*mixes8+mix, so no two run
// seeds share a mix.
func recordTrace(spec traceSpec, seed int64) (*decideTrace, error) {
	cat := mixes.PrefUnfri
	scfg := sim.DefaultConfig()
	if spec.nodes > 1 {
		cat = mixes.ManyCore
		scfg = sim.NUMAConfig(spec.nodes)
	}
	seed = seed*mixes8 + spec.mix
	mix, err := mixes.Build(cat, spec.cores, seed)
	if err != nil {
		return nil, err
	}
	sys, err := sim.New(scfg, mix.Specs, seed)
	if err != nil {
		return nil, err
	}
	p, err := spec.policy()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	simT := icmm.NewSimTarget(sys)
	rec := &recorder{t: simT, written: map[msrKey]bool{}}
	ctrl, err := icmm.NewController(decideConfig(), rec, p.Clone())
	if err != nil {
		return nil, err
	}
	tr := &decideTrace{
		name: spec.name, policy: p, cfg: decideConfig(), cores: simT.NumCores(),
		ghz: simT.CoreGHz(), cat: simT.CATConfig(), numNodes: simT.NumNodes(),
	}
	for c := 0; c < tr.cores; c++ {
		tr.nodeOf = append(tr.nodeOf, simT.NodeOf(c))
	}
	for e := 0; e < spec.epochs; e++ {
		rec.calls = nil
		if err := ctrl.RunEpochs(1); err != nil {
			return nil, fmt.Errorf("%s: %w", spec.name, err)
		}
		dec, err := copyDecision(ctrl.LastDecision())
		if err != nil {
			return nil, fmt.Errorf("%s epoch %d: %w", spec.name, e, err)
		}
		state := map[msrKey]uint64{}
		for k := range rec.written {
			v, err := simT.ReadMSR(k.cpu, k.reg)
			if err != nil {
				return nil, err
			}
			state[k] = v
		}
		tr.epochs = append(tr.epochs, epochRecord{
			calls: rec.calls, decision: dec, msr: state, exec: execSamples(rec.calls, tr.cores),
		})
	}
	return tr, nil
}

// copyDecision deep-copies a decision through its JSON form, which
// round-trips every field exactly (policies reuse their buffers).
func copyDecision(d icmm.Decision) (icmm.Decision, error) {
	b, err := json.Marshal(d)
	if err != nil {
		return icmm.Decision{}, err
	}
	var out icmm.Decision
	err = json.Unmarshal(b, &out)
	return out, err
}

// execSamples rebuilds the execution epoch's samples: the controller reads
// every core's PMU, runs the epoch, then reads every core again.
func execSamples(calls []call, cores int) []pmu.Sample {
	var snaps []pmu.Snapshot
	for _, c := range calls {
		if c.kind == callPMU {
			snaps = append(snaps, c.snap)
			if len(snaps) == 2*cores {
				break
			}
		}
	}
	if len(snaps) < 2*cores {
		return nil
	}
	out := make([]pmu.Sample, cores)
	for i := range out {
		out[i] = snaps[cores+i].Delta(snaps[i])
	}
	return out
}

// recorder is a Target that forwards to the simulator and records every
// answer in call order.
type recorder struct {
	t       *icmm.SimTarget
	calls   []call
	written map[msrKey]bool
}

func (r *recorder) NumCores() int         { return r.t.NumCores() }
func (r *recorder) CoreGHz() float64      { return r.t.CoreGHz() }
func (r *recorder) CATConfig() cat.Config { return r.t.CATConfig() }
func (r *recorder) NumNodes() int         { return r.t.NumNodes() }
func (r *recorder) NodeOf(core int) int   { return r.t.NodeOf(core) }
func (r *recorder) ReadPMU(cpu int) pmu.Snapshot {
	s := r.t.ReadPMU(cpu)
	r.calls = append(r.calls, call{kind: callPMU, cpu: cpu, snap: s})
	return s
}

func (r *recorder) ReadMSR(cpu int, reg uint32) (uint64, error) {
	v, err := r.t.ReadMSR(cpu, reg)
	if err == nil {
		r.calls = append(r.calls, call{kind: callReadMSR, cpu: cpu, reg: reg, val: v})
	}
	return v, err
}

func (r *recorder) WriteMSR(cpu int, reg uint32, v uint64) error {
	r.written[msrKey{cpu, reg}] = true
	return r.t.WriteMSR(cpu, reg, v)
}

func (r *recorder) RunCycles(n uint64) {
	r.calls = append(r.calls, call{kind: callRun, val: n})
	r.t.RunCycles(n)
}

// replayTarget serves a recorded trace's answers in call order. RunCycles
// is a no-op, so a controller driving it does its decide work alone. The
// first call that departs from the recording is kept as the epoch's
// divergence; writes land in a register file checked at epoch end.
type replayTarget struct {
	tr        *decideTrace
	calls     []call
	pos       int
	regs      map[msrKey]uint64
	diverged  error
	pmuReads  int
	msrWrites int
}

func newReplayTarget(tr *decideTrace) *replayTarget {
	return &replayTarget{tr: tr, regs: map[msrKey]uint64{}}
}

// startEpoch points the target at epoch e's recorded calls.
func (r *replayTarget) startEpoch(e int) {
	r.calls, r.pos, r.diverged = r.tr.epochs[e].calls, 0, nil
}

func (r *replayTarget) next(kind, cpu int, reg uint32) (call, bool) {
	if r.diverged != nil {
		return call{}, false
	}
	if r.pos >= len(r.calls) {
		r.diverged = fmt.Errorf("call %d (kind %d, cpu %d) past the %d recorded", r.pos, kind, cpu, len(r.calls))
		return call{}, false
	}
	c := r.calls[r.pos]
	if c.kind != kind || c.cpu != cpu || c.reg != reg {
		r.diverged = fmt.Errorf("call %d: kind %d cpu %d reg %#x, recorded kind %d cpu %d reg %#x",
			r.pos, kind, cpu, reg, c.kind, c.cpu, c.reg)
		return call{}, false
	}
	r.pos++
	return c, true
}

func (r *replayTarget) NumCores() int         { return r.tr.cores }
func (r *replayTarget) CoreGHz() float64      { return r.tr.ghz }
func (r *replayTarget) CATConfig() cat.Config { return r.tr.cat }
func (r *replayTarget) NumNodes() int         { return r.tr.numNodes }
func (r *replayTarget) NodeOf(core int) int   { return r.tr.nodeOf[core] }

func (r *replayTarget) ReadPMU(cpu int) pmu.Snapshot {
	r.pmuReads++
	c, _ := r.next(callPMU, cpu, 0)
	return c.snap
}

func (r *replayTarget) ReadMSR(cpu int, reg uint32) (uint64, error) {
	c, _ := r.next(callReadMSR, cpu, reg)
	return c.val, nil
}

func (r *replayTarget) WriteMSR(cpu int, reg uint32, v uint64) error {
	r.msrWrites++
	r.regs[msrKey{cpu, reg}] = v
	return nil
}

func (r *replayTarget) RunCycles(n uint64) {
	if c, ok := r.next(callRun, 0, 0); ok && c.val != n {
		r.diverged = fmt.Errorf("call %d: RunCycles(%d), recorded %d", r.pos-1, n, c.val)
	}
}

// checkEpoch compares a replayed epoch with its recording: every recorded
// call consumed in order, the same decision, and the same end-of-epoch MSR
// state. MSR write order is not compared: CAT plans keep CLOS masks in a
// map, so mask writes come in random order.
func (r *replayTarget) checkEpoch(e int, got icmm.Decision) error {
	rec := &r.tr.epochs[e]
	if r.diverged != nil {
		return fmt.Errorf("%s epoch %d: %w", r.tr.name, e, r.diverged)
	}
	if r.pos != len(r.calls) {
		return fmt.Errorf("%s epoch %d: replay made %d of %d recorded calls", r.tr.name, e, r.pos, len(r.calls))
	}
	if !reflect.DeepEqual(got, rec.decision) {
		return fmt.Errorf("%s epoch %d: decision differs from the recording: %s", r.tr.name, e, icmm.AggSummary(got))
	}
	if len(r.regs) != len(rec.msr) {
		return fmt.Errorf("%s epoch %d: %d registers written, recorded %d", r.tr.name, e, len(r.regs), len(rec.msr))
	}
	for _, k := range sortedKeys(rec.msr) {
		if v, ok := r.regs[k]; !ok || v != rec.msr[k] {
			return fmt.Errorf("%s epoch %d: MSR %#x of cpu %d is %#x, recorded %#x", r.tr.name, e, k.reg, k.cpu, v, rec.msr[k])
		}
	}
	return nil
}

func sortedKeys(m map[msrKey]uint64) []msrKey {
	keys := make([]msrKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].cpu != keys[j].cpu {
			return keys[i].cpu < keys[j].cpu
		}
		return keys[i].reg < keys[j].reg
	})
	return keys
}
