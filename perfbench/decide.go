package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	icmm "cmm/internal/cmm"
	"cmm/internal/learn"
	"cmm/internal/pmu"
	"cmm/internal/telemetry"
)

// setupReps is how many times each workload repeats its set-up; setup_s is
// the median.
const setupReps = 3

// Recorded epochs per decide-replay trace: 8-core and 64-core machines.
const (
	replayEpochs8  = 4
	replayEpochs64 = 3
)

// recordAll records every spec's trace from seed.
func recordAll(specs []traceSpec, seed int64) ([]*decideTrace, error) {
	var out []*decideTrace
	for _, s := range specs {
		tr, err := recordTrace(s, seed)
		if err != nil {
			return nil, fmt.Errorf("record %s: %w", s.name, err)
		}
		out = append(out, tr)
	}
	return out, nil
}

// replayStats is what a replay phase measured; epochs that fail their
// check are left out.
type replayStats struct {
	decide    map[string][]time.Duration // per trace name, one entry per replayed epoch
	perEpoch  [][][]time.Duration        // per trace and recorded epoch, one entry per replay
	epochs    int
	decideSum time.Duration
	pmuReads  int
	msrWrites int
	emits     []time.Duration // sink emit times (traced runs only)
	cpu       time.Duration
}

// detailEvery is how often, in controller passes, a traced replay also
// times every Target call and sink emit; timing each call costs about as
// much as the decide work itself, so only a sample of passes pays it.
const detailEvery = 8

// replay loops controllers over the recorded traces until d has passed,
// checking every epoch. The trace order of each pass is shuffled from rng.
// With a tracer, each epoch records a span; on a sample of passes the
// epoch's Target calls and sink emit are recorded as its children.
func replay(traces []*decideTrace, d time.Duration, rng *rand.Rand, tr *tracer, parent int, out *outcome) replayStats {
	st := replayStats{decide: map[string][]time.Duration{}, perEpoch: make([][][]time.Duration, len(traces))}
	for i, t := range traces {
		st.perEpoch[i] = make([][]time.Duration, len(t.epochs))
	}
	counters := &telemetry.Counters{} // as cmmd -listen attaches
	order := make([]int, len(traces))
	for i := range order {
		order[i] = i
	}
	cpu0, start := cpuTime(), time.Now()
	for pass := 0; time.Since(start) < d; pass++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, ti := range order {
			t := traces[ti]
			rt := newReplayTarget(t)
			var target icmm.Target = rt
			var sink telemetry.Sink = counters
			var timed *timedTarget
			var ts *timedSink
			if tr != nil && pass%detailEvery == 0 {
				timed = &timedTarget{replayTarget: rt}
				ts = &timedSink{dst: counters}
				target, sink = timed, ts
			}
			ctrl, err := icmm.NewController(t.cfg, target, t.policy.Clone())
			if err != nil {
				out.check(err)
				continue
			}
			ctrl.SetSink(sink)
			for e := range t.epochs {
				rt.startEpoch(e)
				if timed != nil {
					timed.inCalls, ts.last = 0, 0
				}
				t0 := time.Now()
				err := ctrl.RunEpochs(1)
				dt := time.Since(t0)
				if err == nil {
					err = rt.checkEpoch(e, ctrl.LastDecision())
				}
				out.check(err)
				if err != nil {
					continue // a wrong epoch is counted as failed, not timed
				}
				st.decide[t.name] = append(st.decide[t.name], dt)
				st.perEpoch[ti][e] = append(st.perEpoch[ti][e], dt)
				st.decideSum += dt
				st.epochs++
				id := tr.add("replay.epoch."+t.name, parent, t0, t0.Add(dt))
				if timed != nil {
					// The epoch's Target calls are interleaved with decide
					// work; they are recorded as one child span of their
					// summed length, placed at the epoch start.
					tr.add("target.calls", id, t0, t0.Add(timed.inCalls))
					if ts.last > 0 {
						tr.add("telemetry.emit", id, t0.Add(dt-ts.last), t0.Add(dt))
						st.emits = append(st.emits, ts.last)
					}
				}
			}
			st.pmuReads += rt.pmuReads
			st.msrWrites += rt.msrWrites
		}
	}
	st.cpu = cpuTime() - cpu0
	return st
}

// timedTarget measures the time a controller spends inside Target calls.
type timedTarget struct {
	*replayTarget
	inCalls time.Duration
}

func (t *timedTarget) ReadPMU(cpu int) (s pmu.Snapshot) {
	t0 := time.Now()
	s = t.replayTarget.ReadPMU(cpu)
	t.inCalls += time.Since(t0)
	return s
}

func (t *timedTarget) ReadMSR(cpu int, reg uint32) (uint64, error) {
	t0 := time.Now()
	v, err := t.replayTarget.ReadMSR(cpu, reg)
	t.inCalls += time.Since(t0)
	return v, err
}

func (t *timedTarget) WriteMSR(cpu int, reg uint32, v uint64) error {
	t0 := time.Now()
	err := t.replayTarget.WriteMSR(cpu, reg, v)
	t.inCalls += time.Since(t0)
	return err
}

func (t *timedTarget) RunCycles(n uint64) {
	t0 := time.Now()
	t.replayTarget.RunCycles(n)
	t.inCalls += time.Since(t0)
}

// timedSink measures each Emit into dst.
type timedSink struct {
	dst  telemetry.Sink
	last time.Duration
}

func (s *timedSink) Emit(e telemetry.Event) {
	t0 := time.Now()
	s.dst.Emit(e)
	s.last = time.Since(t0)
}

// runDecideReplay is the decide-replay workload: set-up records live
// Target traffic for every trace of decideSpecs, the measured phase
// replays them.
func runDecideReplay(e env) (outcome, error) {
	var out outcome
	specs := decideSpecs(modelPath(e.root), replayEpochs8, replayEpochs64)
	traces, setupS, err := timeSetup(e.setupReps, func() ([]*decideTrace, error) {
		return recordAll(specs, e.seed)
	}, nil)
	if err != nil {
		return out, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	root := e.tr.open("decide-replay", -1)
	st := replay(traces, e.seconds, rng, e.tr, root, &out)
	e.tr.close(root)
	out.set("setup_s", "s", setupS)
	decideMetrics(&out, traces, st)
	if e.tr != nil {
		model, err := learn.LoadModel(modelPath(e.root))
		if err != nil {
			return out, err
		}
		decideLayers(&out, traces, st, model)
	}
	out.set("peak_rss_mb", "MB", peakRSSMB())
	return out, nil
}

// decideMetrics reports a replay phase's end-to-end metrics: the 8-core
// epochs are the primary operation, the 64-core epochs the secondary one.
//
// Decide time depends on the recorded epoch, through its mix and Agg set,
// and each recorded epoch is replayed thousands of times a run. A median
// over every replay lands on whichever recorded epoch sits in the middle,
// and which one that is moves with the seed: over the nine 64-core epochs
// it spread by a quarter to a third of its value over ten seeds. The
// typical epoch is therefore the mean over recorded epochs of each one's
// median replay, which averages the seed's mixes and keeps host jitter out.
//
// The 8-core tail is p99 over every replay of 60 recorded epochs. The
// 64-core p99 falls inside the repeats of the slowest of nine recorded
// epochs and measures host and GC jitter, so their tail is p90, which still
// leaves hundreds of replays beyond it.
func decideMetrics(out *outcome, traces []*decideTrace, st replayStats) {
	var eight []float64
	for name, ds := range st.decide {
		if name != "cmm-a-64c" {
			eight = append(eight, durMs(ds)...)
		}
	}
	many := durMs(st.decide["cmm-a-64c"])
	out.set("op_ms", "ms", typicalEpochMs(traces, st, 8))
	out.set("op_tail_ms", "ms", quantile(eight, 0.99))
	out.set("op2_ms", "ms", typicalEpochMs(traces, st, 64))
	out.set("op2_tail_ms", "ms", quantile(many, 0.90))
	fmt.Fprintf(os.Stderr, "decide-replay: %d 8-core and %d 64-core epochs\n", len(eight), len(many))
	out.set("work_per_s", "1/s", float64(st.epochs)/st.decideSum.Seconds())
	out.set("cpu_ms_per_op", "ms", float64(st.cpu)/1e6/float64(st.epochs))
}

// typicalEpochMs returns the mean, over the recorded epochs of the traces
// on machines of the given width, of each epoch's median replay time.
// Epochs whose every replay failed its check have no time and are left out.
func typicalEpochMs(traces []*decideTrace, st replayStats, cores int) float64 {
	var meds []float64
	sum := 0.0
	for ti, t := range traces {
		if t.cores != cores {
			continue
		}
		for _, ds := range st.perEpoch[ti] {
			if len(ds) > 0 {
				m := median(durMs(ds))
				meds = append(meds, m)
				sum += m
			}
		}
	}
	fmt.Fprintf(os.Stderr, "decide-replay: %d-core recorded epochs, median replay ms: %.4f\n", cores, meds)
	return sum / float64(len(meds))
}
