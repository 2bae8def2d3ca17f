package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"cmm/internal/cache"
	"cmm/internal/mem"
	"cmm/internal/msr"
	"cmm/internal/pmu"
	"cmm/internal/prefetch"
	"cmm/internal/trace"
	"cmm/internal/workload"
)

// patternSpecs covers every workload pattern; the eighth core replays a
// recorded trace (see cloneGens).
func patternSpecs() []workload.Spec {
	return []workload.Spec{
		{Name: "stream", Pattern: workload.Stream, WorkingSet: 64 << 20, StepBytes: 16, Streams: 2, GapInstrs: 2, MLP: 4, StoreFrac: 0.1},
		{Name: "strided", Pattern: workload.Strided, WorkingSet: 32 << 20, StrideBytes: 256, GapInstrs: 3, MLP: 2},
		{Name: "random", Pattern: workload.RandomLine, WorkingSet: 16 << 20, Locality: 0.3, GapInstrs: 4, MLP: 2, StoreFrac: 0.2},
		{Name: "chase", Pattern: workload.PointerChase, WorkingSet: 8 << 20, GapInstrs: 2, MLP: 1},
		{Name: "randburst", Pattern: workload.RandBurst, WorkingSet: 64 << 20, Burst: 6, GapInstrs: 2, MLP: 3},
		{Name: "compute", Pattern: workload.Compute, WorkingSet: 16 << 10, GapInstrs: 20, MLP: 1},
		{Name: "phased", Pattern: workload.Phased, WorkingSet: 32 << 20, StepBytes: 64, PhaseRefs: 5000, GapInstrs: 2, MLP: 4},
	}
}

// cloneGens builds one generator per pattern plus a trace.Replayer of a
// random stream, short enough to wrap during a test run.
func cloneGens(t *testing.T, seed int64) []workload.Generator {
	t.Helper()
	var gens []workload.Generator
	for i, s := range patternSpecs() {
		g, err := workload.New(s, seed+int64(i))
		if err != nil {
			t.Fatal(err)
		}
		gens = append(gens, g)
	}
	rs := workload.Spec{Name: "replayed", Pattern: workload.RandomLine, WorkingSet: 4 << 20, GapInstrs: 3, MLP: 2}
	src, err := workload.New(rs, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Record(&buf, src, 20_000); err != nil {
		t.Fatal(err)
	}
	rp, err := trace.NewReplayer(&buf, rs)
	if err != nil {
		t.Fatal(err)
	}
	return append(gens, rp)
}

func cloneMachine(t *testing.T, cfg Config, seed int64) *System {
	t.Helper()
	s, err := NewWithGenerators(cfg, cloneGens(t, seed))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// recycledMachine is a machine of cfg's shape that has already run other
// work under other settings, so a copy onto it must overwrite everything.
func recycledMachine(t *testing.T, cfg Config) *System {
	t.Helper()
	specs := make([]workload.Spec, 8)
	for i := range specs {
		specs[i] = spec(t, "410.bwaves")
	}
	s, err := New(cfg, specs, 99)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(150_000)
	mask, err := s.Config().CAT.Mask(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CAT().SetMask(3, mask); err != nil {
		t.Fatal(err)
	}
	if err := s.CAT().Assign(6, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.Bank().Write(1, msr.MiscFeatureControl, msr.DisableL2Stream); err != nil {
		t.Fatal(err)
	}
	if err := s.Bank().Write(0, msr.MBAThrottleBase+3, 60); err != nil {
		t.Fatal(err)
	}
	s.Run(50_000)
	return s
}

// program writes a CAT mask, an MBA level and a prefetcher disable, as a
// policy would between epochs, and runs with them in force, so the MBA
// throttles and bandwidth shares are live. With pending it then leaves
// one more CAT association unapplied, as a copy taken right after a
// policy's writes would find it.
func program(t *testing.T, s *System, pending bool) {
	t.Helper()
	programKnobs(t, s)
	s.Run(60_000)
	if !pending {
		return
	}
	if err := s.CAT().Assign(3, 1); err != nil {
		t.Fatal(err)
	}
}

func programKnobs(t *testing.T, s *System) {
	t.Helper()
	cfg := s.Config().CAT
	mask, err := cfg.Mask(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	a := s.CAT()
	if err := a.SetMask(1, mask); err != nil {
		t.Fatal(err)
	}
	for _, core := range []int{0, 5} {
		if err := a.Assign(core, 1); err != nil {
			t.Fatal(err)
		}
	}
	step := cfg.CoresPerPackage
	if step == 0 {
		step = s.NumCores()
	}
	for leader := 0; leader < s.NumCores(); leader += step {
		if err := s.Bank().Write(leader, msr.MBAThrottleBase+1, 30); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Bank().Write(2, msr.MiscFeatureControl, msr.DisableAll); err != nil {
		t.Fatal(err)
	}
}

// machineState is everything observable about a machine that a copy must
// reproduce.
type machineState struct {
	Now       uint64
	PMU       []pmu.Snapshot
	Prefetch  []prefetch.Stats
	L1, L2    []cache.Stats
	LLC       []cache.Stats
	LLCValid  []int
	NodeBytes []uint64
	CoreBytes []uint64
	Util      []float64
	Latency   []int
	MSR       [][]uint64
	Hot       []coreHot         // derived fill masks
	Mem       []*mem.Controller // throttles, shares and windows included
}

func stateOf(s *System) machineState {
	st := machineState{Now: s.Now(), PMU: s.Snapshots()}
	for i := 0; i < s.NumCores(); i++ {
		c := s.Core(i)
		st.Prefetch = append(st.Prefetch, c.Prefetchers().Stats())
		st.L1 = append(st.L1, c.L1().Stats())
		st.L2 = append(st.L2, c.L2().Stats())
		st.CoreBytes = append(st.CoreBytes, s.TotalBytes(i))
		regs := []uint32{msr.MiscFeatureControl, msr.PQRAssoc}
		for clos := 0; clos < s.Config().CAT.NumCLOS; clos++ {
			regs = append(regs, msr.L3MaskBase+uint32(clos), msr.MBAThrottleBase+uint32(clos))
		}
		var vals []uint64
		for _, r := range regs {
			v, err := s.Bank().Read(i, r)
			if err != nil {
				v = ^uint64(0) // shows up as a difference
			}
			vals = append(vals, v)
		}
		st.MSR = append(st.MSR, vals)
	}
	for nd := 0; nd < s.NumNodes(); nd++ {
		st.LLC = append(st.LLC, s.LLCNode(nd).Stats())
		st.LLCValid = append(st.LLCValid, s.LLCNode(nd).ValidCount())
		st.NodeBytes = append(st.NodeBytes, s.NodeBytes(nd))
		st.Util = append(st.Util, s.MemoryNode(nd).Utilization())
		st.Latency = append(st.Latency, s.MemoryNode(nd).LoadedLatency())
		mc := mem.NewController(s.NumCores(), s.MemoryNode(nd).Config())
		mc.CopyFrom(s.MemoryNode(nd))
		st.Mem = append(st.Mem, mc)
	}
	st.Hot = append([]coreHot(nil), s.hot...)
	return st
}

func sameState(t *testing.T, what string, got, want machineState) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: machine state differs:\n got %+v\nwant %+v", what, got, want)
	}
}

var cloneConfigs = []struct {
	name string
	cfg  Config
}{
	{"1node", DefaultConfig()},
	{"2node", NUMAConfig(2)},
}

// TestCopyFromMatchesUninterruptedRun: running N cycles, copying onto a
// recycled machine and running M more is bit-identical to one machine
// running N+M, with a CAT mask, an MBA level and a prefetcher disable
// written just before the copy. The source is not moved by the copy
// advancing, and still runs on to the same state itself.
func TestCopyFromMatchesUninterruptedRun(t *testing.T) {
	const n, m = 400_000, 300_000
	for _, tc := range cloneConfigs {
		for _, pending := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/pending=%v", tc.name, pending), func(t *testing.T) {
				copyMatches(t, tc.cfg, pending, n, m)
			})
		}
	}
}

func copyMatches(t *testing.T, cfg Config, pending bool, n, m uint64) {
	ref := cloneMachine(t, cfg, 5)
	src := cloneMachine(t, cfg, 5)
	ref.Run(n)
	src.Run(n)
	program(t, ref, pending)
	program(t, src, pending)

	dst := recycledMachine(t, cfg)
	if err := dst.CopyFrom(src); err != nil {
		t.Fatal(err)
	}
	atCopy := stateOf(src)
	sameState(t, "right after the copy", stateOf(dst), atCopy)

	ref.Run(m)
	dst.Run(m)
	want := stateOf(ref)
	sameState(t, "copy after M cycles", stateOf(dst), want)
	sameState(t, "source after its copy ran", stateOf(src), atCopy)
	src.Run(m)
	sameState(t, "source after M cycles", stateOf(src), want)
}

// TestCloneConcurrentCopiesOfOnePrefix copies one source from several
// goroutines at once, by Clone and by CopyFrom onto recycled machines,
// and runs every copy on: each must match the uninterrupted run, and the
// source must not move. Run it under -race.
func TestCloneConcurrentCopiesOfOnePrefix(t *testing.T) {
	const n, m = 200_000, 150_000
	for _, tc := range cloneConfigs {
		t.Run(tc.name, func(t *testing.T) {
			ref := cloneMachine(t, tc.cfg, 8)
			src := cloneMachine(t, tc.cfg, 8)
			ref.Run(n)
			src.Run(n)
			program(t, ref, true)
			program(t, src, true)
			ref.Run(m)
			want := stateOf(ref)
			before := stateOf(src)

			recycled := []*System{recycledMachine(t, tc.cfg), recycledMachine(t, tc.cfg)}
			states := make([]machineState, 4)
			errs := make([]error, 4)
			var wg sync.WaitGroup
			for i := range states {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					var c *System
					if i < len(recycled) {
						c = recycled[i]
						if errs[i] = c.CopyFrom(src); errs[i] != nil {
							return
						}
					} else {
						c = src.Clone()
					}
					c.Run(m)
					states[i] = stateOf(c)
				}(i)
			}
			wg.Wait()
			for i, st := range states {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				sameState(t, "concurrent copy", st, want)
			}
			sameState(t, "source after concurrent copies", stateOf(src), before)
		})
	}
}

// TestResetMatchesNew: a recycled machine Reset to (specs, seed) runs
// exactly like New(cfg, specs, seed).
func TestResetMatchesNew(t *testing.T) {
	specs := suiteSpecs(t, 8)
	for _, tc := range cloneConfigs {
		t.Run(tc.name, func(t *testing.T) {
			fresh, err := New(tc.cfg, specs, 11)
			if err != nil {
				t.Fatal(err)
			}
			reused := recycledMachine(t, tc.cfg)
			if err := reused.Reset(specs, 11); err != nil {
				t.Fatal(err)
			}
			sameState(t, "after Reset", stateOf(reused), stateOf(fresh))
			fresh.Run(300_000)
			reused.Run(300_000)
			sameState(t, "after running", stateOf(reused), stateOf(fresh))
			if err := reused.Reset(specs[:4], 11); err == nil {
				t.Error("Reset with the wrong core count accepted")
			}
		})
	}
}

func TestCopyFromRejectsOtherShapes(t *testing.T) {
	eight := cloneMachine(t, DefaultConfig(), 1)
	four, err := New(DefaultConfig(), suiteSpecs(t, 4), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := four.CopyFrom(eight); err == nil {
		t.Error("copy across core counts accepted")
	}
	numa := cloneMachine(t, NUMAConfig(2), 1)
	if err := numa.CopyFrom(eight); err == nil {
		t.Error("copy across configs accepted")
	}
}

// historyRegs lists every control register a policy programs.
func historyRegs(s *System) []uint32 {
	regs := []uint32{msr.MiscFeatureControl, msr.PQRAssoc}
	for clos := 0; clos < s.Config().CAT.NumCLOS; clos++ {
		regs = append(regs, msr.L3MaskBase+uint32(clos), msr.MBAThrottleBase+uint32(clos))
	}
	return regs
}

// strayCLOS moves core 5, which programKnobs put in the MBA-throttled
// CLOS 1, to a CLOS the part does not have: its fill mask falls back to
// the full mask and its throttle keeps the value last derived for it.
func strayCLOS(t *testing.T, s *System) {
	t.Helper()
	if err := s.Bank().Write(5, msr.PQRAssoc, msr.PQRValue(0, s.Config().CAT.NumCLOS+2)); err != nil {
		t.Fatal(err)
	}
}

// TestHistoryKeyRewriteIsNoChange pins why the experiment engine may key
// a machine's future by its MSR image and cycle count alone: a machine
// that rewrote every control register to the value it already held
// (which marks its CAT state for re-derivation) runs on exactly like an
// untouched one, with and without a core whose PQR names an out-of-range
// CLOS.
func TestHistoryKeyRewriteIsNoChange(t *testing.T) {
	const n, m = 300_000, 200_000
	for _, tc := range cloneConfigs {
		for _, stray := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/stray=%v", tc.name, stray), func(t *testing.T) {
				untouched := cloneMachine(t, tc.cfg, 3)
				rewritten := cloneMachine(t, tc.cfg, 3)
				for _, s := range []*System{untouched, rewritten} {
					s.Run(n)
					program(t, s, false)
					if stray {
						strayCLOS(t, s)
						s.Run(m)
					}
				}
				for cpu := 0; cpu < rewritten.NumCores(); cpu++ {
					for _, reg := range historyRegs(rewritten) {
						v, err := rewritten.Bank().Read(cpu, reg)
						if err != nil {
							t.Fatal(err)
						}
						if err := rewritten.Bank().Write(cpu, reg, v); err != nil {
							t.Fatal(err)
						}
					}
				}
				if !rewritten.masksDirty {
					t.Fatal("rewriting the CAT registers left no refresh pending")
				}
				untouched.Run(m)
				rewritten.Run(m)
				sameState(t, "rewritten registers", stateOf(rewritten), stateOf(untouched))
			})
		}
	}
}

// TestHistoryKeyLoadImageMatchesWrites: loading a bank image
// (msr.Emulated.LoadImage) and running is running after the writes that
// produced the image, including writes that return registers to their
// reset values and a core moved to an out-of-range CLOS.
func TestHistoryKeyLoadImageMatchesWrites(t *testing.T) {
	const n, m = 300_000, 200_000
	for _, tc := range cloneConfigs {
		t.Run(tc.name, func(t *testing.T) {
			written := cloneMachine(t, tc.cfg, 4)
			loaded := cloneMachine(t, tc.cfg, 4)
			for _, s := range []*System{written, loaded} {
				s.Run(n)
				program(t, s, false)
			}
			// Undo part of programKnobs and program something new.
			a := written.CAT()
			if err := a.Assign(0, 0); err != nil {
				t.Fatal(err)
			}
			mask, err := written.Config().CAT.Mask(4, 8)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.SetMask(2, mask); err != nil {
				t.Fatal(err)
			}
			if err := a.Assign(6, 2); err != nil {
				t.Fatal(err)
			}
			if err := written.Bank().Write(2, msr.MiscFeatureControl, 0); err != nil {
				t.Fatal(err)
			}
			if err := written.Bank().Write(3, msr.MiscFeatureControl, msr.DisableL1IP); err != nil {
				t.Fatal(err)
			}
			strayCLOS(t, written)

			loaded.Bank().LoadImage(written.Bank().Image(nil))
			written.Run(m)
			loaded.Run(m)
			sameState(t, "loaded image", stateOf(loaded), stateOf(written))
		})
	}
}
