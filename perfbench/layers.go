package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	icmm "cmm/internal/cmm"
	"cmm/internal/jobstore"
	"cmm/internal/kmeans"
	"cmm/internal/learn"
	"cmm/internal/mixes"
	"cmm/internal/pmu"
	"cmm/internal/runstore"
	"cmm/internal/sim"
)

// perLayer lists every per-layer metric a traced run reports, with its
// unit. README.md gives the end-to-end metric each should move.
var perLayer = map[string]string{
	"cache.lookup_hit_ns":              "ns",
	"cache.fill_evict_ns":              "ns",
	"sim.interval_ms":                  "ms",
	"sim.ns_per_instr":                 "ns",
	"cache.llc_miss_ratio":             "ratio",
	"prefetch.useful_ratio":            "ratio",
	"mem.utilization":                  "ratio",
	"cmm.sampling_intervals_per_epoch": "count",
	"cmm.profile_cycle_share":          "ratio",
	"cmm.epoch_ms":                     "ms",
	"cmm.decide_share":                 "ratio",
	"cmm.decide_us.pt":                 "us",
	"cmm.decide_us.dunn":               "us",
	"cmm.decide_us.cmm-a":              "us",
	"cmm.decide_us.cp-bw-pt":           "us",
	"cmm.decide_us.cmm-l":              "us",
	"cmm.decide_us.cmm-a-64c":          "us",
	"cmm.detect_us":                    "us",
	"cmm.split_us":                     "us",
	"cmm.pmu_reads_per_epoch":          "count",
	"cmm.msr_writes_per_epoch":         "count",
	"kmeans.best_by_dunn_us":           "us",
	"learn.predict_ns":                 "ns",
	"telemetry.emit_ns":                "ns",
	"experiments.solo_phase_s":         "s",
	"experiments.runs_phase_s":         "s",
	"runstore.get_us":                  "us",
	"runstore.put_us":                  "us",
	"runstore.hit_ratio":               "ratio",
	"jobstore.enqueue_us":              "us",
	"jobstore.list_ms":                 "ms",
	"jobstore.records":                 "count",
	"server.submit_ms":                 "ms",
	"server.queue_ms":                  "ms",
	"server.run_ms":                    "ms",
	"server.polls_per_job":             "count",
	"server.readcache_hit_ratio":       "ratio",
	"server.jobs_retained":             "count",
	"server.scrape_bytes":              "count",
	"server.scrape_ms":                 "ms",
	"trace_overhead_pct":               "%",
}

// Sizes of the small passes a traced run makes over the layers its own
// workload does not drive.
const (
	miniSeconds = time.Second
	miniConfigs = 2
)

// runTraced is a traced run: the workload once untraced and once traced
// (each with half the measured time and a single set-up), then small
// passes over the other workloads' layers and the layer probes. It
// reports the per-layer metrics and writes the spans next to the work
// directory.
func runTraced(name string, wl func(env) (outcome, error), e env) (outcome, error) {
	e.setupReps = 1
	e.seconds = max(e.seconds/2, time.Second)
	plain, err := wl(e)
	if err != nil {
		return plain, err
	}
	e.tr = newTracer()
	out, err := wl(e)
	if err != nil {
		return out, err
	}
	out.attempted += plain.attempted
	out.failed += plain.failed
	before, after := plain.metrics["op_ms"].Value, out.metrics["op_ms"].Value
	out.layer("trace_overhead_pct", 100*(after-before)/before)

	if name != "fig13-quick" {
		g, err := loadGolden(goldenPath(e.root))
		if err != nil {
			return out, err
		}
		ms, err := goldenMixes(benchPreset(), g.Mixes)
		if err != nil {
			return out, err
		}
		_, st, err := sweep(benchPreset(), ms, []icmm.Policy{icmm.PT{}}, e.tr, -1)
		if err != nil {
			return out, err
		}
		fig13Layers(&out, st)
	}
	if name != "decide-replay" {
		traces, err := recordAll(decideSpecs(modelPath(e.root), 2, 1), e.seed)
		if err != nil {
			return out, err
		}
		root := e.tr.open("decide-replay.mini", -1)
		st := replay(traces, miniSeconds, rand.New(rand.NewSource(e.seed)), e.tr, root, &out)
		e.tr.close(root)
		model, err := learn.LoadModel(modelPath(e.root))
		if err != nil {
			return out, err
		}
		decideLayers(&out, traces, st, model)
	}
	if name != "service-mix" {
		s, err := startService(e.work, e.seed, miniConfigs)
		if err != nil {
			return out, err
		}
		root := e.tr.open("service-mix.mini", -1)
		st := s.mixPhase(miniSeconds, e.seed, e.tr, root, &out)
		e.tr.close(root)
		err = serviceLayers(&out, s, st)
		s.stop()
		if err != nil {
			return out, err
		}
	}
	if err := simLayers(&out, e); err != nil {
		return out, err
	}
	out.metrics = out.layers
	for m := range perLayer {
		if _, ok := out.metrics[m]; !ok {
			return out, fmt.Errorf("traced run did not measure %s", m)
		}
	}
	for _, st := range e.tr.selfTimes() {
		fmt.Fprintf(os.Stderr, "self %-28s %8d spans %12.3f ms total %12.3f ms self\n", st.Name, st.Count, st.TotalMs, st.SelfMs)
	}
	path := filepath.Join(e.traceDir, fmt.Sprintf("trace-%s-%d.json", name, e.seed))
	if err := e.tr.write(path, e.stamp); err != nil {
		return out, err
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	return out, nil
}

// fig13Layers reports the experiment engine's phase times.
func fig13Layers(out *outcome, st sweepStats) {
	out.layer("experiments.solo_phase_s", st.solo.Seconds())
	out.layer("experiments.runs_phase_s", st.runs.Seconds())
}

// decideLayers reports the decide path's per-policy epoch times and call
// counts from a replay phase, and times its stages on recorded inputs.
func decideLayers(out *outcome, traces []*decideTrace, st replayStats, model *learn.Model) {
	for name, ds := range st.decide {
		out.layer("cmm.decide_us."+name, median(durMs(ds))*1e3)
	}
	out.layer("cmm.pmu_reads_per_epoch", float64(st.pmuReads)/float64(st.epochs))
	out.layer("cmm.msr_writes_per_epoch", float64(st.msrWrites)/float64(st.epochs))
	out.layer("telemetry.emit_ns", median(durMs(st.emits))*1e6)

	var execs [][]pmu.Sample
	var dets []icmm.Detection
	for _, t := range traces {
		if t.cores != 8 {
			continue
		}
		for _, ep := range t.epochs {
			execs = append(execs, ep.exec)
			dets = append(dets, ep.decision.Detection)
		}
	}
	cfg, ghz := traces[0].cfg, traces[0].ghz
	i := 0
	out.layer("cmm.detect_us", perCall(func() {
		icmm.DetectAgg(execs[i%len(execs)], ghz, cfg)
		i++
	})*1e6)
	// The split compares probe IPCs with prefetchers on and off; the
	// recorded probe and execution IPCs stand in for the two.
	out.layer("cmm.split_us", perCall(func() {
		k := i % len(dets)
		d, off := dets[k], make([]float64, len(execs[k]))
		for c, s := range execs[k] {
			off[c] = s.IPC()
		}
		icmm.SplitFriendly(d.Agg, d.IPC, off, cfg.FriendlyThreshold)
		i++
	})*1e6)
	out.layer("kmeans.best_by_dunn_us", perCall(func() {
		x := execs[i%len(execs)]
		stalls := make([]float64, len(x))
		for c, s := range x {
			stalls[c] = float64(s.Value(pmu.StallsL2Pending))
		}
		kmeans.BestByDunn(stalls, 2, 4)
		i++
	})*1e6)
	var vecs [][]float64
	for _, d := range dets {
		for c := range d.PGA {
			vecs = append(vecs, learn.Vector(d.PGA[c], d.PMR[c], d.PTR[c], d.LLCPT[c],
				d.IPC[c], d.MPKI[c], d.StallRatio[c], d.MemTraffic[c]))
		}
	}
	out.layer("learn.predict_ns", perCall(func() {
		model.Predict(vecs[i%len(vecs)])
		i++
	})*1e9)
}

// perCall returns the median seconds per call of f over batches of calls.
func perCall(f func()) float64 {
	const batch, batches = 64, 31
	var per []float64
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			f()
		}
		per = append(per, time.Since(t0).Seconds()/batch)
	}
	return median(per)
}

// serviceLayers reports the job/read service's layers from a mix phase,
// then times the run store and job store directly.
func serviceLayers(out *outcome, s *service, st svcStats) error {
	var submit, queue, run []float64
	polls := 0
	for _, j := range st.jobs {
		submit = append(submit, float64(j.submit)/1e6)
		queue = append(queue, float64(j.queue)/1e6)
		run = append(run, float64(j.run)/1e6)
		polls += j.polls
	}
	out.layer("server.submit_ms", median(submit))
	out.layer("server.queue_ms", median(queue))
	out.layer("server.run_ms", median(run))
	out.layer("server.polls_per_job", float64(polls)/float64(max(len(st.jobs), 1)))
	out.layer("server.scrape_ms", median(durMs(st.scrapes)))
	out.layer("server.scrape_bytes", float64(len(st.scrapeBody)))
	hits := scrapeValue(st.scrapeBody, "cmm_readcache_hits_total")
	misses := scrapeValue(st.scrapeBody, "cmm_readcache_misses_total")
	out.layer("server.readcache_hit_ratio", hits/max(hits+misses, 1))
	out.layer("server.jobs_retained", scrapeValue(st.scrapeBody, "cmm_jobs"))

	rs := s.store.Stats()
	gets, misses2 := float64(rs.Hits-st.storeBefore.Hits), float64(rs.Misses-st.storeBefore.Misses)
	out.layer("runstore.hit_ratio", gets/max(gets+misses2, 1))
	i := 0
	out.layer("runstore.get_us", perCall(func() {
		s.store.Get(s.hashes[i%len(s.hashes)])
		i++
	})*1e6)
	body, _ := s.store.Get(s.hashes[0])
	var puts []float64
	for k := 0; k < 32; k++ {
		key, err := runstore.Hash(fmt.Sprintf("perfbench probe %d", k))
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := s.store.Put(key, body); err != nil {
			return fmt.Errorf("runstore probe: %w", err)
		}
		puts = append(puts, time.Since(t0).Seconds()*1e6)
	}
	out.layer("runstore.put_us", median(puts))

	var lists []float64
	var records int
	for k := 0; k < 5; k++ {
		t0 := time.Now()
		recs, err := s.jobs.List()
		if err != nil {
			return fmt.Errorf("jobstore list: %w", err)
		}
		lists = append(lists, time.Since(t0).Seconds()*1e3)
		records = len(recs)
	}
	out.layer("jobstore.list_ms", median(lists))
	out.layer("jobstore.records", float64(records))
	// Enqueues go to a store of their own, so the server never adopts them.
	probe, err := jobstore.Open(filepath.Join(s.dir, "probe-jobs"))
	if err != nil {
		return err
	}
	var enq []float64
	for k := 0; k < 32; k++ {
		t0 := time.Now()
		if _, err := probe.Enqueue(fmt.Sprintf("probe-%d", k), s.configs[0], 3); err != nil {
			return fmt.Errorf("jobstore enqueue: %w", err)
		}
		enq = append(enq, time.Since(t0).Seconds()*1e6)
	}
	out.layer("jobstore.enqueue_us", median(enq))
	return nil
}

// probeBenchtime bounds each cmmbench microbenchmark.
const probeBenchtime = "200ms"

// benchProbes maps the cmd/cmmbench microbenchmarks to the per-layer
// metrics they measure, with the scale from ns per op to the metric's unit.
var benchProbes = []struct {
	bench, metric string
	scale         float64
}{
	{"CacheLookupHit", "cache.lookup_hit_ns", 1},
	{"CacheFillEvictLLC", "cache.fill_evict_ns", 1},
	{"MeasureLoop", "sim.interval_ms", 1e-6},
	{"RunEpochs", "cmm.epoch_ms", 1e-6},
}

// simLayers times the simulator layers by running the cmmbench binary's
// microbenchmarks (its own bench bodies, so the numbers stay comparable
// with the committed BENCH snapshots) and with a timing Target around a
// live controller, and reports the simulated statistics of that
// controller's epochs.
func simLayers(out *outcome, e env) error {
	path := filepath.Join(e.work, "cmmbench.json")
	cmd := exec.Command(e.cmmbench, "-sweep=false", "-geometry=false", "-benchtime", probeBenchtime, "-out", path)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("cmmbench: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var snap struct {
		Benchmarks []struct {
			Name    string
			NsPerOp float64
		}
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("cmmbench output: %w", err)
	}
	ns := map[string]float64{}
	for _, b := range snap.Benchmarks {
		ns[b.Name] = b.NsPerOp
	}
	for _, p := range benchProbes {
		if ns[p.bench] <= 0 {
			return fmt.Errorf("cmmbench reported no %s", p.bench)
		}
		out.layer(p.metric, ns[p.bench]*p.scale)
	}
	return epochProbe(out, e.seed)
}

// epochProbe runs CMM-a epochs on the 8-core Pref Unfri mix of seed
// through a Target that times RunCycles, and splits each epoch's wall time
// between simulated cycles and decide work.
func epochProbe(out *outcome, seed int64) error {
	const warm, timed = 1, 4
	mix, err := mixes.Build(mixes.PrefUnfri, 8, seed)
	if err != nil {
		return err
	}
	sys, err := sim.New(sim.DefaultConfig(), mix.Specs, seed)
	if err != nil {
		return err
	}
	tt := &cycleTimer{SimTarget: icmm.NewSimTarget(sys)}
	ctrl, err := icmm.NewController(decideConfig(), tt, &icmm.Coordinated{Variant: icmm.VariantA})
	if err != nil {
		return err
	}
	if err := ctrl.RunEpochs(warm); err != nil {
		return err
	}
	tt.busy, tt.instrs = 0, 0
	before := sys.Snapshots()
	nodeBytes, cycles0 := sumNodeBytes(sys), sys.Now()
	t0 := time.Now()
	if err := ctrl.RunEpochs(timed); err != nil {
		return err
	}
	wall := time.Since(t0)
	var d [pmu.NumEvents]float64
	for _, s := range sys.Deltas(before) {
		for ev := pmu.Event(0); ev < pmu.NumEvents; ev++ {
			d[ev] += float64(s.Value(ev))
		}
	}
	out.layer("cmm.decide_share", float64(wall-tt.busy)/float64(wall))
	out.layer("sim.ns_per_instr", float64(tt.busy)/float64(tt.instrs))
	out.layer("cache.llc_miss_ratio", (d[pmu.L3LoadMiss]+d[pmu.L3PrefMiss])/(d[pmu.L2DmMiss]+d[pmu.L2PrefMiss]))
	out.layer("prefetch.useful_ratio", 1-d[pmu.L2PrefMiss]/d[pmu.L2PrefReq])
	cfg := sys.Config()
	bytes := float64(sumNodeBytes(sys) - nodeBytes)
	out.layer("mem.utilization", bytes/(cfg.Mem.PeakBytesPerCycle*float64(sys.NumNodes())*float64(sys.Now()-cycles0)))
	decs := ctrl.Decisions()[warm:]
	sampled := 0
	for _, dec := range decs {
		sampled += dec.SampledCombos
	}
	out.layer("cmm.sampling_intervals_per_epoch", float64(sampled)/float64(len(decs)))
	out.layer("cmm.profile_cycle_share", ctrl.OverheadFraction())
	return nil
}

func sumNodeBytes(sys *sim.System) uint64 {
	var b uint64
	for nd := 0; nd < sys.NumNodes(); nd++ {
		b += sys.NodeBytes(nd)
	}
	return b
}

// cycleTimer is a Target that times RunCycles and counts the instructions
// the simulated cores retire in it.
type cycleTimer struct {
	*icmm.SimTarget
	busy   time.Duration
	instrs uint64
}

func (t *cycleTimer) RunCycles(n uint64) {
	var before uint64
	for c := 0; c < t.NumCores(); c++ {
		before += t.Sys.PMU(c).Value(pmu.Instructions)
	}
	t0 := time.Now()
	t.SimTarget.RunCycles(n)
	t.busy += time.Since(t0)
	for c := 0; c < t.NumCores(); c++ {
		t.instrs += t.Sys.PMU(c).Value(pmu.Instructions)
	}
	t.instrs -= before
}
