package cmm

import (
	"fmt"

	"cmm/internal/cat"
	"cmm/internal/pmu"
)

// The partition-aware back ends (Pref-CP, Pref-CP2, CMM-a/b/c, CP+BW,
// CP+BW+PT and CMM-L's sampling path) all run one staged epoch — the
// paper's Figs. 4–6 sequence, which CBP frames as one joint search over
// the back-end knobs:
//
//  1. probe: all prefetchers on for one sampling interval, DetectAgg;
//  2. quiet: with an empty Agg set, reset CAT or apply the Dunn plan
//     (Fig. 6(d)), drop the cached profiles, and release MBA;
//  3. split: the prefetch-off interval that separates prefetch-friendly
//     from -unfriendly Agg cores, or the comboGate reassert while the
//     cached profile is fresh;
//  4. layout: the Fig. 6 cache partitioning;
//  5. knobs: group-level prefetch throttling of the unfriendly class
//     (behind comboGate) and/or the profiled MBA partition.
//
// Each policy is a pipeline value selecting its stages.

// pipeline selects the stages of one partition-aware back end.
type pipeline struct {
	// dunn selects the Dunn plan for quiet epochs instead of a CAT reset.
	dunn bool
	// split runs the prefetch-off interval on Agg epochs.
	split bool
	// layout is the cache partitioning of the Agg set.
	layout layout
	// throttle searches prefetch combinations of the unfriendly class,
	// caching the profile in comboGate; a fresh gate replaces the split.
	throttle bool
	// mba profiles and applies a bandwidth partition (mbaSampler).
	mba bool
}

// pipelineState is the cross-epoch state of the throttle and mba stages:
// the profile caches and the entity-grouping scratch. The zero value has
// nothing cached.
type pipelineState struct {
	gate comboGate
	ents entityScratch
	mba  mbaSampler
}

// layout is one of the Fig. 6 cache layouts of the Agg set.
type layout uint8

const (
	// layoutAgg puts the whole Agg set into one small partition
	// (Fig. 6(a); also Pref-CP).
	layoutAgg layout = iota
	// layoutFriendly partitions the prefetch-friendly cores only; the
	// unfriendly ones share the whole cache (Fig. 6(b)).
	layoutFriendly
	// layoutGroups gives friendly and unfriendly cores adjacent small
	// partitions, numbering CLOS by non-empty group (Fig. 6(c); also
	// Pref-CP2).
	layoutGroups
	// layoutTwoClass is the Fig. 6(c) geometry over fixed CLOS ids —
	// friendly in mbaCLOSFriendly, unfriendly in mbaCLOSUnfriendly — so
	// the MBA stage can address a class by id.
	layoutTwoClass
)

// mbaCLOSFriendly and mbaCLOSUnfriendly are layoutTwoClass's fixed
// classes of service.
const (
	mbaCLOSFriendly   = 1
	mbaCLOSUnfriendly = 2
)

// probe is stage 1, shared by every back end that detects: one sampling
// interval with all prefetchers on (cores throttled in the previous epoch
// would otherwise show zero PTR/PGA), then Agg detection. It returns the
// probe samples and the epoch's decision seeded with the detection.
func probe(t Target, cfg Config, policy string) ([]pmu.Sample, Decision, error) {
	if err := setPrefetchers(t, nil); err != nil {
		return nil, Decision{}, err
	}
	samples := sampleInterval(t, cfg.SamplingInterval)
	det := DetectAgg(samples, t.CoreGHz(), cfg)
	return samples, Decision{Policy: policy, Detection: det, SampledCombos: 1}, nil
}

// epoch runs the whole pipeline for one controller epoch. st may be nil
// when neither the throttle nor the mba stage is selected.
func (p pipeline) epoch(t Target, cfg Config, exec []pmu.Sample, st *pipelineState, policy string) (Decision, error) {
	samples, dec, err := probe(t, cfg, policy)
	if err != nil {
		return Decision{}, err
	}
	return p.finish(t, cfg, exec, st, samples, dec)
}

// finish runs stages 2–5 on an epoch whose probe already ran; CMM-L's
// sampling path reuses the probe it predicted from.
func (p pipeline) finish(t Target, cfg Config, exec []pmu.Sample, st *pipelineState, samples []pmu.Sample, dec Decision) (Decision, error) {
	agg := dec.Detection.Agg
	if len(agg) == 0 {
		return p.quiet(t, exec, st, dec)
	}

	gated := p.throttle && st.gate.fresh(cfg, agg)
	switch {
	case gated:
		// The Agg set is unchanged and the cached profile is young:
		// reassert it for the probe's cost alone.
		st.gate.age++
		dec.Friendly = append([]int(nil), st.gate.friendly...)
		dec.Unfriendly = append([]int(nil), st.gate.unfriendly...)
	case p.split:
		if err := splitInterval(t, cfg, samples, &dec); err != nil {
			return Decision{}, err
		}
	}

	plan, err := p.layout.apply(t, cfg, &dec)
	if err != nil {
		return Decision{}, err
	}
	var alloc *cat.Allocator
	if p.mba {
		// Profile unthrottled: newly (re)assigned CLOS could carry a
		// stale delay from the previous epoch.
		alloc = allocatorFor(t)
		if err := releaseMBA(alloc); err != nil {
			return Decision{}, err
		}
	}

	if p.throttle {
		if gated {
			dec.BestScore = st.gate.score
			if len(st.gate.disabled) > 0 {
				dec.Disabled = append([]int(nil), st.gate.disabled...)
			}
			if err := setPrefetchers(t, dec.Disabled); err != nil {
				return Decision{}, err
			}
		} else if err := throttleUnfriendly(t, cfg, st, &dec); err != nil {
			return Decision{}, err
		}
	}

	if p.mba {
		// Every profiling run counts, prefetch combos and MBA levels
		// alike: the epoch-overhead comparison (sampled intervals vs.
		// decision quality) would silently flatter CBP otherwise.
		sampled, err := st.mba.epoch(t, cfg, alloc, plan, dec.Detection, &dec)
		dec.SampledCombos += sampled
		if err != nil {
			return Decision{}, err
		}
		if !p.throttle {
			// Without a combo search the bandwidth partition is the
			// epoch's only scored choice.
			dec.BestScore = dec.MBAGain
		}
	}
	return dec, nil
}

// quiet is stage 2: nothing aggressive to partition around.
func (p pipeline) quiet(t Target, exec []pmu.Sample, st *pipelineState, dec Decision) (Decision, error) {
	if p.throttle {
		st.gate.reset()
	}
	if p.mba {
		st.mba.reset()
	}
	if p.dunn {
		// Fig. 6(d): Dunn partitioning instead.
		plan, err := dunnPlan(t, exec)
		if err != nil {
			return Decision{}, err
		}
		if err := applyPlan(t, plan); err != nil {
			return Decision{}, err
		}
		dec.Plan = &plan
		dec.FellBackToDunn = true
	} else if err := resetCAT(t); err != nil {
		return Decision{}, err
	}
	if p.mba {
		if err := releaseMBA(allocatorFor(t)); err != nil {
			return Decision{}, err
		}
	}
	return dec, nil
}

// splitInterval is stage 3's sampled split: one interval with the Agg
// prefetchers off, whose per-core IPC against the probe's separates the
// prefetch-friendly from the -unfriendly Agg cores.
func splitInterval(t Target, cfg Config, samples []pmu.Sample, dec *Decision) error {
	agg := dec.Detection.Agg
	ipcOn := ipcsOf(samples)
	if err := setPrefetchers(t, agg); err != nil {
		return err
	}
	ipcOff := ipcsOf(sampleInterval(t, cfg.SamplingInterval))
	dec.SampledCombos++
	if err := setPrefetchers(t, nil); err != nil {
		return err
	}
	dec.Friendly, dec.Unfriendly = SplitFriendly(agg, ipcOn, ipcOff, cfg.FriendlyThreshold)
	return nil
}

// throttleUnfriendly is the throttle knob on a profiling epoch: search
// prefetch on/off combinations of the unfriendly class's entities (cores,
// or K-Means groups by PTR), keep the best, and cache the profile.
// Friendly cores always keep their prefetchers.
func throttleUnfriendly(t Target, cfg Config, st *pipelineState, dec *Decision) error {
	if len(dec.Unfriendly) > 0 {
		ents := st.ents.entities(dec.Unfriendly, dec.Detection.PTR, cfg)
		best, score, _, _, sampled, err := comboSearch(t, cfg, ents)
		if err != nil {
			return err
		}
		dec.SampledCombos += sampled
		dec.BestScore = score
		dec.Disabled = disabledFor(ents, best)
		if err := setPrefetchers(t, dec.Disabled); err != nil {
			return err
		}
	}
	st.gate.store(dec.Detection.Agg, dec.Friendly, dec.Unfriendly, dec.Disabled, dec.BestScore)
	return nil
}

// apply is stage 4: build the layout over the decision's Agg split,
// program it, and record it on the decision. Every partition is aggWays
// wide; the Fig. 6(c) layouts put friendly cores at way 0 and unfriendly
// cores right after them (at way 0 when there are none), pulled back to
// fit the cache.
func (l layout) apply(t Target, cfg Config, dec *Decision) (cat.Plan, error) {
	catCfg := t.CATConfig()
	agg, friendly, unfriendly := dec.Detection.Agg, dec.Friendly, dec.Unfriendly
	var groups []partitionGroup
	switch l {
	case layoutAgg:
		groups = []partitionGroup{{cores: agg, start: 0, ways: aggWays(cfg, catCfg, len(agg))}}
	case layoutFriendly:
		groups = []partitionGroup{{cores: friendly, start: 0, ways: aggWays(cfg, catCfg, len(friendly))}}
	case layoutGroups, layoutTwoClass:
		wF := aggWays(cfg, catCfg, len(friendly))
		wU := aggWays(cfg, catCfg, len(unfriendly))
		start := 0
		if len(friendly) > 0 {
			start = wF
		}
		if start+wU > catCfg.Ways {
			start = catCfg.Ways - wU
		}
		// planPartitions gives group i CLOS i+1 and skips empty groups,
		// so both groups pin friendly=mbaCLOSFriendly and
		// unfriendly=mbaCLOSUnfriendly.
		groups = []partitionGroup{
			{cores: friendly, start: 0, ways: wF},
			{cores: unfriendly, start: start, ways: wU},
		}
		if l == layoutGroups && len(friendly) == 0 {
			groups = groups[1:]
		}
	default:
		return cat.Plan{}, fmt.Errorf("cmm: unknown layout %d", l)
	}
	plan, err := planPartitions(t, groups)
	if err != nil {
		return cat.Plan{}, err
	}
	if err := applyPlan(t, plan); err != nil {
		return cat.Plan{}, err
	}
	dec.Plan = &plan
	return plan, nil
}
