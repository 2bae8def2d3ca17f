package cmm

import (
	"fmt"
	"sort"

	"cmm/internal/cat"
	"cmm/internal/pmu"
)

// Coordinated bandwidth partitioning (CBP): the third back-end knob. The
// CBP follow-up to the paper jointly manages cache partitioning, memory
// bandwidth partitioning, and prefetch throttling; these policies bring
// that axis into the epoch controller. Both reuse the fixed-CLOS Fig. 6(c)
// cache layout (CLOS 1 = friendly, CLOS 2 = unfriendly) and profile MBA
// delay levels on throttle entities drawn from the same friendliness and
// K-Means machinery the prefetch search uses — one sampling interval per
// (entity, level) candidate, capped by Config.MBASampleBudget, re-profiled
// every Config.MBARefreshEpochs epochs and reasserted from cache between
// refreshes so the steady-state overhead matches the prefetch-only
// policies.

// mbaCLOSSampled is the dedicated class of service for the bandwidth
// target: the sampled entity moves here with its home class's cache mask,
// so the MBA delay lands on exactly those cores while their cache
// partition stays put.
const mbaCLOSSampled = 3

// mbaLevelGrid returns the nonzero delay levels to profile per candidate,
// in configuration order (gentlest first by default — single-entity wins
// cluster at low delays, and the budget may cut the tail).
func mbaLevelGrid(cfg Config) []uint64 {
	grid := make([]uint64, 0, len(cfg.MBALevels))
	for _, lvl := range cfg.MBALevels {
		if lvl != 0 {
			grid = append(grid, lvl)
		}
	}
	return grid
}

// releaseMBA zeroes the delay on every CLOS the CBP policies program.
func releaseMBA(alloc *cat.Allocator) error {
	for _, clos := range []int{mbaCLOSFriendly, mbaCLOSUnfriendly, mbaCLOSSampled} {
		if err := alloc.SetMBA(clos, 0); err != nil {
			return err
		}
	}
	return nil
}

// mbaCandidate is one sampled bandwidth-partition target: a throttle
// entity (individual core or K-Means group, exactly as the prefetch
// search builds them) plus the CLOS of its home class.
type mbaCandidate struct {
	cores []int
	home  int
}

// mbaCandidates lists the throttle entities of both Agg classes in
// sampling priority order: classes interleaved friendly-first (streamers
// are the usual bandwidth hogs), entities within a class loudest-first by
// summed prefetch traffic. The budget cuts this list from the back.
func mbaCandidates(s *mbaSampler, cfg Config, det Detection, friendly, unfriendly []int) []mbaCandidate {
	byTraffic := func(ents []entity) {
		sort.SliceStable(ents, func(i, j int) bool {
			ti, tj := 0.0, 0.0
			for _, c := range ents[i].Cores {
				ti += det.PTR[c]
			}
			for _, c := range ents[j].Cores {
				tj += det.PTR[c]
			}
			return ti > tj
		})
	}
	// Two scratches: both classes' entities must be alive at once for the
	// interleave.
	f := s.fEnts.entities(friendly, det.PTR, cfg)
	u := s.uEnts.entities(unfriendly, det.PTR, cfg)
	byTraffic(f)
	byTraffic(u)
	out := make([]mbaCandidate, 0, len(f)+len(u))
	for i := 0; i < len(f) || i < len(u); i++ {
		if i < len(f) {
			out = append(out, mbaCandidate{cores: f[i].Cores, home: mbaCLOSFriendly})
		}
		if i < len(u) {
			out = append(out, mbaCandidate{cores: u[i].Cores, home: mbaCLOSUnfriendly})
		}
	}
	return out
}

// speedupHM is the harmonic mean of per-core speedups of ipcs over base —
// the profiling proxy for the harmonic-speedup metric the figures report.
// Raw hm_ipc would chase the absolute IPC of the slowest core and happily
// throttle a whole streamer class into the ground to buy it a few percent;
// relative speedups accept a candidate only when the victims' gains
// outweigh the throttled cores' slowdowns.
func speedupHM(ipcs, base []float64) (float64, error) {
	if len(ipcs) != len(base) {
		// A per-node aggregation bug upstream (mismatched geometries)
		// would otherwise silently score garbage.
		return 0, fmt.Errorf("cmm: speedupHM: %d sampled IPCs vs %d baseline cores", len(ipcs), len(base))
	}
	sum := 0.0
	for i := range ipcs {
		if ipcs[i] <= 0 {
			return 0, nil
		}
		sum += base[i] / ipcs[i]
	}
	if sum <= 0 {
		return 0, nil
	}
	return float64(len(ipcs)) / sum, nil
}

// mbaLevelVector expands a chosen level into the per-core MBALevels vector
// recorded on the decision (nil when nothing is throttled).
func mbaLevelVector(n int, throttled []int, level uint64) []uint64 {
	if level == 0 || len(throttled) == 0 {
		return nil
	}
	out := make([]uint64, n)
	for _, c := range throttled {
		out[c] = level
	}
	return out
}

// mbaChoice is a profiled bandwidth-partition decision: which cores to
// delay, at what level, under which class split it was measured.
type mbaChoice struct {
	cores []int
	home  int
	level uint64
	// score is the speedupHM the winning interval measured (1 when the
	// choice is "no throttling").
	score float64
	// friendly and unfriendly pin the Agg split the choice was profiled
	// under; a different split invalidates the cache.
	friendly, unfriendly []int
	// age counts epochs since profiling, for the refresh schedule.
	age int
}

// mbaSampler is the CBP policies' bandwidth-partitioning engine and the
// reason they are stateful: profiling every epoch would double the
// sampling overhead of the prefetch-only policies, so the winning choice
// is cached and reasserted until it goes stale (the split changed or
// MBARefreshEpochs epochs passed). The zero value has nothing cached.
type mbaSampler struct {
	choice mbaChoice
	valid  bool

	// fEnts/uEnts back the candidate entities of the two Agg classes;
	// anything cached in choice must be copied out of them.
	fEnts entityScratch
	uEnts entityScratch
}

// epoch applies or refreshes the bandwidth partition for one controller
// epoch, after the cache plan has been applied and all MBA delays
// released. It records the outcome on dec and returns how many sampling
// intervals it ran (every one must count toward Decision.SampledCombos).
func (s *mbaSampler) epoch(t Target, cfg Config, alloc *cat.Allocator, plan cat.Plan, det Detection, dec *Decision) (int, error) {
	if s.valid && s.choice.age < cfg.MBARefreshEpochs &&
		equalInts(s.choice.friendly, dec.Friendly) && equalInts(s.choice.unfriendly, dec.Unfriendly) {
		s.choice.age++
		if err := s.apply(alloc, plan); err != nil {
			return 0, err
		}
		s.record(t, dec)
		return 0, nil
	}

	s.valid = false
	s.choice = mbaChoice{
		score:      1,
		friendly:   append([]int(nil), dec.Friendly...),
		unfriendly: append([]int(nil), dec.Unfriendly...),
	}
	grid := mbaLevelGrid(cfg)
	cands := mbaCandidates(s, cfg, det, dec.Friendly, dec.Unfriendly)
	sampled := 0
	if cfg.MBASampleBudget > 0 && len(grid) > 0 && len(cands) > 0 {
		// Unthrottled baseline interval: the speedup reference.
		base := ipcsOf(sampleInterval(t, cfg.SamplingInterval))
		sampled++
	search:
		for _, cand := range cands {
			for _, lvl := range grid {
				if sampled-1 >= cfg.MBASampleBudget {
					break search
				}
				if err := moveToSampledCLOS(alloc, plan, cand, lvl); err != nil {
					return sampled, err
				}
				samp := ipcsOf(sampleInterval(t, cfg.SamplingInterval))
				sampled++
				score, err := speedupHM(samp, base)
				if err != nil {
					return sampled, err
				}
				if score > s.choice.score {
					// Copy: cand.cores aliases the entity scratch, which
					// the next refresh overwrites, while the choice lives
					// across epochs.
					s.choice.cores = append(s.choice.cores[:0], cand.cores...)
					s.choice.home = cand.home
					s.choice.level = lvl
					s.choice.score = score
				}
				// Send the candidate home and release before the next one.
				if err := restoreHomeCLOS(alloc, cand); err != nil {
					return sampled, err
				}
			}
		}
	}
	s.choice.age = 1
	s.valid = true
	if err := s.apply(alloc, plan); err != nil {
		return sampled, err
	}
	s.record(t, dec)
	return sampled, nil
}

// apply programs the cached choice: the winning entity moves to the
// sampled CLOS (keeping its home cache mask) with the delay set. A level-0
// choice leaves the released state as is.
func (s *mbaSampler) apply(alloc *cat.Allocator, plan cat.Plan) error {
	if s.choice.level == 0 {
		return nil
	}
	return moveToSampledCLOS(alloc, plan, mbaCandidate{cores: s.choice.cores, home: s.choice.home}, s.choice.level)
}

// record writes the choice's outcome onto the decision.
func (s *mbaSampler) record(t Target, dec *Decision) {
	dec.MBAGain = s.choice.score
	dec.MBAPercent = s.choice.level
	if s.choice.level > 0 {
		dec.MBAThrottled = sortedCopy(s.choice.cores)
	}
	dec.MBALevels = mbaLevelVector(t.NumCores(), dec.MBAThrottled, s.choice.level)
}

// reset drops the cache (quiet epochs: nothing aggressive to partition).
func (s *mbaSampler) reset() { *s = mbaSampler{} }

// moveToSampledCLOS gives the sampled CLOS the candidate's home cache mask,
// moves the candidate's cores there, and programs the delay.
func moveToSampledCLOS(alloc *cat.Allocator, plan cat.Plan, cand mbaCandidate, lvl uint64) error {
	if err := alloc.SetMask(mbaCLOSSampled, plan.Masks[cand.home]); err != nil {
		return err
	}
	for _, c := range cand.cores {
		if err := alloc.Assign(c, mbaCLOSSampled); err != nil {
			return err
		}
	}
	return alloc.SetMBA(mbaCLOSSampled, lvl)
}

// restoreHomeCLOS sends a sampled candidate back to its home class and
// releases the sampled CLOS's delay.
func restoreHomeCLOS(alloc *cat.Allocator, cand mbaCandidate) error {
	for _, c := range cand.cores {
		if err := alloc.Assign(c, cand.home); err != nil {
			return err
		}
	}
	return alloc.SetMBA(mbaCLOSSampled, 0)
}

// CPBW partitions cache and bandwidth, leaving prefetchers untouched: the
// Fig. 6(c) cache layout plus a profiled MBA delay on whichever throttle
// entity profiling favors. It is the two-way (CP+BW) point of the
// three-way comparison; its BestScore is the MBA gain.
type CPBW struct {
	st pipelineState
}

// Name implements Policy.
func (*CPBW) Name() string { return "CP+BW" }

// Clone implements Policy: a fresh instance with an empty bandwidth
// cache, so concurrent runs never share profiling state.
func (*CPBW) Clone() Policy { return &CPBW{} }

// Epoch implements Policy.
func (p *CPBW) Epoch(t Target, cfg Config, exec []pmu.Sample) (Decision, error) {
	return pipeline{split: true, layout: layoutTwoClass, mba: true}.epoch(t, cfg, exec, &p.st, p.Name())
}

// CPBWPT is the full three-way coordination: the Fig. 6(c) cache layout,
// group-level prefetch throttling of the unfriendly class (the existing
// friendliness/K-Means machinery), and a profiled bandwidth partition on
// top of the chosen prefetch combination — CBP's joint management of all
// three back-end resources under one bounded sampling budget. Quiet
// epochs fall back to the Dunn plan, as CMM-a's do.
type CPBWPT struct {
	st pipelineState
}

// Name implements Policy.
func (*CPBWPT) Name() string { return "CP+BW+PT" }

// Clone implements Policy: a fresh instance with empty profiling caches,
// so concurrent runs never share profiling state.
func (*CPBWPT) Clone() Policy { return &CPBWPT{} }

// Epoch implements Policy.
func (p *CPBWPT) Epoch(t Target, cfg Config, exec []pmu.Sample) (Decision, error) {
	return pipeline{dunn: true, split: true, layout: layoutTwoClass, throttle: true, mba: true}.epoch(t, cfg, exec, &p.st, p.Name())
}
