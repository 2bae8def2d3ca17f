package cmm

import (
	"fmt"
	"math"

	"cmm/internal/cat"
	"cmm/internal/kmeans"
	"cmm/internal/pmu"
)

// aggWays sizes a partition for a set of cores: PartitionFactor ways per
// core (paper: 1.5×|set|), clamped to [MinWays, total-MinWays] so the rest
// of the machine always keeps some exclusive headroom.
func aggWays(cfg Config, catCfg cat.Config, nCores int) int {
	w := int(math.Ceil(cfg.PartitionFactor * float64(nCores)))
	if w < cat.MinWays {
		w = cat.MinWays
	}
	if max := catCfg.Ways - cat.MinWays; w > max {
		w = max
	}
	return w
}

// planPartitions builds an overlapping CAT plan: every core starts in
// CLOS0 with the full mask; each group i is placed in CLOS i+1 with a
// small mask of group.ways ways starting at group.start.
type partitionGroup struct {
	cores []int
	start int
	ways  int
}

func planPartitions(t Target, groups []partitionGroup) (cat.Plan, error) {
	catCfg := t.CATConfig()
	plan := cat.NewPlan(t.NumCores(), catCfg.FullMask())
	for i, g := range groups {
		if len(g.cores) == 0 {
			continue
		}
		mask, err := catCfg.Mask(g.start, g.ways)
		if err != nil {
			return cat.Plan{}, fmt.Errorf("cmm: partition group %d: %w", i, err)
		}
		clos := i + 1
		if clos >= catCfg.NumCLOS {
			return cat.Plan{}, fmt.Errorf("cmm: out of CLOS (%d groups)", len(groups))
		}
		plan.Masks[clos] = mask
		for _, c := range g.cores {
			if c < 0 || c >= len(plan.ClosByCore) {
				return cat.Plan{}, fmt.Errorf("cmm: core %d out of range", c)
			}
			plan.ClosByCore[c] = clos
		}
	}
	return plan, nil
}

// applyPlan validates and programs a plan through the target's MSRs.
func applyPlan(t Target, plan cat.Plan) error {
	return allocatorFor(t).Apply(plan)
}

// Dunn is the prior-art clustering policy of Selfa et al. (PACT'17), the
// paper's cache-partitioning baseline: cluster cores by their
// STALLS_L2_PENDING counts (choosing the cluster count by Dunn index),
// then hand out nested way masks — more stalled clusters get more ways.
// Prefetching is left untouched (the policy predates prefetch awareness).
type Dunn struct{}

// Name implements Policy.
func (Dunn) Name() string { return "Dunn" }

// Clone implements Policy; Dunn is stateless.
func (p Dunn) Clone() Policy { return p }

// Epoch implements Policy.
func (Dunn) Epoch(t Target, cfg Config, exec []pmu.Sample) (Decision, error) {
	if err := setPrefetchers(t, nil); err != nil {
		return Decision{}, err
	}
	plan, err := dunnPlan(t, exec)
	if err != nil {
		return Decision{}, err
	}
	if err := applyPlan(t, plan); err != nil {
		return Decision{}, err
	}
	return Decision{Policy: "Dunn", Plan: &plan}, nil
}

// dunnPlan computes the Selfa-style nested partitioning from one epoch's
// samples. Shared with the CMM policies' empty-Agg fallback.
func dunnPlan(t Target, exec []pmu.Sample) (cat.Plan, error) {
	catCfg := t.CATConfig()
	stalls := make([]float64, len(exec))
	for i, s := range exec {
		stalls[i] = float64(s.Value(pmu.StallsL2Pending))
	}
	res := kmeans.BestByDunn(stalls, 2, 4)
	plan := cat.NewPlan(t.NumCores(), catCfg.FullMask())
	if res.K() < 2 {
		return plan, nil // degenerate: everyone full
	}
	maxC := res.Centroids[res.K()-1]
	if maxC <= 0 {
		return plan, nil // nobody stalls: no partitioning signal
	}
	for g := 0; g < res.K(); g++ {
		ways := int(math.Round(float64(catCfg.Ways) * res.Centroids[g] / maxC))
		if ways < cat.MinWays {
			ways = cat.MinWays
		}
		if ways > catCfg.Ways {
			ways = catCfg.Ways
		}
		// Nested masks all start at way 0 (Selfa: "the partitions
		// partially overlap with each other; in fact they are nested").
		mask, err := catCfg.Mask(0, ways)
		if err != nil {
			return cat.Plan{}, err
		}
		clos := g + 1
		plan.Masks[clos] = mask
		for _, core := range res.Members(g) {
			plan.ClosByCore[core] = clos
		}
	}
	return plan, nil
}

// PrefCP is the paper's first prefetch-aware partitioning plan: put the
// whole Agg set into one small overlapping partition; neutral cores share
// the entire cache. Prefetchers stay enabled everywhere.
type PrefCP struct{}

// Name implements Policy.
func (PrefCP) Name() string { return "Pref-CP" }

// Clone implements Policy; PrefCP is stateless.
func (p PrefCP) Clone() Policy { return p }

// Epoch implements Policy.
func (p PrefCP) Epoch(t Target, cfg Config, exec []pmu.Sample) (Decision, error) {
	return pipeline{layout: layoutAgg}.epoch(t, cfg, exec, nil, p.Name())
}

// PrefCP2 is the paper's second plan: split the Agg set into prefetch-
// friendly and -unfriendly subsets (measured over two sampling intervals:
// "CP just needs the first two sampling intervals") and give each its own
// small partition. Prefetchers stay enabled.
type PrefCP2 struct{}

// Name implements Policy.
func (PrefCP2) Name() string { return "Pref-CP2" }

// Clone implements Policy; PrefCP2 is stateless.
func (p PrefCP2) Clone() Policy { return p }

// Epoch implements Policy.
func (p PrefCP2) Epoch(t Target, cfg Config, exec []pmu.Sample) (Decision, error) {
	return pipeline{split: true, layout: layoutGroups}.epoch(t, cfg, exec, nil, p.Name())
}
