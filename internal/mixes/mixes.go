// Package mixes constructs the paper's multiprogrammed workloads
// (Sec. IV-B): four categories of 8-benchmark mixes, ten mixes each, with
// benchmarks drawn randomly from classification pools.
//
// Classification follows the paper's Fig. 1–3 criteria. The class table
// here is static (as the paper's was, compiled from its characterisation
// runs); internal/experiments contains the characterisation harness that
// regenerates and cross-checks it.
package mixes

import (
	"fmt"
	"math/rand"

	"cmm/internal/workload"
)

// Class is a benchmark's behaviour classification.
type Class struct {
	// PrefAggressive: demand BW > 1500 MB/s and BW increase from
	// prefetching > 50% (Fig. 1 criteria).
	PrefAggressive bool
	// PrefFriendly: IPC speedup from prefetching > 30% (Fig. 2). Per the
	// paper's convention, a "prefetch friendly" benchmark here is also
	// prefetch aggressive.
	PrefFriendly bool
	// LLCSensitive: needs >= 8 ways for 80% of its peak IPC (Fig. 3).
	LLCSensitive bool
}

// Classes returns the static classification table for the suite.
func Classes() map[string]Class {
	friendly := []string{
		"410.bwaves", "462.libquantum", "437.leslie3d", "459.GemsFDTD",
		"481.wrf", "433.milc", "470.lbm", "434.zeusmp", "482.sphinx3",
		"436.cactusADM",
	}
	unfriendly := []string{
		"rand_access", "rand_access.B", "rand_access.C", "rand_access.D",
	}
	sensitive := []string{
		"429.mcf", "471.omnetpp", "483.xalancbmk", "450.soplex",
		"473.astar",
	}
	quiet := []string{
		"403.gcc", "453.povray", "444.namd", "416.gamess", "445.gobmk",
		"458.sjeng", "435.gromacs", "464.h264ref", "400.perlbench",
	}
	m := map[string]Class{}
	for _, n := range friendly {
		m[n] = Class{PrefAggressive: true, PrefFriendly: true}
	}
	for _, n := range unfriendly {
		m[n] = Class{PrefAggressive: true}
	}
	for _, n := range sensitive {
		m[n] = Class{LLCSensitive: true}
	}
	for _, n := range quiet {
		m[n] = Class{}
	}
	return m
}

// Category is one of the paper's four workload categories.
type Category int

const (
	// PrefFri: 4 prefetch-friendly + 4 non-aggressive benchmarks.
	PrefFri Category = iota
	// PrefAgg: 2 friendly + 2 unfriendly + 4 non-aggressive.
	PrefAgg
	// PrefUnfri: 4 unfriendly + 4 non-aggressive.
	PrefUnfri
	// PrefNoAgg: 8 non-aggressive benchmarks.
	PrefNoAgg
	// NumCategories is the count of the paper's categories. BWSat sits
	// beyond it on purpose: All() and the Fig. 13 selection iterate
	// [0, NumCategories) and must never pick up the extension family.
	NumCategories
	// BWSat: a bandwidth-saturated mix — enough high-traffic benchmarks
	// (streaming prefetch-friendly plus demand-heavy unfriendly) that the
	// memory interface runs at its utilization ceiling and cache or
	// prefetch control alone cannot relieve the queueing delay. The
	// evaluation family for the CBP bandwidth-partitioning policies.
	BWSat
	// ManyCore: the NUMA scale-up family (16/32/64 cores). Three quarters
	// of the cores run aggressive benchmarks, split between friendly
	// streamers and unfriendly demand-heavy traffic, so the detected Agg
	// set grows with the machine and pushes group-level K-Means throttling
	// well past Config.MaxIndividual; the rest are non-aggressive victims.
	ManyCore
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case PrefFri:
		return "Pref Fri"
	case PrefAgg:
		return "Pref Agg"
	case PrefUnfri:
		return "Pref Unfri"
	case PrefNoAgg:
		return "Pref No Agg"
	case BWSat:
		return "BW Sat"
	case ManyCore:
		return "Many Core"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Mix is one multiprogrammed workload: one benchmark per core.
type Mix struct {
	// Name identifies the mix, e.g. "Pref Agg #3".
	Name string
	// Category is the mix's class.
	Category Category
	// Specs are the per-core workloads (len == core count).
	Specs []workload.Spec
}

// MixesPerCategory is the paper's count of mixes per category.
const MixesPerCategory = 10

// DefaultCores is the paper's machine width.
const DefaultCores = 8

// pools splits the suite by class.
type pools struct {
	friendly, unfriendly, nonAggSensitive, nonAggQuiet []workload.Spec
}

func buildPools() (pools, error) {
	classes := Classes()
	var p pools
	for _, s := range workload.Suite() {
		cl, ok := classes[s.Name]
		if !ok {
			return pools{}, fmt.Errorf("mixes: benchmark %s missing from class table", s.Name)
		}
		switch {
		case cl.PrefAggressive && cl.PrefFriendly:
			p.friendly = append(p.friendly, s)
		case cl.PrefAggressive:
			p.unfriendly = append(p.unfriendly, s)
		case cl.LLCSensitive:
			p.nonAggSensitive = append(p.nonAggSensitive, s)
		default:
			p.nonAggQuiet = append(p.nonAggQuiet, s)
		}
	}
	if len(p.friendly) < 4 || len(p.unfriendly) < 4 ||
		len(p.nonAggSensitive) < 2 || len(p.nonAggQuiet) < 2 {
		return pools{}, fmt.Errorf("mixes: pools too small: %d/%d/%d/%d",
			len(p.friendly), len(p.unfriendly), len(p.nonAggSensitive), len(p.nonAggQuiet))
	}
	return p, nil
}

// draw picks n distinct specs from pool (with replacement once exhausted).
func draw(rng *rand.Rand, pool []workload.Spec, n int) []workload.Spec {
	idx := rng.Perm(len(pool))
	out := make([]workload.Spec, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, pool[idx[i%len(idx)]])
	}
	return out
}

// nonAgg draws the paper's non-aggressive filler: at least two
// LLC-sensitive benchmarks per mix, the rest from the quiet pool.
func nonAgg(rng *rand.Rand, p pools, n int) []workload.Spec {
	sensitive := 2
	if sensitive > n {
		sensitive = n
	}
	out := draw(rng, p.nonAggSensitive, sensitive)
	out = append(out, draw(rng, p.nonAggQuiet, n-sensitive)...)
	return out
}

// Build constructs one mix of the given category for nCores cores.
func Build(cat Category, nCores int, seed int64) (Mix, error) {
	p, err := buildPools()
	if err != nil {
		return Mix{}, err
	}
	return p.build(cat, nCores, seed)
}

// build is Build over already split pools, so a family of mixes splits
// the suite once.
func (p pools) build(cat Category, nCores int, seed int64) (Mix, error) {
	if nCores < 4 {
		return Mix{}, fmt.Errorf("mixes: need >= 4 cores, got %d", nCores)
	}
	rng := rand.New(rand.NewSource(seed))
	half := nCores / 2
	var specs []workload.Spec
	switch cat {
	case PrefFri:
		specs = append(draw(rng, p.friendly, half), nonAgg(rng, p, nCores-half)...)
	case PrefAgg:
		specs = append(draw(rng, p.friendly, half/2), draw(rng, p.unfriendly, half-half/2)...)
		specs = append(specs, nonAgg(rng, p, nCores-half)...)
	case PrefUnfri:
		specs = append(draw(rng, p.unfriendly, half), nonAgg(rng, p, nCores-half)...)
	case PrefNoAgg:
		specs = nonAgg(rng, p, nCores)
	case BWSat:
		// Saturate the memory interface: unfriendly demand-heavy traffic
		// and friendly streamers fill all but two cores; the remaining two
		// are LLC-sensitive victims whose speedup the controllers fight for.
		loud := nCores - 2
		unfri := (loud + 1) / 2
		specs = append(draw(rng, p.unfriendly, unfri), draw(rng, p.friendly, loud-unfri)...)
		specs = append(specs, draw(rng, p.nonAggSensitive, 2)...)
	case ManyCore:
		// A large Agg set (~3/4 of the cores, friendly and unfriendly in
		// equal measure) spread by the final shuffle across every NUMA
		// node; the rest are non-aggressive victims so the policies have
		// someone to protect on each node.
		loud := 3 * nCores / 4
		unfri := loud / 2
		specs = append(draw(rng, p.friendly, loud-unfri), draw(rng, p.unfriendly, unfri)...)
		specs = append(specs, nonAgg(rng, p, nCores-loud)...)
	default:
		return Mix{}, fmt.Errorf("mixes: unknown category %d", cat)
	}
	// Shuffle core placement so aggressive cores are not always 0..3.
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return Mix{Category: cat, Specs: specs}, nil
}

// All constructs the paper's full evaluation set: MixesPerCategory mixes
// per category, in presentation order (Pref Fri, Pref Agg, Pref Unfri,
// Pref No Agg), deterministically from the base seed.
func All(nCores int, baseSeed int64) ([]Mix, error) {
	return Selection(nCores, baseSeed, MixesPerCategory)
}

// Selection constructs the first perCategory mixes (at most
// MixesPerCategory) of each of the paper's categories: the same mixes,
// names and order as filtering All, without building the rest.
func Selection(nCores int, baseSeed int64, perCategory int) ([]Mix, error) {
	p, err := buildPools()
	if err != nil {
		return nil, err
	}
	var out []Mix
	for c := Category(0); c < NumCategories; c++ {
		for i := 0; i < min(perCategory, MixesPerCategory); i++ {
			m, err := p.build(c, nCores, baseSeed+int64(c)*1000+int64(i))
			if err != nil {
				return nil, err
			}
			m.Name = fmt.Sprintf("%s #%d", c, i+1)
			out = append(out, m)
		}
	}
	return out, nil
}

// BWSaturated constructs n bandwidth-saturated mixes, deterministically
// from the base seed. The seed offset keeps the family disjoint from the
// draws of All for the same base seed.
func BWSaturated(nCores int, baseSeed int64, n int) ([]Mix, error) {
	var out []Mix
	for i := 0; i < n; i++ {
		m, err := Build(BWSat, nCores, baseSeed+int64(BWSat)*1000+int64(i))
		if err != nil {
			return nil, err
		}
		m.Name = fmt.Sprintf("%s #%d", BWSat, i+1)
		out = append(out, m)
	}
	return out, nil
}

// ManyCoreFamily constructs n many-core NUMA mixes sized for nCores
// (16/32/64), deterministically from the base seed. The seed offset keeps
// the family disjoint from the draws of All and BWSaturated for the same
// base seed.
func ManyCoreFamily(nCores int, baseSeed int64, n int) ([]Mix, error) {
	var out []Mix
	for i := 0; i < n; i++ {
		m, err := Build(ManyCore, nCores, baseSeed+int64(ManyCore)*1000+int64(i))
		if err != nil {
			return nil, err
		}
		m.Name = fmt.Sprintf("%s %dc #%d", ManyCore, nCores, i+1)
		out = append(out, m)
	}
	return out, nil
}

// BenchmarkNames returns the mix's per-core benchmark names.
func (m Mix) BenchmarkNames() []string {
	out := make([]string, len(m.Specs))
	for i, s := range m.Specs {
		out[i] = s.Name
	}
	return out
}
