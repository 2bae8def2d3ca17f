package cmm

import (
	"fmt"

	"cmm/internal/pmu"
)

// Variant selects one of the paper's coordinated partition layouts
// (Fig. 6): where the friendly and unfriendly Agg cores live.
type Variant uint8

const (
	// VariantA puts the whole Agg set into one small partition and
	// throttles the unfriendly cores inside it (Fig. 6a).
	VariantA Variant = iota
	// VariantB puts only the prefetch-friendly cores into the small
	// partition; unfriendly cores share the whole cache but are
	// throttled (Fig. 6b).
	VariantB
	// VariantC gives friendly and unfriendly cores two separate small
	// partitions, throttling the unfriendly ones (Fig. 6c).
	VariantC
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case VariantA:
		return "CMM-a"
	case VariantB:
		return "CMM-b"
	case VariantC:
		return "CMM-c"
	default:
		return fmt.Sprintf("Variant(%d)", uint8(v))
	}
}

// Coordinated is the paper's contribution proper: coordinated throttling —
// first partition the cache around the Agg set, then apply group-level
// prefetch throttling to the prefetch-unfriendly cores only. Friendly
// cores always keep their prefetchers (their performance comes from
// prefetching, not cache space); when the Agg set is empty the policy
// falls back to the Dunn partitioning (Fig. 6d).
// Coordinated is stateful: it caches its profiled decision in a comboGate
// (reused while the Agg set is stable, per Config.ComboRefreshEpochs) and
// reuses entity-grouping scratch buffers, so it is a pointer policy.
type Coordinated struct {
	// Variant selects the Fig. 6 layout (default VariantA).
	Variant Variant

	st pipelineState
}

// coordinated is the CMM-a/b/c pipeline: Dunn when quiet, the sampled
// split (or the gate's reassert), the variant's layout, and group-level
// throttling of the unfriendly class. The layouts are numbered as the
// variants.
func coordinated(v Variant) pipeline {
	return pipeline{dunn: true, split: true, layout: layout(v), throttle: true}
}

// Name implements Policy.
func (p *Coordinated) Name() string { return p.Variant.String() }

// Clone implements Policy: a fresh instance with an empty profiling cache,
// so concurrent runs never share gate or scratch state.
func (p *Coordinated) Clone() Policy { return &Coordinated{Variant: p.Variant} }

// Epoch implements Policy.
func (p *Coordinated) Epoch(t Target, cfg Config, exec []pmu.Sample) (Decision, error) {
	if p.Variant > VariantC {
		return Decision{}, fmt.Errorf("cmm: unknown variant %d", p.Variant)
	}
	return coordinated(p.Variant).epoch(t, cfg, exec, &p.st, p.Name())
}
