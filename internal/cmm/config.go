package cmm

import "fmt"

// Config holds the framework's tunables. Paper values are given in the
// comments; the defaults scale cycle counts down for the simulator while
// keeping the paper's 50:1 execution:sampling ratio.
type Config struct {
	// ExecutionEpoch is the length of an execution epoch in cycles
	// (paper: 5e9).
	ExecutionEpoch uint64
	// SamplingInterval is the length of one profiling sampling interval
	// in cycles (paper: 1e8; ratio 50:1).
	SamplingInterval uint64

	// PGAMeanFraction relaxes the candidate step: a core is a candidate
	// when its PGA exceeds this fraction of the all-core mean PGA. 1.0
	// is the paper's strict "above the average"; the default 0.6 keeps
	// one-prefetch-per-miss aggressors (the Rand Access shape) from
	// hiding below a mean inflated by streaming cores.
	PGAMeanFraction float64
	// PMRThreshold filters candidate cores by L2 prefetch miss rate
	// (M-5): cores below it have high prefetch locality — their
	// prefetches mostly hit L2 and put no pressure on the LLC
	// (paper: "a threshold (say 70%)").
	PMRThreshold float64
	// PTRThreshold is the minimum L2 prefetch-miss traffic rate (M-3, in
	// requests/second) for a core to count as pressuring the LLC.
	PTRThreshold float64
	// LLCPTThreshold is the minimum LLC→memory prefetch traffic (M-7, in
	// prefetch misses/second) for an Agg core. The paper notes M-7
	// identifies "cores that issue a large number of prefetch requests
	// to memory"; it is what separates a cache-resident hot loop (no
	// memory pressure) from a Rand Access aggressor.
	LLCPTThreshold float64
	// FriendlyThreshold is the IPC speedup from prefetching above which
	// an Agg core is prefetch friendly (paper: "say 50%").
	FriendlyThreshold float64

	// MaxIndividual is the largest entity count whose full on/off
	// combination space is sampled directly; larger sets are clustered.
	MaxIndividual int
	// Groups is the number of K-Means groups for group-level throttling
	// (paper: 3, vs Panda et al.'s coarse 2).
	Groups int

	// PartitionFactor sizes the Agg partition in ways per Agg core
	// (paper: "1.5 times the size of the Agg set works well").
	PartitionFactor float64

	// MBALevels is the grid of MBA delay percentages the CBP policies
	// (CP+BW, CP+BW+PT) profile per throttle-entity candidate, each a
	// multiple of 10 in [0,90]. Listed gentlest-first: single-entity
	// throttling wins cluster at low delays, and the sampling budget cuts
	// the grid's tail. Zeros are ignored — the unthrottled baseline is
	// always measured.
	MBALevels []uint64 `json:",omitempty"`
	// MBASampleBudget caps the (entity, level) sampling intervals one MBA
	// refresh may spend — each costs a full sampling interval on top of
	// the prefetch-combo search, so this bounds the three-way policies'
	// profiling overhead. 0 disables MBA sampling entirely.
	MBASampleBudget int `json:",omitempty"`
	// MBARefreshEpochs is how many epochs a profiled bandwidth partition
	// is reused before re-profiling (the Agg split changing forces an
	// early refresh). 1 re-profiles every epoch.
	MBARefreshEpochs int `json:",omitempty"`

	// ComboRefreshEpochs is how many epochs the coordinated policies reuse
	// a profiled friendliness split + prefetch-combo decision before
	// re-profiling, provided the detected Agg set is unchanged (a changed
	// set forces an early refresh). Profiling cost per epoch then amortizes
	// from 2+2^entities sampling intervals down to the single detection
	// probe, which is what keeps the control loop sublinear in cores on
	// many-core geometries. 0 or 1 re-profiles every epoch (the paper's
	// schedule).
	ComboRefreshEpochs int `json:",omitempty"`
}

// DefaultConfig returns the scaled-down paper configuration.
func DefaultConfig() Config {
	return Config{
		ExecutionEpoch:     3_000_000,
		SamplingInterval:   150_000,
		PGAMeanFraction:    0.6,
		PMRThreshold:       0.70,
		PTRThreshold:       1e7,
		LLCPTThreshold:     2.5e7,
		FriendlyThreshold:  0.50,
		MaxIndividual:      3,
		Groups:             3,
		PartitionFactor:    1.5,
		MBALevels:          []uint64{10, 40},
		MBASampleBudget:    8,
		MBARefreshEpochs:   4,
		ComboRefreshEpochs: 1,
	}
}

// Validate reports a descriptive error for unusable configurations.
func (c Config) Validate() error {
	switch {
	case c.ExecutionEpoch == 0:
		return fmt.Errorf("cmm: ExecutionEpoch must be positive")
	case c.SamplingInterval == 0:
		return fmt.Errorf("cmm: SamplingInterval must be positive")
	case c.SamplingInterval > c.ExecutionEpoch:
		return fmt.Errorf("cmm: SamplingInterval %d exceeds ExecutionEpoch %d",
			c.SamplingInterval, c.ExecutionEpoch)
	case c.PGAMeanFraction <= 0:
		return fmt.Errorf("cmm: PGAMeanFraction %g must be positive", c.PGAMeanFraction)
	case c.PMRThreshold < 0 || c.PMRThreshold > 1:
		return fmt.Errorf("cmm: PMRThreshold %g must be in [0,1]", c.PMRThreshold)
	case c.LLCPTThreshold < 0:
		return fmt.Errorf("cmm: LLCPTThreshold %g must be >= 0", c.LLCPTThreshold)
	case c.PTRThreshold < 0:
		return fmt.Errorf("cmm: PTRThreshold %g must be >= 0", c.PTRThreshold)
	case c.FriendlyThreshold < 0:
		return fmt.Errorf("cmm: FriendlyThreshold %g must be >= 0", c.FriendlyThreshold)
	case c.MaxIndividual < 1:
		return fmt.Errorf("cmm: MaxIndividual %d must be >= 1", c.MaxIndividual)
	case c.Groups < 1:
		return fmt.Errorf("cmm: Groups %d must be >= 1", c.Groups)
	case c.PartitionFactor <= 0:
		return fmt.Errorf("cmm: PartitionFactor %g must be positive", c.PartitionFactor)
	case c.MBASampleBudget < 0:
		return fmt.Errorf("cmm: MBASampleBudget %d must be >= 0", c.MBASampleBudget)
	case c.MBARefreshEpochs < 1:
		return fmt.Errorf("cmm: MBARefreshEpochs %d must be >= 1", c.MBARefreshEpochs)
	case c.ComboRefreshEpochs < 0:
		return fmt.Errorf("cmm: ComboRefreshEpochs %d must be >= 0", c.ComboRefreshEpochs)
	}
	for _, lvl := range c.MBALevels {
		if lvl > 90 || lvl%10 != 0 {
			return fmt.Errorf("cmm: MBA level %d must be a multiple of 10 in [0,90]", lvl)
		}
	}
	return nil
}
