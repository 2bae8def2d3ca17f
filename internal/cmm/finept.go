package cmm

import (
	"fmt"

	"cmm/internal/metrics"
	"cmm/internal/msr"
	"cmm/internal/pmu"
)

// FinePT extends the paper's PT below its throttling granularity. The
// paper treats a core's four prefetchers as a single on/off entity ("All
// four prefetchers per core are either on or off") and notes that Intel
// hardware would permit finer control; FinePT exercises that option: for
// every core in the Agg set it greedily tests each individual prefetcher
// disable bit (L2 streamer, L2 adjacent-line, L1 next-line, L1 IP),
// keeping a bit only when switching it off improves the hm_ipc proxy.
//
// The greedy search costs 1 + 4×|Agg| sampling intervals instead of PT's
// exponential 2^entities, so it needs no K-Means grouping to stay
// scalable.
type FinePT struct{}

// fineBits are the individually-searchable disable bits, most aggressive
// units first (the streamer moves the most traffic).
var fineBits = []uint64{
	msr.DisableL2Stream,
	msr.DisableL2Adjacent,
	msr.DisableL1NextLine,
	msr.DisableL1IP,
}

// Name implements Policy.
func (FinePT) Name() string { return "PT-fine" }

// Clone implements Policy; the greedy search state lives inside Epoch.
func (p FinePT) Clone() Policy { return p }

// Epoch implements Policy.
func (FinePT) Epoch(t Target, cfg Config, exec []pmu.Sample) (Decision, error) {
	samples, dec, err := probe(t, cfg, "PT-fine")
	if err != nil {
		return Decision{}, err
	}
	det := dec.Detection
	if len(det.Agg) == 0 {
		return dec, nil
	}

	// Start from all-on and greedily accumulate disable bits.
	state := make(map[int]uint64, len(det.Agg))
	bestScore := metrics.HarmonicMeanIPC(ipcsOf(samples))
	apply := func() error {
		for _, c := range det.Agg {
			if err := t.WriteMSR(c, msr.MiscFeatureControl, state[c]); err != nil {
				return fmt.Errorf("cmm: fine throttle core %d: %w", c, err)
			}
		}
		return nil
	}
	for _, core := range det.Agg {
		for _, bit := range fineBits {
			state[core] |= bit
			if err := apply(); err != nil {
				return Decision{}, err
			}
			score := metrics.HarmonicMeanIPC(ipcsOf(sampleInterval(t, cfg.SamplingInterval)))
			dec.SampledCombos++
			if score > bestScore {
				bestScore = score
			} else {
				state[core] &^= bit
			}
		}
	}
	if err := apply(); err != nil {
		return Decision{}, err
	}
	dec.BestScore = bestScore
	for _, core := range det.Agg {
		if state[core] == msr.DisableAll {
			dec.Disabled = append(dec.Disabled, core)
		}
	}
	return dec, nil
}
