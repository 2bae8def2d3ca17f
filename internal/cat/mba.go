package cat

import (
	"fmt"

	"cmm/internal/msr"
)

// MBA models Intel Memory Bandwidth Allocation, the RDT companion of CAT:
// per-CLOS request-rate throttling expressed as a delay percentage. The
// paper's related work (Liu et al.) studies the interaction of prefetching
// with bandwidth partitioning; the CBP policies (CP+BW, CP+BW+PT) profile
// this knob alongside cache partitioning and prefetch throttling.

// MBAMaxPercent is the largest supported throttling value.
const MBAMaxPercent = 90

// MBAStepPercent is the hardware granularity of throttling values.
const MBAStepPercent = 10

// CheckMBA validates a throttling percentage per the SDM: multiples of 10
// in [0, 90].
func CheckMBA(percent uint64) error {
	if percent > MBAMaxPercent {
		return fmt.Errorf("cat: MBA percent %d exceeds %d", percent, MBAMaxPercent)
	}
	if percent%MBAStepPercent != 0 {
		return fmt.Errorf("cat: MBA percent %d not a multiple of %d", percent, MBAStepPercent)
	}
	return nil
}

// SetMBA programs the MBA delay of a CLOS. Like the CAT mask registers,
// MBA throttle registers are replicated per package, so the write goes to
// the leader CPU of every package.
func (a *Allocator) SetMBA(clos int, percent uint64) error {
	if clos < 0 || clos >= a.cfg.NumCLOS {
		return fmt.Errorf("cat: CLOS %d out of range [0,%d)", clos, a.cfg.NumCLOS)
	}
	if err := CheckMBA(percent); err != nil {
		return err
	}
	for _, cpu := range a.packageLeaders() {
		if err := a.bank.Write(cpu, msr.MBAThrottleBase+uint32(clos), percent); err != nil {
			return err
		}
	}
	return nil
}

// MBAOf reads back package 0's copy of a CLOS MBA delay. Use MBAOfCore for
// the throttle actually governing a specific core.
func (a *Allocator) MBAOf(clos int) (uint64, error) {
	if clos < 0 || clos >= a.cfg.NumCLOS {
		return 0, fmt.Errorf("cat: CLOS %d out of range [0,%d)", clos, a.cfg.NumCLOS)
	}
	return a.bank.Read(0, msr.MBAThrottleBase+uint32(clos))
}

// MBAOfCore returns the MBA delay governing a core: the throttle of the
// CLOS it is associated with, read from the core's own package.
func (a *Allocator) MBAOfCore(core int) (uint64, error) {
	clos, err := a.ClosOf(core)
	if err != nil {
		return 0, err
	}
	if clos < 0 || clos >= a.cfg.NumCLOS {
		return 0, fmt.Errorf("cat: CLOS %d out of range [0,%d)", clos, a.cfg.NumCLOS)
	}
	return a.bank.Read(a.leaderOf(core), msr.MBAThrottleBase+uint32(clos))
}
