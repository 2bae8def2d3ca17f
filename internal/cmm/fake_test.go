package cmm

import (
	"cmm/internal/cat"
	"cmm/internal/msr"
	"cmm/internal/pmu"
)

// fakeCore scripts one core's behaviour for the fake target.
type fakeCore struct {
	// ipcOn/ipcOff are the core's IPC with its prefetchers on/off.
	ipcOn, ipcOff float64
	// aggressive makes the core produce Agg-level PMU metrics (high PGA,
	// PMR 1.0, large PTR) while its prefetchers are on.
	aggressive bool
	// victimPenalty is subtracted from every *other* core's IPC while
	// this core's prefetchers are on (models inter-core interference).
	// MBA-throttling this core scales the penalty by (1 - delay).
	victimPenalty float64
	// demandPenalty is inter-core interference from demand traffic: it
	// hits the other cores regardless of this core's prefetcher state,
	// and only MBA throttling relieves it.
	demandPenalty float64
}

// fakeTarget is a deterministic, instantly-reacting machine for policy
// unit tests: IPCs respond to prefetch MSR writes exactly as scripted.
type fakeTarget struct {
	cores    []fakeCore
	bank     *msr.Emulated
	counters []pmu.Counters
	catCfg   cat.Config
	cycles   uint64
}

func newFakeTarget(cores []fakeCore) *fakeTarget {
	return &fakeTarget{
		cores:    cores,
		bank:     msr.NewEmulated(len(cores), 16),
		counters: make([]pmu.Counters, len(cores)),
		catCfg:   cat.DefaultConfig(),
	}
}

func (f *fakeTarget) NumCores() int { return len(f.cores) }

func (f *fakeTarget) WriteMSR(cpu int, reg uint32, v uint64) error {
	return f.bank.Write(cpu, reg, v)
}

func (f *fakeTarget) ReadMSR(cpu int, reg uint32) (uint64, error) {
	return f.bank.Read(cpu, reg)
}

func (f *fakeTarget) ReadPMU(cpu int) pmu.Snapshot { return f.counters[cpu].Snapshot() }

func (f *fakeTarget) CoreGHz() float64 { return 2.1 }

func (f *fakeTarget) CATConfig() cat.Config { return f.catCfg }

func (f *fakeTarget) prefetchOn(cpu int) bool {
	return f.enabledFraction(cpu) == 1
}

// enabledFraction returns the fraction of the core's four prefetchers that
// are on; RunCycles interpolates each core's IPC by it.
func (f *fakeTarget) enabledFraction(cpu int) float64 {
	v, err := f.bank.Read(cpu, msr.MiscFeatureControl)
	if err != nil {
		return 1
	}
	on := 0
	for _, bit := range []uint64{msr.DisableL2Stream, msr.DisableL2Adjacent, msr.DisableL1NextLine, msr.DisableL1IP} {
		if v&bit == 0 {
			on++
		}
	}
	return float64(on) / 4
}

// mbaFraction returns the MBA delay governing cpu as a fraction in [0,0.9]
// (0 when unprogrammed): the throttle of the CLOS the cpu is associated
// with, as the emulated machine's memory interface would apply it.
func (f *fakeTarget) mbaFraction(cpu int) float64 {
	v, err := f.bank.Read(cpu, msr.PQRAssoc)
	if err != nil {
		return 0
	}
	// MBA throttle registers are per-package; the fake is one package, so
	// cpu 0 holds the authoritative copy (the allocator writes leaders only).
	pct, err := f.bank.Read(0, msr.MBAThrottleBase+uint32(msr.ClosOf(v)))
	if err != nil {
		return 0
	}
	return float64(pct) / 100
}

func (f *fakeTarget) RunCycles(n uint64) {
	f.cycles += n
	for i, c := range f.cores {
		frac := f.enabledFraction(i)
		ipc := c.ipcOff + (c.ipcOn-c.ipcOff)*frac
		// MBA throttling slows the core itself a little...
		ipc *= 1 - 0.2*f.mbaFraction(i)
		for j, other := range f.cores {
			if j != i {
				// ...and shields everyone else from its bandwidth
				// pressure, prefetch- and demand-side alike.
				relief := 1 - f.mbaFraction(j)
				ipc -= other.victimPenalty * f.enabledFraction(j) * relief
				ipc -= other.demandPenalty * relief
			}
		}
		if ipc < 0.01 {
			ipc = 0.01
		}
		p := &f.counters[i]
		p.Add(pmu.Cycles, n)
		p.Add(pmu.Instructions, uint64(ipc*float64(n)))
		if c.aggressive && f.enabledFraction(i) > 0 {
			// PGA 4.0, PMR 1.0, PTR n/4 misses per n cycles (~0.5e9/s).
			p.Add(pmu.L2DmReq, n/16)
			p.Add(pmu.L2PrefReq, n/4)
			p.Add(pmu.L2PrefMiss, n/4)
			p.Add(pmu.L2DmMiss, n/32)
			p.Add(pmu.L3PrefMiss, n/4)
		} else {
			// Meek traffic: PGA 0.25, low PTR.
			p.Add(pmu.L2DmReq, n/16)
			p.Add(pmu.L2PrefReq, n/64)
			p.Add(pmu.L2PrefMiss, n/128)
			p.Add(pmu.L2DmMiss, n/64)
		}
		p.Add(pmu.StallsL2Pending, uint64(float64(n)*(1.0-ipc/4)))
	}
}
