// Package cmm implements the paper's contribution: CMM, a coordinated
// multi-resource management framework that treats hardware prefetchers and
// the shared LLC as two allocatable resources.
//
// The framework is decoupled exactly as in the paper: a front end that
// identifies prefetch-aggressive (Agg) cores from PMU metrics (Table I /
// Fig. 5), and interchangeable back ends that allocate resources —
// prefetch throttling (PT), cache partitioning (Pref-CP, Pref-CP2, and the
// prior-art Dunn policy), and the coordinated CMM-a/b/c mechanisms.
//
// Policies talk to the machine only through the Target interface (MSR
// writes, PMU reads, elapse time), mirroring how the paper's kernel module
// touches hardware; the same policy code drives the simulator or — with a
// suitable Target implementation — a real Intel machine.
package cmm

import (
	"cmm/internal/cat"
	"cmm/internal/pmu"
	"cmm/internal/sim"
)

// Target is the hardware abstraction the policies control.
type Target interface {
	// NumCores returns the number of managed cores.
	NumCores() int
	// WriteMSR stores an MSR on one cpu (prefetch control, CAT).
	WriteMSR(cpu int, reg uint32, v uint64) error
	// ReadMSR loads an MSR from one cpu.
	ReadMSR(cpu int, reg uint32) (uint64, error)
	// ReadPMU captures one core's performance counters.
	ReadPMU(cpu int) pmu.Snapshot
	// RunCycles lets the machine execute for n core cycles (on real
	// hardware this is a timed sleep; on the simulator it advances the
	// clock).
	RunCycles(n uint64)
	// CoreGHz returns the core clock for cycle→second conversions.
	CoreGHz() float64
	// CATConfig describes the partitioning capability.
	CATConfig() cat.Config
}

// TopologyTarget is an optional capability of Targets that know their NUMA
// geometry; the controller uses it to attribute per-epoch decisions to
// nodes. Single-socket targets simply do not implement it (or report one
// node).
type TopologyTarget interface {
	// NumNodes returns the NUMA node count (>= 1).
	NumNodes() int
	// NodeOf returns the node a core belongs to.
	NodeOf(core int) int
}

// SimTarget adapts a sim.System to the Target interface.
type SimTarget struct {
	Sys *sim.System
}

// NewSimTarget wraps a simulated machine.
func NewSimTarget(s *sim.System) *SimTarget { return &SimTarget{Sys: s} }

// NumCores implements Target.
func (t *SimTarget) NumCores() int { return t.Sys.NumCores() }

// WriteMSR implements Target.
func (t *SimTarget) WriteMSR(cpu int, reg uint32, v uint64) error {
	return t.Sys.Bank().Write(cpu, reg, v)
}

// ReadMSR implements Target.
func (t *SimTarget) ReadMSR(cpu int, reg uint32) (uint64, error) {
	return t.Sys.Bank().Read(cpu, reg)
}

// ReadPMU implements Target.
func (t *SimTarget) ReadPMU(cpu int) pmu.Snapshot { return t.Sys.PMU(cpu).Snapshot() }

// RunCycles implements Target.
func (t *SimTarget) RunCycles(n uint64) { t.Sys.Run(n) }

// CoreGHz implements Target.
func (t *SimTarget) CoreGHz() float64 { return t.Sys.Config().CoreGHz }

// CATConfig implements Target. The returned config reflects any per-node
// package defaulting the topology applied.
func (t *SimTarget) CATConfig() cat.Config { return t.Sys.Config().CAT }

// NumNodes implements TopologyTarget.
func (t *SimTarget) NumNodes() int { return t.Sys.NumNodes() }

// NodeOf implements TopologyTarget.
func (t *SimTarget) NodeOf(core int) int { return t.Sys.NodeOf(core) }

// snapshotsInto captures all cores' PMU state into buf, reusing its
// storage when it has capacity.
func snapshotsInto(buf []pmu.Snapshot, t Target) []pmu.Snapshot {
	n := t.NumCores()
	if cap(buf) < n {
		buf = make([]pmu.Snapshot, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = t.ReadPMU(i)
	}
	return buf
}

// deltasInto computes the per-core samples since the given snapshots into
// buf, reusing its storage when it has capacity.
func deltasInto(buf []pmu.Sample, t Target, since []pmu.Snapshot) []pmu.Sample {
	n := t.NumCores()
	if cap(buf) < n {
		buf = make([]pmu.Sample, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = t.ReadPMU(i).Delta(since[i])
	}
	return buf
}

// sampleInterval runs the machine for the given cycles and returns what
// each core did during the window.
func sampleInterval(t Target, cycles uint64) []pmu.Sample {
	before := snapshotsInto(nil, t)
	t.RunCycles(cycles)
	return deltasInto(nil, t, before)
}

// ipcsOf extracts per-core IPCs from samples.
func ipcsOf(samples []pmu.Sample) []float64 {
	return ipcsInto(nil, samples)
}

// ipcsInto extracts per-core IPCs into buf, reusing its storage when it
// has capacity.
func ipcsInto(buf []float64, samples []pmu.Sample) []float64 {
	if cap(buf) < len(samples) {
		buf = make([]float64, len(samples))
	}
	buf = buf[:len(samples)]
	for i, s := range samples {
		buf[i] = s.IPC()
	}
	return buf
}
