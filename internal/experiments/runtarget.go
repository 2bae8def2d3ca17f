package experiments

import (
	"cmm/internal/cat"
	"cmm/internal/msr"
	"cmm/internal/pmu"
	"cmm/internal/sim"
)

// runTarget is the cmm.Target one policy run drives. It starts at the
// root of its (mix, seed)'s history tree and follows it: MSR writes go to
// the run's own register bank, ReadPMU answers from the current node, and
// a RunCycles call whose key (bank image, cycles) is already a child of
// the node just moves there. The first key with no recorded child
// materializes the run: it takes a machine in the root's state, replays
// the recorded path to its node (each edge's image loaded, its cycles
// run), loads its own registers and runs live from then on, recording
// every node it reaches so later runs can follow it.
type runTarget struct {
	c *prefixCache
	p *prefix

	bank *msr.Emulated // the run's registers; the machine's once live
	at   *histNode     // the machine state the run is at
	path []*histEdge   // the edges from the root to at, while following
	sys  *sim.System   // the run's machine, nil while following
	img  []uint64      // scratch for the bank's image

	replayed bool // the run materialized past the root
}

func newRunTarget(c *prefixCache, p *prefix) *runTarget {
	// The first epoch writes no MSR, so the prefix machine's registers
	// are a fresh bank's.
	return &runTarget{c: c, p: p, at: p.root, bank: msr.NewEmulated(len(p.root.snaps), p.shape.CAT.NumCLOS)}
}

// NumCores implements cmm.Target.
func (t *runTarget) NumCores() int { return len(t.at.snaps) }

// WriteMSR implements cmm.Target.
func (t *runTarget) WriteMSR(cpu int, reg uint32, v uint64) error { return t.bank.Write(cpu, reg, v) }

// ReadMSR implements cmm.Target.
func (t *runTarget) ReadMSR(cpu int, reg uint32) (uint64, error) { return t.bank.Read(cpu, reg) }

// ReadPMU implements cmm.Target.
func (t *runTarget) ReadPMU(cpu int) pmu.Snapshot { return t.at.snaps[cpu] }

// RunCycles implements cmm.Target.
func (t *runTarget) RunCycles(n uint64) {
	t.img = t.bank.Image(t.img[:0])
	if t.sys == nil {
		if e := t.c.follow(t.at, t.img, n); e != nil {
			t.at = e.to
			t.path = append(t.path, e)
			return
		}
		t.materialize()
	}
	t.sys.Run(n)
	t.at = t.c.record(t.at, t.img, n, observe(t.sys))
}

// materialize brings a machine to the run's node and hands it the run's
// registers, which t.img holds.
func (t *runTarget) materialize() {
	sys := t.c.take(t.p)
	for _, e := range t.path {
		sys.Bank().LoadImage(e.img)
		sys.Run(e.n)
	}
	sys.Bank().LoadImage(t.img)
	t.sys, t.bank, t.path, t.replayed = sys, sys.Bank(), nil, len(t.path) > 0
}

// CoreGHz implements cmm.Target.
func (t *runTarget) CoreGHz() float64 { return t.p.shape.CoreGHz }

// CATConfig implements cmm.Target.
func (t *runTarget) CATConfig() cat.Config { return t.p.shape.CAT }

// NumNodes implements cmm.TopologyTarget.
func (t *runTarget) NumNodes() int { return len(t.at.nodeBytes) }

// NodeOf implements cmm.TopologyTarget: cores fill the nodes in order.
func (t *runTarget) NodeOf(core int) int { return core / (t.NumCores() / t.NumNodes()) }
