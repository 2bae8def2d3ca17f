package experiments

import (
	"runtime"
	"slices"
	"sync"

	"cmm/internal/mixes"
	"cmm/internal/pmu"
	"cmm/internal/sim"
)

// A controller's first epoch is a plain execution epoch: every
// prefetcher on, full CAT masks, no MSR written before it ends (Fig. 4).
// So every policy run of one (mix, seed), the baseline included, starts by
// simulating the same cycles on the same cold machine. prefixCache
// simulates that epoch once per (mix, seed) and roots the (mix, seed)'s
// history tree at the machine it leaves.
//
// Past that epoch, runs often keep programming the machine alike: CMM-a,
// -b and -c fall back to the same partition when nothing is aggressive or
// unfriendly. A run's machine state after a RunCycles call depends only
// on the state before it, the MSR registers in force and the cycle count
// (an MSR write only sets registers; the simulator derives masks,
// throttles and prefetcher switches from them). So each RunCycles call is
// an edge of the tree, keyed exactly by (parent node, MSR image, cycles),
// and each node records what a controller can observe there: the PMU
// counters, the bytes each memory node moved and the clock. A run follows
// recorded edges without simulating, and only takes a machine when its
// next key has no recorded child (see runTarget).

// prefixKey names one (mix, seed) of a sweep by index.
type prefixKey struct{ mi, si int }

// histNode is one recorded machine state of a history tree. Its fields
// are set before the node is published and never change after.
type histNode struct {
	snaps     []pmu.Snapshot // every core's counters
	nodeBytes []uint64       // bytes moved per NUMA node
	now       uint64

	edges []*histEdge // recorded children; guarded by prefixCache.mu
}

// histEdge is one RunCycles call: the MSR image (msr.Emulated.Image) in
// force and the cycles run, leading to the state to.
type histEdge struct {
	img []uint64
	n   uint64
	to  *histNode
}

// observe records sys's observable state as a node.
func observe(sys *sim.System) *histNode {
	nd := &histNode{snaps: sys.Snapshots(), nodeBytes: make([]uint64, sys.NumNodes()), now: sys.Now()}
	for i := range nd.nodeBytes {
		nd.nodeBytes[i] = sys.NodeBytes(i)
	}
	return nd
}

// child returns the edge out of nd keyed (img, n), or nil. c.mu held.
func (nd *histNode) child(img []uint64, n uint64) *histEdge {
	for _, e := range nd.edges {
		if e.n == n && slices.Equal(e.img, img) {
			return e
		}
	}
	return nil
}

// prefix is one (mix, seed)'s first execution epoch and its history tree.
type prefix struct {
	ready chan struct{}  // closed once sys, root, start, shape and err are set
	sys   *sim.System    // the machine at cycle ExecutionEpoch; only read
	root  *histNode      // sys's observable state
	start []pmu.Snapshot // the cold counters the first epoch started from
	shape sim.Config     // sys's configuration, for the runs' targets
	err   error

	// left counts the (mix, seed)'s runs that have not started yet and
	// following the started runs that have neither finished nor taken a
	// machine of their own; sys and the tree are released when both
	// reach zero.
	left, following int
}

// prefixCache shares each (mix, seed)'s first execution epoch and history
// tree among the sweep's runs of it. It is safe for concurrent use. The
// epoch is simulated by the first run that needs it (singleflight:
// concurrent runs wait for it), never on a run-store hit, and its machine
// is released once every run of the (mix, seed) has started and finished
// or made its own copy. Machines are recycled through a pool rather than
// allocated per run, so a one-worker sweep holds at most two: a prefix
// and a working copy.
type prefixCache struct {
	opts Options

	mu       sync.Mutex
	m        map[prefixKey]*prefix
	free     []*sim.System // recycled machines, all of the sweep's shape
	held     int           // prefix machines not yet released
	made     int           // machines allocated by this sweep
	followed int           // runs that simulated nothing past their prefix
	replayed int           // runs that replayed a recorded head, then ran live
}

// init sizes the cache for a sweep in which every (mix, seed) has runs
// runs.
func (c *prefixCache) init(opts Options, nMixes, nSeeds, runs int) {
	c.opts = opts
	c.m = make(map[prefixKey]*prefix, nMixes*nSeeds)
	for mi := 0; mi < nMixes; mi++ {
		for si := 0; si < nSeeds; si++ {
			c.m[prefixKey{mi, si}] = &prefix{left: runs}
		}
	}
}

// acquire starts a run of mix under seed: it returns a target at the root
// of the (mix, seed)'s history tree, which the caller hands back with
// finish. The first caller for k simulates the first execution epoch;
// later ones wait for it.
func (c *prefixCache) acquire(k prefixKey, mix mixes.Mix, seed int64) (*runTarget, error) {
	c.mu.Lock()
	p := c.m[k]
	p.left--
	p.following++
	leader := p.ready == nil
	if leader {
		p.ready = make(chan struct{})
	}
	c.mu.Unlock()

	if leader {
		sys, start, err := c.build(mix, seed)
		c.mu.Lock()
		p.sys, p.start, p.err = sys, start, err
		if err == nil {
			p.root, p.shape = observe(sys), sys.Config()
			c.held++
		}
		c.mu.Unlock()
		close(p.ready)
	} else {
		<-p.ready
	}
	if p.err != nil {
		c.mu.Lock()
		p.following--
		c.mu.Unlock()
		return nil, p.err
	}
	return newRunTarget(c, p), nil
}

// build simulates mix's first execution epoch under seed on a recycled
// machine, or a new one when none is free.
func (c *prefixCache) build(mix mixes.Mix, seed int64) (*sim.System, []pmu.Snapshot, error) {
	collect() // the last prefix's runs' garbage, so this one reuses its memory
	c.mu.Lock()
	sys := c.popFree()
	if sys == nil {
		c.made++
	}
	c.mu.Unlock()
	var err error
	if sys != nil {
		err = sys.Reset(mix.Specs, seed)
	} else {
		sys, err = sim.New(c.opts.Sim, mix.Specs, seed)
	}
	if err != nil {
		return nil, nil, err
	}
	collect() // the generators Reset replaced
	start := sys.Snapshots()
	sys.Run(c.opts.CMM.ExecutionEpoch)
	return sys, start, nil
}

// follow returns the edge out of nd keyed (img, n), or nil when no run
// has recorded it yet.
func (c *prefixCache) follow(nd *histNode, img []uint64, n uint64) *histEdge {
	c.mu.Lock()
	defer c.mu.Unlock()
	return nd.child(img, n)
}

// record publishes next as nd's child keyed (img, n) and returns it. When
// another run recorded that edge first, its node, which holds the same
// state, is returned instead.
func (c *prefixCache) record(nd *histNode, img []uint64, n uint64, next *histNode) *histNode {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := nd.child(img, n); e != nil {
		return e.to
	}
	nd.edges = append(nd.edges, &histEdge{img: slices.Clone(img), n: n, to: next})
	return next
}

// take gives a run that stops following p a machine of its own in p's
// state at the root: a copy of p's machine, or the machine itself when no
// other run can still need it.
func (c *prefixCache) take(p *prefix) *sim.System {
	c.mu.Lock()
	if p.left == 0 && p.following == 1 {
		sys := p.sys
		p.following = 0
		p.sys, p.root = nil, nil
		c.held--
		c.mu.Unlock()
		return sys
	}
	w := c.popFree()
	if w == nil {
		c.made++
	}
	c.mu.Unlock()

	// Many runs may copy one prefix at once: CopyFrom only reads it.
	if w == nil {
		w = p.sys.Clone()
	} else if err := w.CopyFrom(p.sys); err != nil {
		panic(err) // every machine of a sweep has the same shape
	}
	c.mu.Lock()
	p.following--
	c.maybeRelease(p)
	c.mu.Unlock()
	return w
}

// finish ends a run started by acquire: its machine, if it took one, goes
// back for reuse.
func (c *prefixCache) finish(t *runTarget) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.sys != nil {
		if t.replayed {
			c.replayed++
		}
		c.free = append(c.free, t.sys)
		return
	}
	c.followed++
	t.p.following--
	c.maybeRelease(t.p)
}

// skip records that a run of k finished without its prefix: a run-store
// hit, which simulates nothing.
func (c *prefixCache) skip(k prefixKey) {
	c.mu.Lock()
	p := c.m[k]
	p.left--
	c.maybeRelease(p)
	c.mu.Unlock()
}

// close drops every prefix and recycled machine. Runs that never started
// (a cancelled sweep, or one stopped by another run's error) leave their
// prefixes' counts above zero; close releases those too.
func (c *prefixCache) close() {
	c.mu.Lock()
	for _, p := range c.m {
		if p.sys != nil {
			p.sys, p.root = nil, nil
			c.held--
		}
	}
	made := c.made
	c.m, c.free = nil, nil
	c.mu.Unlock()
	if made > 0 {
		collect() // the sweep's machines die together
	}
}

// collect runs a garbage collection. A sweep's machines are most of the
// live heap, and the collector lets garbage grow to the size of the live
// heap before its next cycle: with two machines held, that is two more
// machines' worth of memory before anything is freed. Left alone, a
// sweep's dead generators and runs would be allocated over instead of
// reused, and the dead machines of a finished sweep would pile up under
// the next sweep's (a job service runs one sweep per job), so the sweep
// collects where they die: when it starts a prefix and when it ends.
// Machine arrays hold no pointers, so a cycle costs well under a
// millisecond, against the hundreds a prefix takes to simulate.
func collect() { runtime.GC() }

// maybeRelease recycles p's machine and drops its tree once no run can
// need them. c.mu held.
func (c *prefixCache) maybeRelease(p *prefix) {
	if p.left == 0 && p.following == 0 && p.sys != nil {
		c.free = append(c.free, p.sys)
		p.sys, p.root = nil, nil
		c.held--
	}
}

// popFree takes a recycled machine, or nil. c.mu held.
func (c *prefixCache) popFree() *sim.System {
	n := len(c.free)
	if n == 0 {
		return nil
	}
	sys := c.free[n-1]
	c.free = c.free[:n-1]
	return sys
}
