package experiments

import (
	"runtime"
	"sync"

	"cmm/internal/mixes"
	"cmm/internal/pmu"
	"cmm/internal/sim"
)

// A controller's first epoch is a plain execution epoch: every
// prefetcher on, full CAT masks, no MSR written before it ends (Fig. 4).
// So every policy run of one (mix, seed), the baseline included, starts by
// simulating the same cycles on the same cold machine. prefixCache
// simulates that epoch once per (mix, seed) and starts every run of it
// from an exact copy of the machine at cycle ExecutionEpoch; the runs
// finish the epoch with cmm.Controller.FinishEpoch. Copying a machine
// costs milliseconds, the epoch hundreds of them.

// prefixKey names one (mix, seed) of a sweep by index.
type prefixKey struct{ mi, si int }

// prefix is one (mix, seed)'s first execution epoch.
type prefix struct {
	ready chan struct{} // closed once sys, start and err are set
	sys   *sim.System   // the machine at cycle ExecutionEpoch; only read
	start []pmu.Snapshot
	err   error

	// left counts the (mix, seed)'s runs that have not started yet and
	// readers the runs using sys right now; the prefix is released when
	// both reach zero.
	left, readers int
}

// prefixCache shares each (mix, seed)'s first execution epoch among the
// sweep's runs of it. It is safe for concurrent use. The epoch is
// simulated by the first run that needs it (singleflight: concurrent runs
// wait for it), never on a run-store hit, and its machine is released
// after the last run of the (mix, seed) has started and finished copying
// it. Machines are recycled through a pool rather than allocated per run,
// so a one-worker sweep holds exactly two: a prefix and a working copy.
type prefixCache struct {
	opts Options

	mu   sync.Mutex
	m    map[prefixKey]*prefix
	free []*sim.System // recycled machines, all of the sweep's shape
	held int           // prefix machines not yet released
	made int           // machines allocated by this sweep
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

// acquire returns a machine that has just run the first execution epoch
// of mix under seed, owned by the caller until it hands it back with
// release, and the cold PMU snapshots that epoch started from. The first
// caller for k simulates the epoch; later ones copy its machine, except
// the (mix, seed)'s last run, which takes the prefix machine itself when
// no other run is still copying it.
func (c *prefixCache) acquire(k prefixKey, mix mixes.Mix, seed int64) (*sim.System, []pmu.Snapshot, error) {
	c.mu.Lock()
	p := c.m[k]
	p.left--
	p.readers++
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
			c.held++
		}
		c.mu.Unlock()
		close(p.ready)
	} else {
		<-p.ready
	}

	c.mu.Lock()
	if p.err != nil {
		p.readers--
		c.mu.Unlock()
		return nil, nil, p.err
	}
	if p.left == 0 && p.readers == 1 {
		sys := p.sys
		p.sys, p.readers = nil, 0
		c.held--
		c.mu.Unlock()
		return sys, p.start, nil
	}
	w := c.popFree()
	if w == nil {
		c.made++
	}
	c.mu.Unlock()

	// Many runs may copy one prefix at once: CopyFrom only reads it.
	var err error
	if w == nil {
		w = p.sys.Clone()
	} else {
		err = w.CopyFrom(p.sys)
	}
	c.mu.Lock()
	p.readers--
	c.maybeRelease(p)
	c.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	return w, p.start, nil
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

// skip records that a run of k finished without its prefix: a run-store
// hit, which simulates nothing.
func (c *prefixCache) skip(k prefixKey) {
	c.mu.Lock()
	p := c.m[k]
	p.left--
	c.maybeRelease(p)
	c.mu.Unlock()
}

// release hands a machine from acquire back for reuse.
func (c *prefixCache) release(sys *sim.System) {
	c.mu.Lock()
	c.free = append(c.free, sys)
	c.mu.Unlock()
}

// close drops every prefix and recycled machine. Runs that never started
// (a cancelled sweep, or one stopped by another run's error) leave their
// prefixes' counts above zero; close releases those too.
func (c *prefixCache) close() {
	c.mu.Lock()
	for _, p := range c.m {
		if p.sys != nil {
			p.sys = nil
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

// maybeRelease recycles p's machine once no run can need it. c.mu held.
func (c *prefixCache) maybeRelease(p *prefix) {
	if p.left == 0 && p.readers == 0 && p.sys != nil {
		c.free = append(c.free, p.sys)
		p.sys = nil
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
