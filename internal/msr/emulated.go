package msr

import (
	"cmp"
	"maps"
	"slices"
	"sync"
)

// Watcher observes writes to an emulated bank. The simulator registers a
// watcher so that, exactly as on real hardware, storing to
// MiscFeatureControl or a CAT mask register immediately changes machine
// behaviour.
type Watcher interface {
	// MSRWritten is called after the store is visible in the bank.
	MSRWritten(cpu int, reg uint32, v uint64)
}

// WatcherFunc adapts a function to the Watcher interface.
type WatcherFunc func(cpu int, reg uint32, v uint64)

// MSRWritten implements Watcher.
func (f WatcherFunc) MSRWritten(cpu int, reg uint32, v uint64) { f(cpu, reg, v) }

// Emulated is an in-memory Bank. The zero value is not usable; construct
// with NewEmulated. It models the registers listed in msr.go plus any
// register previously written (real MSR banks hold state for thousands of
// registers; the emulation is lazily sparse).
type Emulated struct {
	mu      sync.Mutex
	regs    []map[uint32]uint64 // per cpu
	reset   map[uint32]uint64   // one cpu's registers at reset; never written
	watch   []Watcher
	numCLOS int
}

// NewEmulated returns an emulated bank for n logical CPUs supporting
// numCLOS classes of service (Broadwell-EP exposes 16).
func NewEmulated(n, numCLOS int) *Emulated {
	reset := map[uint32]uint64{
		MiscFeatureControl: 0, // all prefetchers enabled at reset
		PQRAssoc:           0, // CLOS0
	}
	for c := 0; c < numCLOS; c++ {
		// CLOS masks reset to all-ones (20 ways on the target part);
		// the cat package narrows them. MBA resets to unthrottled.
		reset[L3MaskBase+uint32(c)] = (1 << 20) - 1
		reset[MBAThrottleBase+uint32(c)] = 0
	}
	b := &Emulated{regs: make([]map[uint32]uint64, n), reset: reset, numCLOS: numCLOS}
	for i := range b.regs {
		b.regs[i] = maps.Clone(reset)
	}
	return b
}

// NumCLOS reports how many classes of service the bank models.
func (b *Emulated) NumCLOS() int { return b.numCLOS }

// NumCPU implements Bank.
func (b *Emulated) NumCPU() int { return len(b.regs) }

// AddWatcher registers w to be notified of every write.
func (b *Emulated) AddWatcher(w Watcher) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.watch = append(b.watch, w)
}

// CopyFrom makes b's registers an exact copy of src's. b keeps its own
// watchers and none of them is notified: the copy is not a write, and a
// machine copying a bank copies the state the writes produced with it.
// Both banks must span the same CPUs; it panics otherwise.
func (b *Emulated) CopyFrom(src *Emulated) {
	if b == src {
		return
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.regs) != len(src.regs) {
		panic("msr: CopyFrom across CPU counts")
	}
	for i, regs := range src.regs {
		clear(b.regs[i])
		maps.Copy(b.regs[i], regs)
	}
	b.reset, b.numCLOS = src.reset, src.numCLOS
}

// Image appends to dst a compact, canonical encoding of b's registers and
// returns it: one (cpu<<32|reg, value) pair for every register that
// differs from a freshly built bank's, in ascending order. Two banks of
// the same shape hold exactly the same registers if and only if their
// images are equal.
func (b *Emulated) Image(dst []uint64) []uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	for cpu, regs := range b.regs {
		from := len(dst)
		for reg, v := range regs {
			if r, ok := b.reset[reg]; !ok || v != r {
				dst = append(dst, uint64(cpu)<<32|uint64(reg), v)
			}
		}
		sortPairs(dst[from:])
	}
	return dst
}

// sortPairs sorts a flat slice of (key, value) pairs by key (insertion
// sort: a CPU's registers that differ from reset are few).
func sortPairs(p []uint64) {
	for i := 2; i < len(p); i += 2 {
		for j := i; j > 0 && p[j] < p[j-2]; j -= 2 {
			p[j], p[j+1], p[j-2], p[j-1] = p[j-2], p[j-1], p[j], p[j+1]
		}
	}
}

// LoadImage makes b's registers those of the bank img (see Image) was
// taken from, as if each register whose value changes were written:
// watchers hear of exactly those registers, after the whole image is in
// place, in CPU and register order. img must come from a bank of b's
// shape.
func (b *Emulated) LoadImage(img []uint64) {
	type write struct {
		cpu int
		reg uint32
		v   uint64
	}
	var writes []write
	b.mu.Lock()
	for cpu, regs := range b.regs {
		want := maps.Clone(b.reset)
		for i := 0; i < len(img); i += 2 {
			if int(img[i]>>32) == cpu {
				want[uint32(img[i])] = img[i+1]
			}
		}
		for reg, v := range want {
			if old, ok := regs[reg]; !ok || old != v {
				writes = append(writes, write{cpu, reg, v})
			}
		}
		b.regs[cpu] = want
	}
	slices.SortFunc(writes, func(x, y write) int {
		return cmp.Or(cmp.Compare(x.cpu, y.cpu), cmp.Compare(x.reg, y.reg))
	})
	watchers := append([]Watcher(nil), b.watch...)
	b.mu.Unlock()
	for _, w := range writes {
		for _, wt := range watchers {
			wt.MSRWritten(w.cpu, w.reg, w.v)
		}
	}
}

// Read implements Bank.
func (b *Emulated) Read(cpu int, reg uint32) (uint64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if cpu < 0 || cpu >= len(b.regs) {
		return 0, &BadCPUError{CPU: cpu, N: len(b.regs)}
	}
	v, ok := b.regs[cpu][reg]
	if !ok {
		return 0, &UnknownRegError{CPU: cpu, Reg: reg}
	}
	return v, nil
}

// Write implements Bank.
func (b *Emulated) Write(cpu int, reg uint32, v uint64) error {
	b.mu.Lock()
	if cpu < 0 || cpu >= len(b.regs) {
		b.mu.Unlock()
		return &BadCPUError{CPU: cpu, N: len(b.regs)}
	}
	b.regs[cpu][reg] = v
	watchers := make([]Watcher, len(b.watch))
	copy(watchers, b.watch)
	b.mu.Unlock()
	for _, w := range watchers {
		w.MSRWritten(cpu, reg, v)
	}
	return nil
}
