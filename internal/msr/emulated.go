package msr

import (
	"maps"
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
	watch   []Watcher
	numCLOS int
}

// NewEmulated returns an emulated bank for n logical CPUs supporting
// numCLOS classes of service (Broadwell-EP exposes 16).
func NewEmulated(n, numCLOS int) *Emulated {
	b := &Emulated{regs: make([]map[uint32]uint64, n), numCLOS: numCLOS}
	for i := range b.regs {
		b.regs[i] = map[uint32]uint64{
			MiscFeatureControl: 0, // all prefetchers enabled at reset
			PQRAssoc:           0, // CLOS0
		}
		for c := 0; c < numCLOS; c++ {
			// CLOS masks reset to all-ones (20 ways on the target part);
			// the cat package narrows them. MBA resets to unthrottled.
			b.regs[i][L3MaskBase+uint32(c)] = (1 << 20) - 1
			b.regs[i][MBAThrottleBase+uint32(c)] = 0
		}
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
	b.numCLOS = src.numCLOS
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
