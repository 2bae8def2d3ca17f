package msr

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func TestEmulatedResetState(t *testing.T) {
	b := NewEmulated(4, 16)
	if got := b.NumCPU(); got != 4 {
		t.Fatalf("NumCPU = %d, want 4", got)
	}
	for cpu := 0; cpu < 4; cpu++ {
		v, err := b.Read(cpu, MiscFeatureControl)
		if err != nil {
			t.Fatalf("read 0x1A4 cpu %d: %v", cpu, err)
		}
		if v != 0 {
			t.Errorf("cpu %d: prefetchers not all enabled at reset: %#x", cpu, v)
		}
		pqr, err := b.Read(cpu, PQRAssoc)
		if err != nil {
			t.Fatalf("read PQR cpu %d: %v", cpu, err)
		}
		if ClosOf(pqr) != 0 {
			t.Errorf("cpu %d: reset CLOS = %d, want 0", cpu, ClosOf(pqr))
		}
	}
}

func TestEmulatedResetMasksAllOnes(t *testing.T) {
	b := NewEmulated(2, 4)
	for c := 0; c < 4; c++ {
		v, err := b.Read(0, L3MaskBase+uint32(c))
		if err != nil {
			t.Fatalf("read mask %d: %v", c, err)
		}
		if v != (1<<20)-1 {
			t.Errorf("CLOS%d reset mask = %#x, want 0xfffff", c, v)
		}
	}
}

func TestEmulatedWriteRead(t *testing.T) {
	b := NewEmulated(2, 16)
	if err := b.Write(1, MiscFeatureControl, DisableAll); err != nil {
		t.Fatal(err)
	}
	v, err := b.Read(1, MiscFeatureControl)
	if err != nil {
		t.Fatal(err)
	}
	if v != DisableAll {
		t.Fatalf("read back %#x, want %#x", v, DisableAll)
	}
	// Other CPU unaffected.
	v, err = b.Read(0, MiscFeatureControl)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("cpu 0 perturbed: %#x", v)
	}
}

func TestEmulatedBadCPU(t *testing.T) {
	b := NewEmulated(2, 16)
	if _, err := b.Read(2, MiscFeatureControl); err == nil {
		t.Error("Read(2): want error")
	} else {
		var bad *BadCPUError
		if !errors.As(err, &bad) {
			t.Errorf("Read(2): error type %T, want *BadCPUError", err)
		}
	}
	if err := b.Write(-1, MiscFeatureControl, 0); err == nil {
		t.Error("Write(-1): want error")
	}
}

func TestEmulatedUnknownReg(t *testing.T) {
	b := NewEmulated(1, 16)
	_, err := b.Read(0, 0xDEAD)
	var unk *UnknownRegError
	if !errors.As(err, &unk) {
		t.Fatalf("error %v, want *UnknownRegError", err)
	}
	// But a write makes the register exist (sparse model).
	if err := b.Write(0, 0xDEAD, 42); err != nil {
		t.Fatal(err)
	}
	v, err := b.Read(0, 0xDEAD)
	if err != nil || v != 42 {
		t.Fatalf("after write: %v, %v", v, err)
	}
}

func TestWatcherSeesWrites(t *testing.T) {
	b := NewEmulated(2, 16)
	type rec struct {
		cpu int
		reg uint32
		v   uint64
	}
	var got []rec
	b.AddWatcher(WatcherFunc(func(cpu int, reg uint32, v uint64) {
		got = append(got, rec{cpu, reg, v})
	}))
	if err := b.Write(1, PQRAssoc, PQRValue(0, 3)); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].cpu != 1 || got[0].reg != PQRAssoc || ClosOf(got[0].v) != 3 {
		t.Fatalf("watcher saw %+v", got)
	}
}

func TestWatcherObservesStateAfterWrite(t *testing.T) {
	b := NewEmulated(1, 16)
	b.AddWatcher(WatcherFunc(func(cpu int, reg uint32, v uint64) {
		// The written value must already be visible through Read.
		r, err := b.Read(cpu, reg)
		if err != nil || r != v {
			t.Errorf("read-in-watcher = %v,%v; want %v", r, err, v)
		}
	}))
	if err := b.Write(0, MiscFeatureControl, DisableL1IP); err != nil {
		t.Fatal(err)
	}
}

func TestClosRoundTrip(t *testing.T) {
	f := func(clos uint16, rmid uint16) bool {
		c := int(clos % 128)
		prev := uint64(rmid % 1024)
		v := PQRValue(prev, c)
		return ClosOf(v) == c && v&((1<<10)-1) == prev
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPQRValueDropsOldCLOS(t *testing.T) {
	v := PQRValue(PQRValue(0, 7), 2)
	if ClosOf(v) != 2 {
		t.Fatalf("CLOS = %d, want 2", ClosOf(v))
	}
}

func TestDisableBitsDistinct(t *testing.T) {
	bits := []uint64{DisableL2Stream, DisableL2Adjacent, DisableL1NextLine, DisableL1IP}
	seen := uint64(0)
	for _, b := range bits {
		if b&seen != 0 {
			t.Fatalf("overlapping disable bits: %#x", b)
		}
		seen |= b
	}
	if seen != DisableAll {
		t.Fatalf("DisableAll = %#x, want %#x", DisableAll, seen)
	}
}

func TestEmulatedConcurrentAccess(t *testing.T) {
	// The bank must tolerate concurrent readers/writers (the controller
	// IPIs every core "simultaneously" in the paper's kernel module).
	b := NewEmulated(8, 16)
	var wg sync.WaitGroup
	for cpu := 0; cpu < 8; cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(cpu)))
			for i := 0; i < 1000; i++ {
				v := rng.Uint64() & DisableAll
				if err := b.Write(cpu, MiscFeatureControl, v); err != nil {
					t.Error(err)
					return
				}
				got, err := b.Read(cpu, MiscFeatureControl)
				if err != nil {
					t.Error(err)
					return
				}
				if got != v {
					t.Errorf("cpu %d: read %#x after writing %#x", cpu, got, v)
					return
				}
			}
		}(cpu)
	}
	wg.Wait()
}

func TestDevCPUUnavailableOrRoundTrip(t *testing.T) {
	// On machines without the msr driver this validates the error path;
	// with it (and privileges), a read of 0x1A4 must succeed.
	if _, err := os.Stat("/dev/cpu/0/msr"); err != nil {
		if _, err := NewDevCPU(1); err == nil {
			t.Fatal("NewDevCPU succeeded without /dev/cpu/0/msr")
		}
		t.Skip("no /dev/cpu/0/msr on this machine")
	}
	d, err := NewDevCPU(1)
	if err != nil {
		t.Skipf("msr device present but unopenable: %v", err)
	}
	defer d.Close()
	if _, err := d.Read(0, MiscFeatureControl); err != nil {
		t.Skipf("msr read not permitted: %v", err)
	}
}

// TestImageIsCanonical: a bank's image lists exactly the registers that
// differ from a fresh bank's, in order, however they were written, so two
// banks have equal images exactly when they hold the same registers.
func TestImageIsCanonical(t *testing.T) {
	fresh := NewEmulated(4, 16)
	if img := fresh.Image(nil); len(img) != 0 {
		t.Fatalf("fresh bank image %#x, want empty", img)
	}
	a, b := NewEmulated(4, 16), NewEmulated(4, 16)
	writes := [][3]uint64{
		{3, uint64(L3MaskBase + 2), 0xf},
		{1, uint64(MiscFeatureControl), DisableAll},
		{0, uint64(PQRAssoc), PQRValue(0, 2)},
		{1, uint64(PQRAssoc), 0}, // the reset value: no entry
		{2, 0x10, 0},             // an unmodelled register: always an entry
	}
	for i, w := range writes {
		if err := a.Write(int(w[0]), uint32(w[1]), w[2]); err != nil {
			t.Fatal(err)
		}
		// b takes the writes in reverse order, plus one undone rewrite.
		r := writes[len(writes)-1-i]
		if err := b.Write(int(r[0]), uint32(r[1]), r[2]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Write(0, MiscFeatureControl, DisableL1IP); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(0, MiscFeatureControl, 0); err != nil {
		t.Fatal(err)
	}
	want := []uint64{
		0<<32 | uint64(PQRAssoc), PQRValue(0, 2),
		1<<32 | uint64(MiscFeatureControl), DisableAll,
		2<<32 | 0x10, 0,
		3<<32 | uint64(L3MaskBase+2), 0xf,
	}
	if got := a.Image(nil); !reflect.DeepEqual(got, want) {
		t.Errorf("image %#x, want %#x", got, want)
	}
	if got := b.Image(nil); !reflect.DeepEqual(got, want) {
		t.Errorf("same registers written another way: image %#x, want %#x", got, want)
	}
}

// TestImageLoadRoundTrip: loading an image reproduces the bank it came
// from, drops registers the image lacks, and tells watchers of exactly
// the registers whose value changed, in CPU and register order.
func TestImageLoadRoundTrip(t *testing.T) {
	src := NewEmulated(2, 4)
	for _, w := range []struct {
		cpu int
		reg uint32
		v   uint64
	}{{1, MiscFeatureControl, DisableAll}, {0, L3MaskBase + 1, 0x3}, {0, PQRAssoc, PQRValue(0, 1)}} {
		if err := src.Write(w.cpu, w.reg, w.v); err != nil {
			t.Fatal(err)
		}
	}
	dst := NewEmulated(2, 4)
	for _, w := range []struct {
		cpu int
		reg uint32
		v   uint64
	}{{0, L3MaskBase + 1, 0x3}, {1, MBAThrottleBase, 40}, {1, 0x20, 7}} {
		if err := dst.Write(w.cpu, w.reg, w.v); err != nil {
			t.Fatal(err)
		}
	}
	var heard []string
	dst.AddWatcher(WatcherFunc(func(cpu int, reg uint32, v uint64) {
		heard = append(heard, fmt.Sprintf("%d:%#x=%#x", cpu, reg, v))
	}))
	dst.LoadImage(src.Image(nil))
	if got, want := dst.Image(nil), src.Image(nil); !reflect.DeepEqual(got, want) {
		t.Errorf("loaded image %#x, want %#x", got, want)
	}
	if _, err := dst.Read(1, 0x20); err == nil {
		t.Error("a register the image lacks survived the load")
	}
	want := []string{
		fmt.Sprintf("0:%#x=%#x", PQRAssoc, PQRValue(0, 1)),
		fmt.Sprintf("1:%#x=%#x", MiscFeatureControl, DisableAll),
		fmt.Sprintf("1:%#x=0x0", MBAThrottleBase),
	}
	if !reflect.DeepEqual(heard, want) {
		t.Errorf("watchers heard %v, want %v", heard, want)
	}
}
