// Package faultinject is the repo's failure-testing seam: a narrow
// filesystem interface the durable stores (runstore, jobstore) do all
// their I/O through, plus a clock interface for lease deadlines, with
// fault-injecting implementations of both.
//
// Production code pays one interface call per I/O and nothing else: the
// default OS implementations are stateless zero-size structs. Tests wrap
// them in a FaultFS that can fail every Nth operation with a chosen
// error (EIO, ENOSPC, permission denied), add latency, or tear writes —
// persisting only a prefix of the data, the on-disk shape a crash
// mid-write leaves behind — and in a Clock they can advance by hand to
// expire leases without sleeping.
package faultinject

import (
	"crypto/rand"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// FS is the filesystem surface the durable stores need. Implementations
// must be safe for concurrent use (the OS one trivially is).
type FS interface {
	MkdirAll(path string, perm fs.FileMode) error
	ReadFile(name string) ([]byte, error)
	// WriteFile writes data to name, truncating or creating it. It is NOT
	// atomic; callers wanting atomicity write a temp name and Rename.
	WriteFile(name string, data []byte, perm fs.FileMode) error
	// CreateExclusive atomically creates name with data, failing with an
	// fs.ErrExist-matching error when the file already exists. Readers see
	// the whole file or none. This is the primitive lease claims are built
	// on.
	CreateExclusive(name string, data []byte, perm fs.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadDir(name string) ([]fs.DirEntry, error)
	Chtimes(name string, atime, mtime time.Time) error
	WalkDir(root string, fn fs.WalkDirFunc) error
}

// Clock abstracts time.Now so lease expiry is testable without sleeping.
type Clock interface {
	Now() time.Time
}

// OS is the production FS: direct delegation to the os package.
type OS struct{}

func (OS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (OS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (OS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	return os.WriteFile(name, data, perm)
}

// CreateExclusive writes data to a temp file and hard-links it to name,
// which fails when name exists. Unlike an O_EXCL create, which shows
// concurrent readers an empty file until the write lands, the link
// publishes the complete file in one step.
func (OS) CreateExclusive(name string, data []byte, perm fs.FileMode) error {
	tmp := tempName(name)
	err := os.WriteFile(tmp, data, perm)
	if err == nil {
		err = os.Link(tmp, name)
	}
	os.Remove(tmp)
	return err
}

func (OS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (OS) Remove(name string) error                   { return os.Remove(name) }
func (OS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }
func (OS) Chtimes(name string, atime, mtime time.Time) error {
	return os.Chtimes(name, atime, mtime)
}
func (OS) WalkDir(root string, fn fs.WalkDirFunc) error { return filepath.WalkDir(root, fn) }

// WriteFileAtomic writes data to name through a uniquely named temp file
// beside it and a rename, so readers see the old contents or the new,
// never a torn file, and concurrent writers never share a temp file. The
// temp file is removed when either step fails.
func WriteFileAtomic(fsys FS, name string, data []byte, perm fs.FileMode) error {
	tmp := tempName(name)
	err := fsys.WriteFile(tmp, data, perm)
	if err == nil {
		err = fsys.Rename(tmp, name)
	}
	if err != nil {
		fsys.Remove(tmp)
	}
	return err
}

// tempName returns a unique temp file name beside name.
func tempName(name string) string {
	var b [6]byte
	rand.Read(b[:]) // never fails (crypto/rand panics instead)
	return name + ".tmp" + hex.EncodeToString(b[:])
}

// RealClock is the production Clock.
type RealClock struct{}

func (RealClock) Now() time.Time { return time.Now() }

// FakeClock is a hand-advanced Clock for deterministic expiry tests.
type FakeClock struct {
	mu sync.Mutex
	t  time.Time
}

// NewFakeClock starts a fake clock at t.
func NewFakeClock(t time.Time) *FakeClock { return &FakeClock{t: t} }

func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the clock forward by d.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// Op names one FS operation class for fault matching.
type Op string

const (
	OpMkdir   Op = "mkdir"
	OpRead    Op = "read"
	OpWrite   Op = "write"
	OpCreate  Op = "create" // CreateExclusive
	OpRename  Op = "rename"
	OpRemove  Op = "remove"
	OpReadDir Op = "readdir"
	OpChtimes Op = "chtimes"
	OpWalk    Op = "walk"
	// OpAny matches every operation.
	OpAny Op = "*"
)

// Fault describes one injected failure behaviour. The zero EveryN is
// treated as 1 (every matching call).
type Fault struct {
	// Op selects which operations the fault applies to (OpAny for all).
	Op Op
	// EveryN fires the fault on every Nth matching call (1 = always).
	EveryN int
	// Times stops the fault after it has fired this many times (0 = forever).
	Times int
	// Err is returned from the faulted call. A nil Err with Torn set makes
	// a torn write "succeed" silently — the crash-during-write shape.
	Err error
	// Torn makes a faulted WriteFile or CreateExclusive persist only the
	// first half of the data before returning.
	Torn bool
	// Delay is added latency before the operation proceeds (injected
	// slowness rather than failure; combine with a nil Err).
	Delay time.Duration
}

type faultState struct {
	Fault
	calls, fired int
}

// FaultFS wraps an FS and applies injected faults. Safe for concurrent
// use. Faults are matched in the order they were added; the first one
// that fires wins.
type FaultFS struct {
	inner FS

	mu     sync.Mutex
	faults []*faultState
	counts map[Op]int64
}

// Wrap builds a FaultFS over inner (nil inner means the real OS).
func Wrap(inner FS) *FaultFS {
	if inner == nil {
		inner = OS{}
	}
	return &FaultFS{inner: inner, counts: map[Op]int64{}}
}

// Inject adds a fault and returns the FaultFS for chaining.
func (f *FaultFS) Inject(fault Fault) *FaultFS {
	if fault.EveryN <= 0 {
		fault.EveryN = 1
	}
	f.mu.Lock()
	f.faults = append(f.faults, &faultState{Fault: fault})
	f.mu.Unlock()
	return f
}

// Reset removes every fault, leaving the operation counts intact.
func (f *FaultFS) Reset() {
	f.mu.Lock()
	f.faults = nil
	f.mu.Unlock()
}

// Count reports how many operations of the given class have been issued.
func (f *FaultFS) Count(op Op) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts[op]
}

// check records the op and decides whether a fault fires for this call.
func (f *FaultFS) check(op Op) (delay time.Duration, torn bool, err error, fired bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.counts[op]++
	for _, st := range f.faults {
		if st.Op != OpAny && st.Op != op {
			continue
		}
		st.calls++
		if st.calls%st.EveryN != 0 {
			continue
		}
		if st.Times > 0 && st.fired >= st.Times {
			continue
		}
		st.fired++
		return st.Delay, st.Torn, st.Err, true
	}
	return 0, false, nil, false
}

func (f *FaultFS) MkdirAll(path string, perm fs.FileMode) error {
	delay, _, err, fired := f.check(OpMkdir)
	sleep(delay)
	if fired && err != nil {
		return err
	}
	return f.inner.MkdirAll(path, perm)
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	delay, _, err, fired := f.check(OpRead)
	sleep(delay)
	if fired && err != nil {
		return nil, err
	}
	return f.inner.ReadFile(name)
}

func (f *FaultFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	delay, torn, err, fired := f.check(OpWrite)
	sleep(delay)
	if fired {
		if torn {
			f.inner.WriteFile(name, data[:len(data)/2], perm)
			return err
		}
		if err != nil {
			return err
		}
	}
	return f.inner.WriteFile(name, data, perm)
}

func (f *FaultFS) CreateExclusive(name string, data []byte, perm fs.FileMode) error {
	delay, torn, err, fired := f.check(OpCreate)
	sleep(delay)
	if fired {
		if torn {
			f.inner.CreateExclusive(name, data[:len(data)/2], perm)
			return err
		}
		if err != nil {
			return err
		}
	}
	return f.inner.CreateExclusive(name, data, perm)
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	delay, _, err, fired := f.check(OpRename)
	sleep(delay)
	if fired && err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error {
	delay, _, err, fired := f.check(OpRemove)
	sleep(delay)
	if fired && err != nil {
		return err
	}
	return f.inner.Remove(name)
}

func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) {
	delay, _, err, fired := f.check(OpReadDir)
	sleep(delay)
	if fired && err != nil {
		return nil, err
	}
	return f.inner.ReadDir(name)
}

func (f *FaultFS) Chtimes(name string, atime, mtime time.Time) error {
	delay, _, err, fired := f.check(OpChtimes)
	sleep(delay)
	if fired && err != nil {
		return err
	}
	return f.inner.Chtimes(name, atime, mtime)
}

func (f *FaultFS) WalkDir(root string, fn fs.WalkDirFunc) error {
	delay, _, err, fired := f.check(OpWalk)
	sleep(delay)
	if fired && err != nil {
		return err
	}
	return f.inner.WalkDir(root, fn)
}

func sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}
