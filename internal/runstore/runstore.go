package runstore

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	mrand "math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cmm/internal/faultinject"
)

// ErrBreakerOpen is returned by Put when the disk circuit breaker is
// open: the write was skipped (the in-memory entry is still installed),
// and the store is degrading to compute-without-memoization until the
// disk recovers.
var ErrBreakerOpen = errors.New("runstore: circuit breaker open; disk write skipped")

// DefaultMemoryEntries is the default capacity of the in-memory LRU front.
const DefaultMemoryEntries = 1024

// Stats is a snapshot of the store's counters since Open.
type Stats struct {
	// Hits and Misses count Get outcomes (GetOrCompute included; the
	// waiters of a deduplicated computation each count once).
	Hits, Misses int64
	// Computes counts compute callbacks actually executed — under
	// singleflight this can be far below Misses.
	Computes int64
	// Quarantined counts disk entries set aside because they failed to
	// parse; they are renamed with a .corrupt suffix, never deleted.
	Quarantined int64
	// Errors counts non-fatal disk failures (unreadable files, failed
	// writes) that were absorbed as misses.
	Errors int64
	// Evictions counts disk entries removed by Sweep (age or size limit).
	Evictions int64
	// BreakerOpen reports whether the disk circuit breaker is currently
	// open (disk I/O suspended, store degraded to memory + compute).
	BreakerOpen bool
	// BreakerTrips counts closed→open transitions of the breaker.
	BreakerTrips int64
	// BreakerSkipped counts disk operations skipped while the breaker was
	// open.
	BreakerSkipped int64
}

// Store is a content-addressed cache of JSON-encoded run results with an
// in-memory LRU front and an optional disk body. All methods are safe for
// concurrent use.
//
// Values are opaque byte slices to the store; callers must not mutate a
// returned slice (hits share the cached copy).
type Store struct {
	dir string // "" = memory only
	cap int

	// maxBytes and maxAge bound the disk body; Sweep enforces them.
	// Zero means unlimited.
	maxBytes int64
	maxAge   time.Duration

	// touchEvery throttles memory-hit disk-mtime refreshes: a hot key
	// served from the LRU front refreshes its file's mtime at most once
	// per window, so Sweep's recency ordering sees memory hits without
	// every hot read paying a Chtimes. Zero disables (no disk body or no
	// limits to cooperate with).
	touchEvery time.Duration

	// fsys and clock are the fault-injection seam: production stores use
	// the real OS and clock, tests substitute failing/torn/slow variants.
	fsys  faultinject.FS
	clock faultinject.Clock

	// brk suspends disk I/O after consecutive failures so a dead disk
	// degrades the store to memory + compute instead of erroring per op.
	brk *breaker

	mu       sync.Mutex
	order    *list.List               // front = most recent; values are *memEntry
	index    map[string]*list.Element // key -> element in order
	inflight map[string]*flight

	sweepMu sync.Mutex // serializes Sweep walks

	hits, misses, computes, quarantined, errs, evictions atomic.Int64
}

type memEntry struct {
	key string
	val []byte
	// touched is when the entry's disk mtime was last refreshed (by a
	// disk write, a disk read, or a throttled memory-hit touch); it is
	// the LRU front's half of the sweeper-cooperation contract.
	touched time.Time
}

// flight is one in-progress computation; waiters block on done. hit
// records whether the flight resolved from disk rather than computing.
type flight struct {
	done chan struct{}
	val  []byte
	hit  bool
	err  error
}

// Option configures Open.
type Option func(*Store)

// WithMemoryEntries sets the LRU capacity (entries, not bytes). n <= 0
// keeps DefaultMemoryEntries.
func WithMemoryEntries(n int) Option {
	return func(s *Store) {
		if n > 0 {
			s.cap = n
		}
	}
}

// WithMaxBytes caps the disk body's total size; Sweep evicts the
// least-recently-used entries (by file mtime, which disk reads refresh)
// until the body fits. n <= 0 means unlimited.
func WithMaxBytes(n int64) Option {
	return func(s *Store) {
		if n > 0 {
			s.maxBytes = n
		}
	}
}

// WithMaxAge expires disk entries not read or written for longer than d;
// Sweep removes them regardless of the size budget. d <= 0 means
// unlimited.
func WithMaxAge(d time.Duration) Option {
	return func(s *Store) {
		if d > 0 {
			s.maxAge = d
		}
	}
}

// WithFS substitutes the filesystem the store's disk body goes through —
// the fault-injection seam. A nil fs keeps the real OS.
func WithFS(fsys faultinject.FS) Option {
	return func(s *Store) {
		if fsys != nil {
			s.fsys = fsys
		}
	}
}

// WithClock substitutes the store's time source (mtime refreshes, sweep
// age checks, breaker cooldowns). A nil clock keeps the real one.
func WithClock(c faultinject.Clock) Option {
	return func(s *Store) {
		if c != nil {
			s.clock = c
		}
	}
}

// WithBreaker tunes the disk circuit breaker: the store stops touching
// the disk after threshold consecutive I/O failures and probes it again
// after cooldown. Non-positive values keep the defaults.
func WithBreaker(threshold int, cooldown time.Duration) Option {
	return func(s *Store) {
		s.brk = newBreaker(threshold, cooldown)
	}
}

// Open returns a store rooted at dir, creating the directory if needed.
// An empty dir yields a memory-only store (no persistence) — useful for
// tests and for servers run without a -store flag.
func Open(dir string, opts ...Option) (*Store, error) {
	s := &Store{
		dir:      dir,
		cap:      DefaultMemoryEntries,
		order:    list.New(),
		index:    map[string]*list.Element{},
		inflight: map[string]*flight{},
		fsys:     faultinject.OS{},
		clock:    faultinject.RealClock{},
	}
	for _, o := range opts {
		o(s)
	}
	if s.brk == nil {
		s.brk = newBreaker(DefaultBreakerThreshold, DefaultBreakerCooldown)
	}
	if dir != "" {
		if err := s.fsys.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("runstore: open %s: %w", dir, err)
		}
		// Keep hot memory-front entries alive on disk: refresh their
		// mtime often enough that a key read every epoch can never age
		// past the sweep limits, but far less often than it is read.
		switch {
		case s.maxAge > 0:
			s.touchEvery = s.maxAge / 8
		case s.maxBytes > 0:
			s.touchEvery = time.Minute
		}
	}
	return s, nil
}

// Dir returns the disk root, or "" for a memory-only store.
func (s *Store) Dir() string { return s.dir }

// path shards entries by the first two hash characters so no single
// directory grows unbounded.
func (s *Store) path(key string) string {
	shard := "xx"
	if len(key) >= 2 {
		shard = key[:2]
	}
	return filepath.Join(s.dir, shard, key+".json")
}

// Get returns the cached value for key, reporting whether it was found.
// Disk entries that fail to parse are quarantined and reported as misses.
func (s *Store) Get(key string) ([]byte, bool) {
	if v, ok, touch := s.memGet(key); ok {
		if touch {
			s.touchDisk(key)
		}
		s.hits.Add(1)
		return v, true
	}
	if v, ok := s.diskGet(key); ok {
		s.memPut(key, v)
		s.hits.Add(1)
		return v, true
	}
	s.misses.Add(1)
	return nil, false
}

// Put stores val under key in memory and, when the store has a disk body,
// persists it atomically (temp file + rename in the same directory). Disk
// failures are returned but leave the in-memory entry in place.
func (s *Store) Put(key string, val []byte) error {
	s.memPut(key, val)
	return s.diskPut(key, val)
}

// GetOrCompute returns the value for key, computing and storing it on a
// miss. Concurrent calls for the same missing key are deduplicated: one
// caller runs compute, the rest block and share its result (singleflight).
// A compute error is delivered to every waiter of that flight but is not
// cached — a later call retries. hit reports whether the value came from
// the cache (for the caller that computed, and for the waiters that shared
// its flight, hit is false).
func (s *Store) GetOrCompute(key string, compute func() ([]byte, error)) (val []byte, hit bool, err error) {
	if v, ok, touch := s.memGet(key); ok {
		if touch {
			s.touchDisk(key)
		}
		s.hits.Add(1)
		return v, true, nil
	}
	s.mu.Lock()
	// Re-check under the lock: a flight may have landed the value between
	// the unlocked peek and here.
	if el, ok := s.index[key]; ok {
		s.order.MoveToFront(el)
		e := el.Value.(*memEntry)
		v, touch := e.val, s.noteTouch(e)
		s.mu.Unlock()
		if touch {
			s.touchDisk(key)
		}
		s.hits.Add(1)
		return v, true, nil
	}
	if f, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		<-f.done
		return s.resolve(f)
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[key] = f
	s.mu.Unlock()

	f.val, f.hit, f.err = s.fill(key, compute)
	s.mu.Lock()
	delete(s.inflight, key)
	s.mu.Unlock()
	close(f.done)
	return s.resolve(f)
}

// resolve turns one finished flight into a caller's return values, charging
// the hit/miss counters once per caller sharing the flight.
func (s *Store) resolve(f *flight) ([]byte, bool, error) {
	if f.err != nil {
		return nil, false, f.err
	}
	if f.hit {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return f.val, f.hit, nil
}

// fill resolves one missed key for the flight owner: disk first, then the
// compute callback, persisting its result.
func (s *Store) fill(key string, compute func() ([]byte, error)) ([]byte, bool, error) {
	if v, ok := s.diskGet(key); ok {
		s.memPut(key, v)
		return v, true, nil
	}
	s.computes.Add(1)
	v, err := compute()
	if err != nil {
		return nil, false, err
	}
	// The value is good even if persisting it failed; Put already counted
	// the disk error, so absorb it and serve the computation.
	s.Put(key, v)
	return v, false, nil
}

// memGet looks the key up in the LRU, refreshing its recency. touch
// reports that the caller must refresh the entry's disk mtime — decided
// and recorded under the lock, so concurrent hits on one key touch the
// disk once per window, never in a stampede.
func (s *Store) memGet(key string) (val []byte, ok, touch bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, found := s.index[key]
	if !found {
		return nil, false, false
	}
	s.order.MoveToFront(el)
	e := el.Value.(*memEntry)
	return e.val, true, s.noteTouch(e)
}

// noteTouch decides whether a memory hit is due a disk-mtime refresh and
// stamps the entry if so. Callers must hold s.mu and, on true, call
// touchDisk after releasing it.
func (s *Store) noteTouch(e *memEntry) bool {
	if s.touchEvery <= 0 {
		return false
	}
	now := s.clock.Now()
	if now.Sub(e.touched) < s.touchEvery {
		return false
	}
	e.touched = now
	return true
}

// touchDisk refreshes key's on-disk mtime so Sweep's recency ordering
// sees memory-front hits, not just disk reads. Best-effort and outside
// the LRU lock: the file may have been swept meanwhile (the memory entry
// keeps serving), and a tripped breaker skips the poke entirely.
func (s *Store) touchDisk(key string) {
	now := s.clock.Now()
	if !s.brk.allow(now) {
		return
	}
	s.fsys.Chtimes(s.path(key), now, now)
}

// memPut inserts or refreshes the key, evicting from the back past cap.
func (s *Store) memPut(key string, val []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock.Now()
	if el, ok := s.index[key]; ok {
		e := el.Value.(*memEntry)
		e.val, e.touched = val, now
		s.order.MoveToFront(el)
		return
	}
	s.index[key] = s.order.PushFront(&memEntry{key: key, val: val, touched: now})
	for s.order.Len() > s.cap {
		back := s.order.Back()
		s.order.Remove(back)
		delete(s.index, back.Value.(*memEntry).key)
	}
}

// diskGet loads the key's file. Invalid JSON is quarantined: the file is
// renamed aside with a .corrupt suffix so the bad bytes stay inspectable
// and the slot becomes writable again — corruption costs a recomputation,
// never a crash.
func (s *Store) diskGet(key string) ([]byte, bool) {
	if s.dir == "" {
		return nil, false
	}
	if !s.brk.allow(s.clock.Now()) {
		return nil, false // degraded: treat as a miss without touching the disk
	}
	p := s.path(key)
	data, err := s.fsys.ReadFile(p)
	if err != nil {
		if !os.IsNotExist(err) {
			s.errs.Add(1)
			s.brk.failure(s.clock.Now())
		}
		// Absence is neutral: it is not a fault, but it proves so little
		// about disk health (a full disk still resolves lookups) that it
		// must not reset the breaker's consecutive-failure count either —
		// otherwise a store whose every write fails would interleave
		// misses with failures and never trip.
		return nil, false
	}
	s.brk.success()
	if !json.Valid(data) {
		s.quarantined.Add(1)
		if err := s.fsys.Rename(p, p+".corrupt"); err != nil {
			// Renaming failed (e.g. read-only store); removing is the
			// other way to free the slot, and if that fails too the
			// entry simply stays a miss.
			s.fsys.Remove(p)
		}
		return nil, false
	}
	if s.maxBytes > 0 || s.maxAge > 0 {
		// Refresh the mtime so Sweep's LRU-by-mtime ordering tracks reads,
		// not just writes. Best-effort: a read-only body still serves.
		now := s.clock.Now()
		s.fsys.Chtimes(p, now, now)
	}
	return data, true
}

// diskPut persists atomically (faultinject.WriteFileAtomic), so readers
// only ever observe complete entries.
func (s *Store) diskPut(key string, val []byte) error {
	if s.dir == "" {
		return nil
	}
	if !s.brk.allow(s.clock.Now()) {
		return ErrBreakerOpen
	}
	p := s.path(key)
	if err := s.fsys.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		s.errs.Add(1)
		s.brk.failure(s.clock.Now())
		return fmt.Errorf("runstore: %w", err)
	}
	if err := faultinject.WriteFileAtomic(s.fsys, p, val, 0o644); err != nil {
		s.errs.Add(1)
		s.brk.failure(s.clock.Now())
		return fmt.Errorf("runstore: %w", err)
	}
	s.brk.success()
	return nil
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:           s.hits.Load(),
		Misses:         s.misses.Load(),
		Computes:       s.computes.Load(),
		Quarantined:    s.quarantined.Load(),
		Errors:         s.errs.Load(),
		Evictions:      s.evictions.Load(),
		BreakerOpen:    s.brk.isOpen(),
		BreakerTrips:   s.brk.trips.Load(),
		BreakerSkipped: s.brk.skipped.Load(),
	}
}

// Sweep enforces the WithMaxAge / WithMaxBytes limits on the disk body:
// entries unused for longer than the age limit are removed, then the
// least-recently-used entries (by mtime; reads refresh it) go until the
// body fits the byte budget. It returns how many entries were evicted.
// Memory-only stores and stores without limits are a no-op. Safe for
// concurrent use; concurrent Sweeps serialize.
func (s *Store) Sweep() (evicted int, err error) {
	if s.dir == "" || (s.maxBytes <= 0 && s.maxAge <= 0) {
		return 0, nil
	}
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()

	type diskEntry struct {
		path  string
		mtime time.Time
		size  int64
	}
	var entries []diskEntry
	var total int64
	err = s.fsys.WalkDir(s.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		info, err := d.Info()
		if err != nil {
			// Raced with another remover; skip the entry.
			return nil
		}
		entries = append(entries, diskEntry{path: path, mtime: info.ModTime(), size: info.Size()})
		total += info.Size()
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("runstore: sweep: %w", err)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].mtime.Before(entries[j].mtime) })
	now := s.clock.Now()
	for _, e := range entries {
		expired := s.maxAge > 0 && now.Sub(e.mtime) > s.maxAge
		over := s.maxBytes > 0 && total > s.maxBytes
		if !expired && !over {
			break
		}
		if err := s.fsys.Remove(e.path); err != nil {
			if !os.IsNotExist(err) {
				s.errs.Add(1)
			}
			continue
		}
		total -= e.size
		evicted++
		s.evictions.Add(1)
	}
	return evicted, nil
}

// DiskUsage walks the disk body and reports how many entries it holds and
// their total size in bytes. Quarantined (.corrupt) and temporary files are
// not counted. A memory-only store reports zeros.
func (s *Store) DiskUsage() (entries int, bytes int64, err error) {
	if s.dir == "" {
		return 0, 0, nil
	}
	err = s.fsys.WalkDir(s.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		entries++
		bytes += info.Size()
		return nil
	})
	return entries, bytes, err
}

// StartSweeper enforces the store's eviction limits once synchronously
// and then on a jittered interval until ctx is cancelled. Each wait is
// drawn uniformly from every·[1-jitter, 1+jitter] so multiple workers
// sharing one store directory don't sweep in lockstep (jitter is clamped
// to [0, 0.5]; pass 0 for a fixed period). logf receives human-readable
// progress and errors; nil discards them. every <= 0 runs only the
// initial sweep. Stores without limits make Sweep a no-op, so callers
// may start the sweeper unconditionally.
func StartSweeper(ctx context.Context, s *Store, every time.Duration, jitter float64, logf func(format string, args ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	sweep := func() {
		if n, err := s.Sweep(); err != nil {
			logf("store sweep: %v", err)
		} else if n > 0 {
			logf("store sweep evicted %d entries", n)
		}
	}
	sweep()
	if every <= 0 {
		return
	}
	jitter = math.Min(math.Max(jitter, 0), 0.5)
	next := func() time.Duration {
		if jitter == 0 {
			return every
		}
		f := 1 + jitter*(2*mrand.Float64()-1)
		return time.Duration(float64(every) * f)
	}
	go func() {
		t := time.NewTimer(next())
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				sweep()
				t.Reset(next())
			}
		}
	}()
}
