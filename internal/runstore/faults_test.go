package runstore

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cmm/internal/faultinject"
)

// errDisk stands in for EIO/ENOSPC in the injected faults.
var errDisk = errors.New("injected: no space left on device")

// TestFaultInjectStoreComputesThroughWriteFailure pins the degradation
// contract: when every disk write fails (full disk), GetOrCompute still
// serves the computed value — the store loses memoization, not results.
func TestFaultInjectStoreComputesThroughWriteFailure(t *testing.T) {
	ffs := faultinject.Wrap(faultinject.OS{}).
		Inject(faultinject.Fault{Op: faultinject.OpWrite, EveryN: 1, Err: errDisk})
	s, err := Open(t.TempDir(), WithFS(ffs), WithMemoryEntries(1))
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(1)
	v, hit, err := s.GetOrCompute(key, func() ([]byte, error) { return []byte(`{"v":1}`), nil })
	if err != nil || hit || string(v) != `{"v":1}` {
		t.Fatalf("GetOrCompute under write failure = (%q, %v, %v), want computed value", v, hit, err)
	}
	if n := s.Stats().Errors; n == 0 {
		t.Error("disk write failure not counted in Stats().Errors")
	}
	// Nothing durable was written: evict the memory entry and the value
	// must be recomputed, not read back.
	s.GetOrCompute(testKey(2), func() ([]byte, error) { return []byte(`{"v":2}`), nil })
	computes := 0
	v, hit, err = s.GetOrCompute(key, func() ([]byte, error) { computes++; return []byte(`{"v":1}`), nil })
	if err != nil || hit || computes != 1 {
		t.Fatalf("recompute after eviction = (%q, hit=%v, computes=%d, %v)", v, hit, computes, err)
	}
}

// TestFaultInjectStoreReadOnlyDir exercises the real-filesystem failure
// mode the seam simulates: a store directory that rejects writes.
func TestFaultInjectStoreReadOnlyDir(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root; directory permissions are not enforced")
	}
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	v, hit, err := s.GetOrCompute(testKey(1), func() ([]byte, error) { return []byte(`{"v":1}`), nil })
	if err != nil || hit || string(v) != `{"v":1}` {
		t.Fatalf("GetOrCompute on read-only dir = (%q, %v, %v)", v, hit, err)
	}
}

// TestFaultInjectBreakerOpensAndRecovers drives the circuit breaker
// through its full cycle with a fake clock: consecutive disk failures
// open it, an open breaker skips the disk entirely, and a successful
// probe after the cooldown closes it again.
func TestFaultInjectBreakerOpensAndRecovers(t *testing.T) {
	clk := faultinject.NewFakeClock(time.Unix(1000, 0))
	ffs := faultinject.Wrap(faultinject.OS{}).
		Inject(faultinject.Fault{Op: faultinject.OpWrite, Times: DefaultBreakerThreshold, Err: errDisk})
	s, err := Open(t.TempDir(), WithFS(ffs), WithClock(clk),
		WithBreaker(DefaultBreakerThreshold, time.Minute), WithMemoryEntries(1))
	if err != nil {
		t.Fatal(err)
	}

	// Each Put lands on a failing write; at the threshold the breaker opens.
	for i := 0; i < DefaultBreakerThreshold; i++ {
		if err := s.Put(testKey(i), []byte(`{}`)); err == nil {
			t.Fatalf("Put %d unexpectedly succeeded", i)
		}
	}
	st := s.Stats()
	if !st.BreakerOpen || st.BreakerTrips != 1 {
		t.Fatalf("after %d failures: open=%v trips=%d, want open with 1 trip",
			DefaultBreakerThreshold, st.BreakerOpen, st.BreakerTrips)
	}

	// Open breaker: writes are rejected without touching the disk, reads
	// degrade to misses.
	writes := ffs.Count(faultinject.OpWrite)
	if err := s.Put(testKey(100), []byte(`{}`)); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Put with open breaker = %v, want ErrBreakerOpen", err)
	}
	if got := ffs.Count(faultinject.OpWrite); got != writes {
		t.Errorf("open breaker still reached the disk (%d -> %d writes)", writes, got)
	}
	if s.Stats().BreakerSkipped == 0 {
		t.Error("skipped operations not counted")
	}

	// After the cooldown one probe is admitted; the fault budget is spent,
	// so it succeeds and closes the breaker.
	clk.Advance(2 * time.Minute)
	if err := s.Put(testKey(101), []byte(`{}`)); err != nil {
		t.Fatalf("probe Put after cooldown: %v", err)
	}
	if st := s.Stats(); st.BreakerOpen {
		t.Errorf("breaker still open after successful probe: %+v", st)
	}
}

// TestFaultInjectTornWriteQuarantined pins crash-consistency: a torn
// (half-persisted) store file is quarantined aside as .corrupt on read
// and the key recomputes — corruption never propagates and never crashes.
func TestFaultInjectTornWriteQuarantined(t *testing.T) {
	dir := t.TempDir()
	ffs := faultinject.Wrap(faultinject.OS{}).
		Inject(faultinject.Fault{Op: faultinject.OpWrite, Times: 1, Torn: true})
	s, err := Open(dir, WithFS(ffs), WithMemoryEntries(1))
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(1)
	if err := s.Put(key, []byte(`{"ipc":[1.5,2.25],"pad":"xxxxxxxxxxxxxxxx"}`)); err != nil {
		t.Fatalf("torn Put reported error: %v", err)
	}
	// Evict from memory so the next read goes to the torn disk file.
	s.Put(testKey(2), []byte(`{}`))

	v, hit, err := s.GetOrCompute(key, func() ([]byte, error) { return []byte(`{"recomputed":true}`), nil })
	if err != nil || hit || string(v) != `{"recomputed":true}` {
		t.Fatalf("GetOrCompute over torn file = (%q, %v, %v), want recomputation", v, hit, err)
	}
	quarantined := 0
	var names []string
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		names = append(names, d.Name())
		if strings.Contains(d.Name(), ".corrupt") {
			quarantined++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if quarantined != 1 {
		t.Errorf("want 1 quarantined .corrupt file, store tree has %v", names)
	}
}

// TestFaultInjectSweepSkipsJobFiles pins the extension contract between
// the run store and the job store: Sweep and DiskUsage must ignore the
// .job/.lease/.cancel files a co-located jobstore keeps in the tree.
func TestFaultInjectSweepSkipsJobFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithMaxBytes(1)) // evict everything sweepable
	if err != nil {
		t.Fatal(err)
	}
	jobs := filepath.Join(dir, "jobs")
	if err := os.MkdirAll(jobs, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"j1.job", "j1.lease", "j1.cancel"} {
		if err := os.WriteFile(filepath.Join(jobs, name), []byte(`{"x":1}`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Sweep(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"j1.job", "j1.lease", "j1.cancel"} {
		if _, err := os.Stat(filepath.Join(jobs, name)); err != nil {
			t.Errorf("sweep removed job file %s: %v", name, err)
		}
	}
	entries, _, err := s.DiskUsage()
	if err != nil || entries != 0 {
		t.Errorf("DiskUsage counted job files: entries=%d err=%v", entries, err)
	}
}
