package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// recorder captures events for assertions.
type recorder struct {
	mu     sync.Mutex
	events []Event
}

func (r *recorder) Emit(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

func (r *recorder) all() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

func sampleEpochEvent(i int) Event {
	return Event{
		Type:          TypeEpoch,
		Policy:        "CMM-a",
		Epoch:         i,
		Agg:           []int{0, 3},
		Friendly:      []int{0},
		Unfriendly:    []int{3},
		Throttled:     []int{3},
		SampledCombos: 4,
		BestHMIPC:     0.91,
		ThrottleFlip:  i == 0,
		ExecCycles:    3_000_000,
		ProfCycles:    600_000,
	}
}

func TestTelemetryJSONLRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	want := []Event{
		sampleEpochEvent(0),
		sampleEpochEvent(1),
		{Type: TypeSolo, Benchmark: "429.mcf", Seed: 1, IPC: 0.42, ExecCycles: 3_000_000},
	}
	for _, e := range want {
		s.Emit(e)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d", len(lines), len(want))
	}
	for i, line := range lines {
		var got Event
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d not valid JSON: %v\n%s", i, err, line)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("line %d roundtrip mismatch:\n got %+v\nwant %+v", i, got, want[i])
		}
	}
}

func TestTelemetryJSONLStickyError(t *testing.T) {
	s := NewJSONLSink(failWriter{})
	// The bufio layer absorbs writes until its buffer fills; force the
	// flush path to surface the error.
	s.Emit(sampleEpochEvent(0))
	if err := s.Flush(); err == nil {
		t.Fatal("Flush after failed write returned nil error")
	}
	// Subsequent emits are dropped without panicking, and the error stays.
	s.Emit(sampleEpochEvent(1))
	if err := s.Close(); err == nil {
		t.Fatal("Close lost the sticky error")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, io.ErrClosedPipe }

func TestTelemetryCounters(t *testing.T) {
	var c Counters
	c.Emit(sampleEpochEvent(0)) // detection + flip
	e := sampleEpochEvent(1)    // detection, no flip
	e.PartitionChange = true
	e.MBAChange = true
	c.Emit(e)
	quiet := Event{Type: TypeEpoch, Epoch: 2, ProfCycles: 100}
	c.Emit(quiet)
	c.Emit(Event{Type: TypeEpoch, Epoch: 3, Predicted: true, PredConfidence: 0.95, SampledCombos: 1})
	c.Emit(Event{Type: TypeEpoch, Epoch: 4, LearnFallback: true, PredConfidence: 0.6, SampledCombos: 5})
	c.Emit(Event{Type: TypeEpoch, Epoch: 5, ShadowAudit: true, PredConfidence: 0.97, SampledCombos: 5})
	c.Emit(Event{Type: TypeEpoch, Epoch: 6, LearnFallback: true, LearnDemoted: true, SampledCombos: 5})
	c.Emit(Event{Type: TypeSolo, Benchmark: "x"})
	c.Emit(Event{Type: TypeStore, Hit: true})
	c.Emit(Event{Type: TypeStore, Hit: true})
	c.Emit(Event{Type: TypeStore, Hit: false})
	c.JobRetried()
	c.JobRetried()
	c.JobRequeued()
	c.JobQuarantined()
	c.JobAnsweredFromStore()
	c.ReadHit()
	c.ReadHit()
	c.ReadHit()
	c.ReadMiss()
	c.ReadNotModified()
	c.ModelReloaded()
	c.ModelReloaded()
	c.ModelReloadError()
	c.ModelRollback()

	got := c.Snapshot()
	want := map[string]uint64{
		"epochs_total":                   7,
		"detections_total":               2,
		"throttle_flips_total":           1,
		"partition_changes_total":        1,
		"mba_changes_total":              1,
		"sampling_cycles_total":          600_000*2 + 100,
		"sampling_intervals_total":       4 + 4 + 1 + 5 + 5 + 5, // two sample events + predicted + fallback + audit + demotion
		"learn_predictions_total":        1,
		"learn_fallbacks_total":          2,
		"learn_shadow_audits_total":      1,
		"learn_demotions_total":          1,
		"model_reloads_total":            2,
		"model_reload_errors_total":      1,
		"model_rollbacks_total":          1,
		"solo_runs_total":                1,
		"store_hits_total":               2,
		"store_misses_total":             1,
		"jobs_retried_total":             2,
		"jobs_requeued_total":            1,
		"jobs_quarantined_total":         1,
		"jobs_answered_from_store_total": 1,
		"read_hits_total":                3,
		"read_misses_total":              1,
		"read_not_modified_total":        1,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Snapshot:\n got %v\nwant %v", got, want)
	}

	var buf bytes.Buffer
	c.WriteMetrics(&buf, "cmm_")
	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "cmm_") || !strings.Contains(line, " ") {
			t.Errorf("malformed metrics line %q", line)
		}
		n++
	}
	if n != len(want) {
		t.Errorf("WriteMetrics printed %d lines, want %d", n, len(want))
	}
}

// TestPublishExpvarMatchesSnapshot pins that the expvar registry and
// Snapshot expose exactly the same counters with the same values, and that
// WriteMetrics prints them in name order.
func TestPublishExpvarMatchesSnapshot(t *testing.T) {
	var c Counters
	c.Emit(sampleEpochEvent(0))
	c.Emit(Event{Type: TypeStore, Hit: true})
	c.JobRetried()
	c.ReadNotModified()
	c.ModelRollback()

	// expvar names are process-global, so each run (-count=N) needs its
	// own prefix.
	prefix := fmt.Sprintf("telemetry_test_%d_", time.Now().UnixNano())
	c.PublishExpvar(prefix)
	got := map[string]uint64{}
	expvar.Do(func(kv expvar.KeyValue) {
		if name, ok := strings.CutPrefix(kv.Key, prefix); ok {
			got[name] = kv.Value.(expvar.Func)().(uint64)
		}
	})
	if want := c.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("expvar:\n got %v\nwant %v", got, want)
	}

	var buf bytes.Buffer
	c.WriteMetrics(&buf, "")
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !sort.StringsAreSorted(lines) {
		t.Errorf("WriteMetrics lines not sorted by name:\n%s", buf.String())
	}
}

// TestTelemetryCountersConcurrent hammers one Counters and one JSONLSink
// from many goroutines; run under -race (CI does) to verify the sinks'
// concurrency contract.
func TestTelemetryCountersConcurrent(t *testing.T) {
	var c Counters
	jsonl := NewJSONLSink(io.Discard)
	sink := Multi(&c, jsonl)
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sink.Emit(sampleEpochEvent(i))
			}
		}(w)
	}
	wg.Wait()
	if err := jsonl.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := c.Snapshot()["epochs_total"]; got != workers*perWorker {
		t.Errorf("epochs_total = %d, want %d", got, workers*perWorker)
	}
}

func TestTelemetryAsyncSinkDeliversAndDrops(t *testing.T) {
	// Under capacity: everything arrives after Close drains the queue.
	rec := &recorder{}
	s := NewAsyncSink(rec, 64)
	for i := 0; i < 10; i++ {
		s.Emit(sampleEpochEvent(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(rec.all()); got != 10 {
		t.Errorf("delivered %d events, want 10", got)
	}
	if s.Dropped() != 0 {
		t.Errorf("dropped %d events under capacity", s.Dropped())
	}

	// Over capacity with a blocked destination: Emit must not block, and
	// the overflow is counted rather than silently lost.
	gate := make(chan struct{})
	blocked := blockingSink{gate: gate}
	s2 := NewAsyncSink(blocked, 1)
	for i := 0; i < 50; i++ {
		s2.Emit(sampleEpochEvent(i)) // never blocks
	}
	close(gate)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if s2.Dropped() == 0 {
		t.Error("expected drops with a full queue and a blocked destination")
	}
}

type blockingSink struct{ gate chan struct{} }

func (b blockingSink) Emit(Event) { <-b.gate }

func TestTelemetryMulti(t *testing.T) {
	if got := Multi(); got != nil {
		t.Errorf("Multi() = %v, want nil", got)
	}
	if got := Multi(nil, nil); got != nil {
		t.Errorf("Multi(nil, nil) = %v, want nil", got)
	}
	rec := &recorder{}
	if got := Multi(nil, rec); got != Sink(rec) {
		t.Errorf("Multi with one live sink should unwrap it, got %T", got)
	}
	rec2 := &recorder{}
	Multi(rec, rec2).Emit(sampleEpochEvent(0))
	if len(rec.all()) != 1 || len(rec2.all()) != 1 {
		t.Errorf("fan-out delivered %d/%d events, want 1/1", len(rec.all()), len(rec2.all()))
	}
}

func TestTelemetryWithRun(t *testing.T) {
	rec := &recorder{}
	WithRun(rec, "Pref Unfri #1", 3).Emit(sampleEpochEvent(0))
	got := rec.all()
	if len(got) != 1 || got[0].Mix != "Pref Unfri #1" || got[0].Seed != 3 {
		t.Errorf("WithRun stamp missing: %+v", got)
	}
	// The stamp must not leak back into the caller's event value.
	e := sampleEpochEvent(0)
	if e.Mix != "" || e.Seed != 0 {
		t.Errorf("source event mutated: %+v", e)
	}
}

func TestTelemetryNopSink(t *testing.T) {
	var s NopSink
	s.Emit(sampleEpochEvent(0)) // must not panic
}
