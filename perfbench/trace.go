package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// maxSpans bounds the in-memory trace. Spans past it are counted but not
// kept, so a long traced run cannot grow without limit.
const maxSpans = 200_000

// span is one timed interval at a layer boundary. Parent is the ID of the
// span that caused it (-1 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	mu      sync.Mutex
	origin  time.Time
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a finished span and returns its ID (-1 when not kept).
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(),
	})
	return id
}

// open starts a span whose end is set later with close; children may name
// it as their parent in the meantime.
func (t *tracer) open(name string, parent int) int {
	now := time.Now()
	return t.add(name, parent, now, now)
}

func (t *tracer) close(id int) {
	if t == nil || id < 0 {
		return
	}
	end := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// selfTime is one span name's total and self time: a span's self time is
// its duration minus the part of it that its children cover.
type selfTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (t *tracer) selfTimes() []selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	by := map[string]*selfTime{}
	for _, s := range t.spans {
		st := by[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			by[s.Name] = st
		}
		dur := s.End - s.Start
		st.Count++
		st.TotalMs += float64(dur) / 1e6
		st.SelfMs += float64(dur-covered(children[s.ID], s.Start, s.End)) / 1e6
	}
	out := make([]selfTime, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// covered returns how much of [start, end) the union of ivs covers;
// children of concurrent workers may overlap each other.
func covered(ivs [][2]int64, start, end int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([][2]int64(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var total int64
	cur := start
	for _, iv := range s {
		a, b := max(iv[0], cur), min(iv[1], end)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write saves the spans and the self-time summary as JSON.
func (t *tracer) write(path string, st stamp) error {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Stamp    stamp      `json:"stamp"`
		SelfTime []selfTime `json:"self_time"`
		Dropped  int        `json:"dropped_spans"`
		Spans    []span     `json:"spans"`
	}{st, self, t.dropped, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
