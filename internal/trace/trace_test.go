package trace

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"

	"cmm/internal/workload"
)

func streamSpec() workload.Spec {
	return workload.Spec{Name: "t.stream", Pattern: workload.Stream,
		WorkingSet: 1 << 20, StepBytes: 8, Streams: 2, GapInstrs: 2, MLP: 4}
}

func TestRoundTrip(t *testing.T) {
	gen, err := workload.New(streamSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var want [][2]uint64
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, "t.stream")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		pc, addr := gen.Next()
		want = append(want, [2]uint64{pc, addr})
		if err := tw.Add(pc, addr); err != nil {
			t.Fatal(err)
		}
	}
	if tw.Count() != 1000 {
		t.Fatalf("count %d", tw.Count())
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}

	name, pcs, addrs, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if name != "t.stream" {
		t.Fatalf("benchmark %q", name)
	}
	if len(pcs) != 1000 {
		t.Fatalf("decoded %d refs", len(pcs))
	}
	for i, w := range want {
		if pcs[i] != w[0] || addrs[i] != w[1] {
			t.Fatalf("ref %d: got (%d,%d), want (%d,%d)", i, pcs[i], addrs[i], w[0], w[1])
		}
	}
}

func TestCompressionOnSequentialStream(t *testing.T) {
	// A single sequential stream has constant pc and +8 address deltas:
	// two one-byte varints per reference.
	spec := streamSpec()
	spec.Streams = 1
	gen, _ := workload.New(spec, 1)
	var buf bytes.Buffer
	if err := Record(&buf, gen, 10_000); err != nil {
		t.Fatal(err)
	}
	perRef := float64(buf.Len()) / 10_000
	if perRef > 2.1 {
		t.Fatalf("sequential trace costs %.2f bytes/ref, want ~2", perRef)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("not a trace at all"))); err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestTruncatedTrace(t *testing.T) {
	gen, _ := workload.New(streamSpec(), 1)
	var buf bytes.Buffer
	if err := Record(&buf, gen, 100); err != nil {
		t.Fatal(err)
	}
	// Chop the last byte: the reader must fail cleanly, not loop.
	data := buf.Bytes()[:buf.Len()-1]
	_, _, _, err := ReadAll(bytes.NewReader(data))
	if err == nil || err == io.EOF {
		t.Fatalf("truncated trace: err = %v", err)
	}
}

func TestLongBenchmarkNameRejected(t *testing.T) {
	long := make([]byte, 300)
	for i := range long {
		long[i] = 'x'
	}
	if _, err := NewWriter(&bytes.Buffer{}, string(long)); err == nil {
		t.Fatal("300-char name accepted")
	}
}

func TestReplayerLoopsAndResets(t *testing.T) {
	gen, _ := workload.New(streamSpec(), 1)
	var buf bytes.Buffer
	if err := Record(&buf, gen, 50); err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplayer(bytes.NewReader(buf.Bytes()), streamSpec())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Len() != 50 {
		t.Fatalf("len %d", rep.Len())
	}
	if rep.Spec().Name != "t.stream" {
		t.Fatalf("spec name %q", rep.Spec().Name)
	}
	var first [50][2]uint64
	for i := 0; i < 50; i++ {
		pc, addr := rep.Next()
		first[i] = [2]uint64{pc, addr}
	}
	// 51st reference wraps to the beginning.
	pc, addr := rep.Next()
	if pc != first[0][0] || addr != first[0][1] {
		t.Fatal("replayer did not wrap")
	}
	rep.Reset()
	pc, addr = rep.Next()
	if pc != first[0][0] || addr != first[0][1] {
		t.Fatal("Reset did not rewind")
	}
}

func TestReplayerEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	tw, _ := NewWriter(&buf, "empty")
	tw.Flush()
	if _, err := NewReplayer(bytes.NewReader(buf.Bytes()), streamSpec()); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestZigZagRoundTrip(t *testing.T) {
	f := func(d int64) bool { return unzigzag(zigzag(d)) == d }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: arbitrary (pc, addr) sequences survive the round trip.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(pcs []uint64, addrs []uint64) bool {
		n := len(pcs)
		if len(addrs) < n {
			n = len(addrs)
		}
		if n == 0 {
			return true
		}
		var buf bytes.Buffer
		tw, err := NewWriter(&buf, "prop")
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if tw.Add(pcs[i], addrs[i]) != nil {
				return false
			}
		}
		if tw.Flush() != nil {
			return false
		}
		_, gotPC, gotAdr, err := ReadAll(bytes.NewReader(buf.Bytes()))
		if err != nil || len(gotPC) != n {
			return false
		}
		for i := 0; i < n; i++ {
			if gotPC[i] != pcs[i] || gotAdr[i] != addrs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkWriterAdd(b *testing.B) {
	tw, _ := NewWriter(io.Discard, "bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tw.Add(uint64(i), uint64(i)*64)
	}
}

// TestReplayerClone: a clone replays from its source's position and the
// two advance independently.
func TestReplayerClone(t *testing.T) {
	gen, _ := workload.New(streamSpec(), 1)
	var buf bytes.Buffer
	if err := Record(&buf, gen, 50); err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplayer(bytes.NewReader(buf.Bytes()), streamSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 37; i++ {
		rep.Next()
	}
	c := rep.Clone()
	for i := 0; i < 80; i++ { // wraps past the end of the trace
		pc, addr := c.Next()
		if wpc, waddr := rep.Next(); pc != wpc || addr != waddr {
			t.Fatalf("clone diverged at ref %d", i)
		}
	}
	c.Next()
	c.Next()
	cpc, caddr := c.Next()
	rpc, raddr := rep.Next()
	if cpc == rpc && caddr == raddr {
		t.Fatal("clone and source advanced together")
	}
	if c.Spec() != rep.Spec() {
		t.Fatal("clone changed the spec")
	}
}
