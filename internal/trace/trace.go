// Package trace records and replays memory-reference streams. A recorded
// trace decouples workload generation from simulation: traces can be
// inspected offline, diffed across generator versions, or replayed into
// the simulator in place of a live generator (the usual workflow of
// trace-driven cache studies).
//
// The format is a small self-describing binary: a magic header, the
// generating spec's name, then delta-encoded (pc, addr) pairs compressed
// with unsigned varints. Sequential streams compress to ~1–2 bytes per
// reference.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"cmm/internal/workload"
)

// magic identifies trace files; the trailing byte is the format version.
var magic = [8]byte{'C', 'M', 'M', 'T', 'R', 'C', 0, 1}

// ErrBadMagic reports a reader input that is not a trace.
var ErrBadMagic = errors.New("trace: bad magic (not a CMM trace)")

// Writer streams references into a trace.
type Writer struct {
	w       *bufio.Writer
	lastPC  uint64
	lastAdr uint64
	n       uint64
	buf     [binary.MaxVarintLen64]byte
}

// NewWriter writes a trace header for the named benchmark and returns a
// Writer for its references.
func NewWriter(w io.Writer, benchmark string) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, err
	}
	if len(benchmark) > 255 {
		return nil, fmt.Errorf("trace: benchmark name %q too long", benchmark)
	}
	if err := bw.WriteByte(byte(len(benchmark))); err != nil {
		return nil, err
	}
	if _, err := bw.WriteString(benchmark); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// putUvarint writes one varint.
func (t *Writer) putUvarint(v uint64) error {
	n := binary.PutUvarint(t.buf[:], v)
	_, err := t.w.Write(t.buf[:n])
	return err
}

// zigzag encodes a signed delta as unsigned.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// unzigzag reverses zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Add appends one reference.
func (t *Writer) Add(pc, addr uint64) error {
	if err := t.putUvarint(zigzag(int64(pc - t.lastPC))); err != nil {
		return err
	}
	if err := t.putUvarint(zigzag(int64(addr - t.lastAdr))); err != nil {
		return err
	}
	t.lastPC, t.lastAdr = pc, addr
	t.n++
	return nil
}

// Count returns how many references have been added.
func (t *Writer) Count() uint64 { return t.n }

// Flush finishes the trace. The Writer must not be used afterwards.
func (t *Writer) Flush() error { return t.w.Flush() }

// Record captures n references from a generator into w.
func Record(w io.Writer, gen workload.Generator, n int) error {
	tw, err := NewWriter(w, gen.Spec().Name)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		pc, addr := gen.Next()
		if err := tw.Add(pc, addr); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// Reader decodes a trace.
type Reader struct {
	r         *bufio.Reader
	Benchmark string
	lastPC    uint64
	lastAdr   uint64
}

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	if m != magic {
		return nil, ErrBadMagic
	}
	nameLen, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	return &Reader{r: br, Benchmark: string(name)}, nil
}

// Next returns the next reference; io.EOF cleanly ends the trace.
func (t *Reader) Next() (pc, addr uint64, err error) {
	dpc, err := binary.ReadUvarint(t.r)
	if err != nil {
		return 0, 0, err
	}
	dadr, err := binary.ReadUvarint(t.r)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // pc delta without addr delta
		}
		return 0, 0, err
	}
	t.lastPC += uint64(unzigzag(dpc))
	t.lastAdr += uint64(unzigzag(dadr))
	return t.lastPC, t.lastAdr, nil
}

// ReadAll decodes every reference (diagnostics/tests).
func ReadAll(r io.Reader) (benchmark string, pcs, addrs []uint64, err error) {
	tr, err := NewReader(r)
	if err != nil {
		return "", nil, nil, err
	}
	for {
		pc, addr, err := tr.Next()
		if err == io.EOF {
			return tr.Benchmark, pcs, addrs, nil
		}
		if err != nil {
			return tr.Benchmark, pcs, addrs, err
		}
		pcs = append(pcs, pc)
		addrs = append(addrs, addr)
	}
}

// Replayer adapts an in-memory trace to the workload.Generator interface,
// looping back to the start when exhausted (like the paper's restarted
// benchmarks).
type Replayer struct {
	spec  workload.Spec
	pcs   []uint64
	addrs []uint64
	pos   int
}

// NewReplayer loads a full trace from r. The spec provides the timing
// parameters the raw trace does not carry (gap instructions, MLP); its
// Name is overwritten by the trace's benchmark name.
func NewReplayer(r io.Reader, spec workload.Spec) (*Replayer, error) {
	name, pcs, addrs, err := ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(pcs) == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}
	spec.Name = name
	return &Replayer{spec: spec, pcs: pcs, addrs: addrs}, nil
}

// Next implements workload.Generator.
func (t *Replayer) Next() (pc, addr uint64) {
	pc, addr = t.pcs[t.pos], t.addrs[t.pos]
	t.pos++
	if t.pos == len(t.pcs) {
		t.pos = 0
	}
	return pc, addr
}

// Reset implements workload.Generator.
func (t *Replayer) Reset() { t.pos = 0 }

// Spec implements workload.Generator.
func (t *Replayer) Spec() workload.Spec { return t.spec }

// Clone implements workload.Generator. The decoded trace is immutable
// and shared; only the replay position is copied.
func (t *Replayer) Clone() workload.Generator {
	c := *t
	return &c
}

// Len returns the trace length in references.
func (t *Replayer) Len() int { return len(t.pcs) }
