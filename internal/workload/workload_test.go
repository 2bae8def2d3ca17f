package workload

import (
	"testing"
	"testing/quick"
)

func mustGen(t *testing.T, s Spec, seed int64) Generator {
	t.Helper()
	g, err := New(s, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSuiteAllValid(t *testing.T) {
	for _, s := range Suite() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if _, err := New(s, 1); err != nil {
			t.Errorf("%s: New: %v", s.Name, err)
		}
	}
}

func TestSuiteNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, n := range Names() {
		if seen[n] {
			t.Errorf("duplicate benchmark name %q", n)
		}
		seen[n] = true
	}
	if len(seen) < 20 {
		t.Errorf("suite has only %d benchmarks", len(seen))
	}
}

func TestByName(t *testing.T) {
	s, ok := ByName("410.bwaves")
	if !ok || s.Pattern != Stream {
		t.Fatalf("ByName(410.bwaves) = %+v, %v", s, ok)
	}
	if _, ok := ByName("no.such"); ok {
		t.Fatal("ByName found a nonexistent benchmark")
	}
}

func TestValidateRejections(t *testing.T) {
	base := Spec{Name: "x", Pattern: Stream, WorkingSet: 1 << 20, StepBytes: 8, MLP: 1}
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"empty name", func(s *Spec) { s.Name = "" }},
		{"zero ws", func(s *Spec) { s.WorkingSet = 0 }},
		{"mlp<1", func(s *Spec) { s.MLP = 0.5 }},
		{"neg gap", func(s *Spec) { s.GapInstrs = -1 }},
		{"stream no step", func(s *Spec) { s.StepBytes = 0 }},
		{"bad locality", func(s *Spec) { s.Locality = 1.5 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base
			tc.mut(&s)
			if err := s.Validate(); err == nil {
				t.Error("accepted")
			}
		})
	}
	if err := (Spec{Name: "y", Pattern: Strided, WorkingSet: 1 << 20, MLP: 1}).Validate(); err == nil {
		t.Error("strided without stride accepted")
	}
	if err := (Spec{Name: "z", Pattern: RandBurst, WorkingSet: 1 << 20, MLP: 1}).Validate(); err == nil {
		t.Error("randburst without burst accepted")
	}
}

func TestStreamSequentialAndBounded(t *testing.T) {
	s := Spec{Name: "s", Pattern: Stream, WorkingSet: 4096, StepBytes: 8, Streams: 1, MLP: 1}
	g := mustGen(t, s, 1)
	var prev uint64
	for i := 0; i < 600; i++ {
		_, addr := g.Next()
		if addr >= uint64(s.WorkingSet) {
			t.Fatalf("addr %d outside working set", addr)
		}
		if i > 0 && addr != 0 && addr != prev+8 {
			t.Fatalf("non-sequential step: %d -> %d", prev, addr)
		}
		prev = addr
	}
}

func TestStreamMultipleStreamsDisjoint(t *testing.T) {
	s := Spec{Name: "s", Pattern: Stream, WorkingSet: 8192, StepBytes: 8, Streams: 4, MLP: 1}
	g := mustGen(t, s, 1)
	regions := map[uint64]bool{}
	for i := 0; i < 4; i++ {
		_, addr := g.Next()
		regions[addr/2048] = true
	}
	if len(regions) != 4 {
		t.Fatalf("4 streams hit %d distinct regions", len(regions))
	}
}

func TestStridedWrapsAndSteps(t *testing.T) {
	s := Spec{Name: "s", Pattern: Strided, WorkingSet: 1024, StrideBytes: 192, MLP: 1}
	g := mustGen(t, s, 1)
	for i := 0; i < 100; i++ {
		_, addr := g.Next()
		if addr >= 1024 {
			t.Fatalf("addr %d out of range", addr)
		}
	}
}

func TestRandomLineBoundsAndLocality(t *testing.T) {
	s := Spec{Name: "r", Pattern: RandomLine, WorkingSet: 1 << 20, Locality: 1.0, MLP: 1}
	g := mustGen(t, s, 42)
	adj := 0
	var prev uint64
	for i := 0; i < 1000; i++ {
		_, addr := g.Next()
		if addr >= uint64(s.WorkingSet)+LineBytes {
			t.Fatalf("addr %d out of range", addr)
		}
		if i%2 == 1 {
			if addr == prev+LineBytes {
				adj++
			}
		}
		prev = addr
	}
	// Locality 1.0: every odd access is the neighbour of the previous.
	if adj < 450 {
		t.Fatalf("adjacent follow-ups %d/500, want ~500", adj)
	}
}

func TestChaseVisitsAllLinesBeforeReuse(t *testing.T) {
	s := Spec{Name: "c", Pattern: PointerChase, WorkingSet: 64 * LineBytes, MLP: 1}
	g := mustGen(t, s, 7)
	seen := map[uint64]int{}
	for i := 0; i < 64; i++ {
		_, addr := g.Next()
		seen[addr/LineBytes]++
	}
	if len(seen) != 64 {
		t.Fatalf("chase visited %d/64 lines in one lap", len(seen))
	}
	for line, n := range seen {
		if n != 1 {
			t.Fatalf("line %d visited %d times in one lap", line, n)
		}
	}
}

func TestChaseDeterministicPerSeed(t *testing.T) {
	s := Spec{Name: "c", Pattern: PointerChase, WorkingSet: 32 * LineBytes, MLP: 1}
	g1 := mustGen(t, s, 5)
	g2 := mustGen(t, s, 5)
	for i := 0; i < 100; i++ {
		_, a1 := g1.Next()
		_, a2 := g2.Next()
		if a1 != a2 {
			t.Fatalf("same seed diverged at ref %d", i)
		}
	}
}

func TestRandBurstShape(t *testing.T) {
	s := Spec{Name: "rb", Pattern: RandBurst, WorkingSet: 1 << 20, Burst: 4, MLP: 1}
	g := mustGen(t, s, 3)
	// Every group of 4 refs is an ascending line run.
	for b := 0; b < 50; b++ {
		_, first := g.Next()
		for k := 1; k < 4; k++ {
			_, a := g.Next()
			want := first + uint64(k)*LineBytes
			if a != want && a != (first+uint64(k)*LineBytes)%uint64(s.WorkingSet) {
				t.Fatalf("burst %d ref %d: addr %d, want %d", b, k, a, want)
			}
		}
	}
}

func TestComputeStaysTiny(t *testing.T) {
	s := Spec{Name: "cp", Pattern: Compute, WorkingSet: 4096, MLP: 1}
	g := mustGen(t, s, 1)
	for i := 0; i < 1000; i++ {
		_, addr := g.Next()
		if addr >= 4096 {
			t.Fatalf("compute escaped working set: %d", addr)
		}
	}
}

func TestResetReproducesStream(t *testing.T) {
	for _, name := range []string{"410.bwaves", "429.mcf", "rand_access", "471.omnetpp", "453.povray", "436.cactusADM"} {
		s, ok := ByName(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		g := mustGen(t, s, 9)
		var first []uint64
		for i := 0; i < 50; i++ {
			_, a := g.Next()
			first = append(first, a)
		}
		g.Reset()
		for i := 0; i < 50; i++ {
			_, a := g.Next()
			if a != first[i] {
				t.Fatalf("%s: Reset not reproducible at ref %d", name, i)
			}
		}
	}
}

func TestPropertyAddressesInWorkingSet(t *testing.T) {
	f := func(seed int64, pick uint8) bool {
		suite := Suite()
		s := suite[int(pick)%len(suite)]
		g, err := New(s, seed)
		if err != nil {
			return false
		}
		limit := uint64(s.WorkingSet) + 2*LineBytes // locality may touch +1 line
		for i := 0; i < 500; i++ {
			_, addr := g.Next()
			if addr >= limit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPatternString(t *testing.T) {
	for p := Stream; p <= Compute; p++ {
		if p.String() == "" {
			t.Errorf("pattern %d has empty name", p)
		}
	}
	if Pattern(99).String() == "" {
		t.Error("unknown pattern must stringify")
	}
}

func BenchmarkStreamNext(b *testing.B) {
	g, _ := New(Spec{Name: "s", Pattern: Stream, WorkingSet: 1 << 26, StepBytes: 16, Streams: 3, MLP: 1}, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

func BenchmarkChaseNext(b *testing.B) {
	g, _ := New(Spec{Name: "c", Pattern: PointerChase, WorkingSet: 1 << 23, MLP: 1}, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

func TestSuiteStoreFractions(t *testing.T) {
	// Streaming HPC codes store a substantial fraction; the Rand Access
	// microbenchmark is pure loads (as the paper describes it).
	suite := map[string]Spec{}
	for _, s := range Suite() {
		suite[s.Name] = s
	}
	if s := suite["470.lbm"]; s.StoreFrac < 0.3 {
		t.Errorf("lbm StoreFrac %g, want store-heavy", s.StoreFrac)
	}
	for _, n := range []string{"rand_access", "rand_access.B", "rand_access.C", "rand_access.D"} {
		if s := suite[n]; s.StoreFrac != 0 {
			t.Errorf("%s StoreFrac %g, want 0 (load-only microbenchmark)", n, s.StoreFrac)
		}
	}
}

func TestStoreFracValidation(t *testing.T) {
	s := Spec{Name: "x", Pattern: Stream, WorkingSet: 1 << 20, StepBytes: 8, MLP: 1, StoreFrac: 1.5}
	if err := s.Validate(); err == nil {
		t.Fatal("StoreFrac 1.5 accepted")
	}
	s.StoreFrac = -0.1
	if err := s.Validate(); err == nil {
		t.Fatal("StoreFrac -0.1 accepted")
	}
	s.StoreFrac = 1.0
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPhasedAlternates(t *testing.T) {
	s := Spec{Name: "ph", Pattern: Phased, WorkingSet: 1 << 22, StepBytes: 16,
		PhaseRefs: 100, MLP: 2}
	g := mustGen(t, s, 3)
	// First phase: sequential (deltas of +16 within a stream).
	_, prev := g.Next()
	sequential := 0
	for i := 1; i < 100; i++ {
		_, a := g.Next()
		if a == prev+16 {
			sequential++
		}
		prev = a
	}
	if sequential < 95 {
		t.Fatalf("streaming phase only %d/99 sequential", sequential)
	}
	// Second phase: random (few sequential steps).
	_, prev = g.Next()
	sequential = 0
	for i := 1; i < 100; i++ {
		_, a := g.Next()
		if a == prev+16 {
			sequential++
		}
		prev = a
	}
	if sequential > 10 {
		t.Fatalf("random phase has %d/99 sequential steps", sequential)
	}
}

func TestPhasedValidation(t *testing.T) {
	s := Spec{Name: "ph", Pattern: Phased, WorkingSet: 1 << 20, StepBytes: 16, MLP: 1}
	if err := s.Validate(); err == nil {
		t.Fatal("Phased without PhaseRefs accepted")
	}
	s.PhaseRefs = 10
	s.StepBytes = 0
	if err := s.Validate(); err == nil {
		t.Fatal("Phased without StepBytes accepted")
	}
}

func TestPhasedReset(t *testing.T) {
	s := Spec{Name: "ph", Pattern: Phased, WorkingSet: 1 << 20, StepBytes: 16,
		PhaseRefs: 50, MLP: 1}
	g := mustGen(t, s, 5)
	var first []uint64
	for i := 0; i < 120; i++ {
		_, a := g.Next()
		first = append(first, a)
	}
	g.Reset()
	for i := 0; i < 120; i++ {
		_, a := g.Next()
		if a != first[i] {
			t.Fatalf("Reset not reproducible at ref %d", i)
		}
	}
}

// cloneSpecs has one spec per pattern, with Locality and phases that make
// every generator's state matter within a few thousand references.
func cloneSpecs() []Spec {
	return []Spec{
		{Name: "stream", Pattern: Stream, WorkingSet: 1 << 20, StepBytes: 8, Streams: 3, MLP: 1},
		{Name: "strided", Pattern: Strided, WorkingSet: 1 << 20, StrideBytes: -192, MLP: 1},
		{Name: "random", Pattern: RandomLine, WorkingSet: 1 << 20, Locality: 0.5, MLP: 1},
		{Name: "chase", Pattern: PointerChase, WorkingSet: 1 << 16, MLP: 1},
		{Name: "randburst", Pattern: RandBurst, WorkingSet: 1 << 20, Burst: 5, MLP: 1},
		{Name: "compute", Pattern: Compute, WorkingSet: 4096, MLP: 1},
		{Name: "phased", Pattern: Phased, WorkingSet: 1 << 20, StepBytes: 64, PhaseRefs: 700, MLP: 1},
	}
}

func nextN(g Generator, n int) [][2]uint64 {
	out := make([][2]uint64, n)
	for i := range out {
		pc, addr := g.Next()
		out[i] = [2]uint64{pc, addr}
	}
	return out
}

// TestGeneratorCloneIndependent: a clone continues exactly where its
// source was, advancing it never moves the source, and both keep their
// own Reset.
func TestGeneratorCloneIndependent(t *testing.T) {
	for _, s := range cloneSpecs() {
		t.Run(s.Name, func(t *testing.T) {
			ref := mustGen(t, s, 21)
			src := mustGen(t, s, 21)
			nextN(ref, 3001)
			nextN(src, 3001)
			c := src.Clone()
			want := nextN(ref, 4000)
			got := nextN(c, 4000)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("clone diverged at ref %d: %v, want %v", i, got[i], want[i])
				}
			}
			if srcNext := nextN(src, 4000); !equalRefs(srcNext, want) {
				t.Fatal("advancing the clone moved its source")
			}
			if c.Spec() != src.Spec() {
				t.Fatal("clone changed the spec")
			}
			c.Reset()
			if !equalRefs(nextN(c, 500), nextN(mustGen(t, s, 21), 500)) {
				t.Fatal("Reset on the clone did not restart the stream")
			}
		})
	}
}

func equalRefs(a, b [][2]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
