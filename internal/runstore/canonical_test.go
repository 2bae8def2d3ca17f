package runstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// oracleCanonical is the reference definition of the canonical bytes:
// marshal with encoding/json, decode into generic values (numbers kept as
// their text), and re-encode with sorted keys and the canonical number
// rule. Canonical must agree with it byte for byte on every value, and
// must fail exactly where it fails.
func oracleCanonical(v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("runstore: marshal: %w", err)
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return nil, fmt.Errorf("runstore: reparse: %w", err)
	}
	var b strings.Builder
	if err := oracleWrite(&b, tree); err != nil {
		return nil, err
	}
	return []byte(b.String()), nil
}

// oracleWrite renders one decoded JSON value deterministically.
func oracleWrite(b *strings.Builder, v any) error {
	switch t := v.(type) {
	case nil:
		b.WriteString("null")
	case bool:
		if t {
			b.WriteString("true")
		} else {
			b.WriteString("false")
		}
	case string:
		data, err := json.Marshal(t)
		if err != nil {
			return err
		}
		b.Write(data)
	case json.Number:
		b.WriteString(oracleNumber(t))
	case []any:
		b.WriteByte('[')
		for i, e := range t {
			if i > 0 {
				b.WriteByte(',')
			}
			if err := oracleWrite(b, e); err != nil {
				return err
			}
		}
		b.WriteByte(']')
	case map[string]any:
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			kd, err := json.Marshal(k)
			if err != nil {
				return err
			}
			b.Write(kd)
			b.WriteByte(':')
			if err := oracleWrite(b, t[k]); err != nil {
				return err
			}
		}
		b.WriteByte('}')
	default:
		return fmt.Errorf("runstore: unexpected decoded type %T", v)
	}
	return nil
}

// oracleNumber fixes the textual form of one JSON number: integers pass
// through verbatim; everything else becomes the 17-significant-digit
// scientific form of its float64 value.
func oracleNumber(n json.Number) string {
	s := n.String()
	if !strings.ContainsAny(s, ".eE") {
		return s
	}
	f, err := n.Float64()
	if err != nil || math.IsInf(f, 0) || math.IsNaN(f) {
		return s
	}
	return strconv.FormatFloat(f, 'e', 16, 64)
}

// checkAgainstOracle fails t unless Canonical(v) and the oracle agree:
// the same bytes, or both an error.
func checkAgainstOracle(t *testing.T, name string, v any) {
	t.Helper()
	want, werr := oracleCanonical(v)
	got, gerr := Canonical(v)
	switch {
	case werr != nil && gerr == nil:
		t.Errorf("%s: oracle fails (%v), Canonical gives %s", name, werr, got)
	case werr == nil && gerr != nil:
		t.Errorf("%s: Canonical fails (%v), oracle gives %s", name, gerr, want)
	case !bytes.Equal(got, want):
		t.Errorf("%s: Canonical drifted from the oracle:\n got %s\nwant %s", name, got, want)
	}
}

// sampleKey mirrors the shape of a real store key: nested structs, floats,
// large unsigned integers, slices and a map.
type sampleKey struct {
	Schema int
	Kind   string
	GHz    float64
	Epoch  uint64
	Seeds  []int64
	Thresh map[string]float64
	Nested struct {
		Ways  int
		Ratio float64
	}
}

func makeSample() sampleKey {
	k := sampleKey{
		Schema: 1,
		Kind:   "policy",
		GHz:    2.1,
		Epoch:  5_000_000_000,
		Seeds:  []int64{1, 2, 3},
		Thresh: map[string]float64{"pmr": 0.7, "pga": 0.6, "llcpt": 2.5e7},
	}
	k.Nested.Ways = 20
	k.Nested.Ratio = 1.0 / 3.0
	return k
}

// TestCanonicalDeterministic pins the core contract: semantically equal
// values produce byte-identical encodings regardless of map insertion
// order, and repeated encoding is stable.
func TestCanonicalDeterministic(t *testing.T) {
	a := makeSample()
	b := makeSample()
	// Rebuild b's map in a different insertion order.
	b.Thresh = map[string]float64{}
	for _, k := range []string{"llcpt", "pga", "pmr"} {
		b.Thresh[k] = a.Thresh[k]
	}
	ea, err := Canonical(a)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := Canonical(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea, eb) {
		t.Errorf("insertion order changed the encoding:\n%s\n%s", ea, eb)
	}
	ea2, err := Canonical(a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea, ea2) {
		t.Errorf("re-encoding the same value drifted:\n%s\n%s", ea, ea2)
	}
}

// TestCanonicalSortedKeys checks the object-key ordering and the fixed
// float form directly on a small literal.
func TestCanonicalSortedKeys(t *testing.T) {
	got, err := Canonical(map[string]any{"b": 1, "a": 0.5, "c": "x"})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"a":5.0000000000000000e-01,"b":1,"c":"x"}`
	if string(got) != want {
		t.Errorf("canonical form:\n got %s\nwant %s", got, want)
	}
}

// TestCanonicalRoundTrip is the stored-value guarantee: canonical bytes
// decode back to a value whose re-encoding is byte-identical, floats
// included. This is what makes a warm store read bit-identical to the cold
// computation it cached.
func TestCanonicalRoundTrip(t *testing.T) {
	type result struct {
		IPC    []float64
		Bytes  uint64
		Ratio  float64
		Name   string
		Combos int
	}
	orig := result{
		IPC:    []float64{0.1, 1.0 / 3.0, 2.5e-8, 1e300, math.SmallestNonzeroFloat64, 4095.75},
		Bytes:  math.MaxUint64, // above 2^53: must survive verbatim
		Ratio:  0.30000000000000004,
		Name:   "410.bwaves",
		Combos: 9,
	}
	first, err := Canonical(orig)
	if err != nil {
		t.Fatal(err)
	}
	var decoded result
	if err := json.Unmarshal(first, &decoded); err != nil {
		t.Fatalf("canonical bytes are not valid JSON for the source type: %v", err)
	}
	second, err := Canonical(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("re-marshal changed the bytes:\n1st %s\n2nd %s", first, second)
	}
	for i := range orig.IPC {
		if decoded.IPC[i] != orig.IPC[i] {
			t.Errorf("IPC[%d] drifted: %v -> %v", i, orig.IPC[i], decoded.IPC[i])
		}
	}
	if decoded.Bytes != orig.Bytes {
		t.Errorf("uint64 drifted: %d -> %d", orig.Bytes, decoded.Bytes)
	}
}

// TestHashSensitivity flips every field of the sample key one at a time;
// each mutation must move the hash.
func TestHashSensitivity(t *testing.T) {
	base, err := Hash(makeSample())
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(*sampleKey){
		"Schema": func(k *sampleKey) { k.Schema++ },
		"Kind":   func(k *sampleKey) { k.Kind = "solo" },
		"GHz":    func(k *sampleKey) { k.GHz += 1e-12 },
		"Epoch":  func(k *sampleKey) { k.Epoch++ },
		"Seeds":  func(k *sampleKey) { k.Seeds[1] = 7 },
		"Thresh": func(k *sampleKey) { k.Thresh["pmr"] = 0.71 },
		"Nested": func(k *sampleKey) { k.Nested.Ratio *= 2 },
	}
	for name, mutate := range mutations {
		k := makeSample()
		mutate(&k)
		h, err := Hash(k)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h == base {
			t.Errorf("mutating %s did not change the hash", name)
		}
	}
}

// FuzzCanonical fuzzes the two directions of the key contract: encoding a
// value twice (the second time from a map rebuilt in reverse insertion
// order) must hash equal, and perturbing any field must change the hash.
func FuzzCanonical(f *testing.F) {
	f.Add("policy", int64(1), uint64(5_000_000_000), 2.1, 0.7)
	f.Add("", int64(-9), uint64(math.MaxUint64), -1e-300, 1.0/3.0)
	f.Add("solo", int64(math.MaxInt64), uint64(0), math.MaxFloat64, 0.0)
	f.Fuzz(func(t *testing.T, name string, seed int64, epoch uint64, ghz, thresh float64) {
		if math.IsNaN(ghz) || math.IsInf(ghz, 0) || math.IsNaN(thresh) || math.IsInf(thresh, 0) {
			t.Skip("JSON cannot carry NaN/Inf")
		}
		build := func(reversed bool) map[string]any {
			m := map[string]any{}
			keys := []string{"name", "seed", "epoch", "ghz", "thresh"}
			vals := []any{name, seed, epoch, ghz, thresh}
			if reversed {
				for i := len(keys) - 1; i >= 0; i-- {
					m[keys[i]] = vals[i]
				}
			} else {
				for i := range keys {
					m[keys[i]] = vals[i]
				}
			}
			return m
		}
		h1, err := Hash(build(false))
		if err != nil {
			t.Fatal(err)
		}
		h2, err := Hash(build(true))
		if err != nil {
			t.Fatal(err)
		}
		if h1 != h2 {
			t.Fatalf("semantically equal maps hashed differently: %s vs %s", h1, h2)
		}

		// Every single-field perturbation must move the hash.
		perturbed := []map[string]any{
			{"name": name + "x", "seed": seed, "epoch": epoch, "ghz": ghz, "thresh": thresh},
			{"name": name, "seed": seed + 1, "epoch": epoch, "ghz": ghz, "thresh": thresh},
			{"name": name, "seed": seed, "epoch": epoch + 1, "ghz": ghz, "thresh": thresh},
		}
		if next := math.Nextafter(ghz, math.Inf(1)); !math.IsInf(next, 1) && next != ghz {
			perturbed = append(perturbed, map[string]any{
				"name": name, "seed": seed, "epoch": epoch, "ghz": next, "thresh": thresh})
		}
		for i, m := range perturbed {
			h, err := Hash(m)
			if err != nil {
				t.Fatal(err)
			}
			if h == h1 {
				enc, _ := Canonical(m)
				t.Fatalf("perturbation %d left the hash unchanged (%s)", i, enc)
			}
		}

		// The encoding must always be valid, canonical JSON.
		enc, err := Canonical(build(false))
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(enc) {
			t.Fatalf("canonical encoding is not valid JSON: %s", enc)
		}
		if strings.ContainsAny(string(enc), " \n\t") && !strings.Contains(name, " ") &&
			!strings.ContainsAny(name, "\n\t") {
			t.Fatalf("canonical encoding carries whitespace: %q", enc)
		}
	})
}

type textKey int

func (k textKey) MarshalText() ([]byte, error) { return []byte(fmt.Sprintf("k%d", k)), nil }

type ptrMarshaler struct{ N int }

func (p *ptrMarshaler) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf(`{"z": 1.50, "a": [%d, "<&>"]}`, p.N)), nil
}

type valMarshaler float64

func (v valMarshaler) MarshalJSON() ([]byte, error) { return []byte(" 0.25 "), nil }

type failingMarshaler struct{}

func (failingMarshaler) MarshalJSON() ([]byte, error) { return nil, fmt.Errorf("boom") }

type inner struct {
	B int
	A string
}

type embedding struct {
	inner
	C float64
}

type stringKind string

type tagged struct {
	Renamed    float64 `json:"r"`
	Skipped    int     `json:"-"`
	Dash       int     `json:"-,"`
	Empty      []int   `json:",omitempty"`
	Zero       int     `json:"zero,omitempty"`
	NilPtr     *int    `json:",omitempty"`
	Invalid    int     `json:"x\\y"`
	HTML       string  `json:"<h>"`
	Unicode    bool    `json:"é"`
	Kind       stringKind
	F32        float32
	Any        any
	unexported int
}

type quoted struct {
	N int `json:",string"`
}

type omitZero struct {
	N int `json:",omitzero"`
}

type dominant struct {
	X int
	B int `json:"X"`
}

type node struct{ Next *node }

type loop *loop

// TestCanonicalMatchesOracle covers the corners of the encoding/json
// contract the encoder reproduces directly, and every case it hands to
// encoding/json, against the reference round trip.
func TestCanonicalMatchesOracle(t *testing.T) {
	var chain any = 1.5
	for i := 0; i < 1500; i++ { // past maxPointers, no nesting
		p := new(any)
		*p = chain
		chain = p
	}
	deep := func(n int) any {
		var v any = "leaf"
		for i := 0; i < n; i++ {
			v = []any{v}
		}
		return v
	}
	// Two fields tagged with one name cancel out; built at run time, since
	// vet rightly rejects the declaration.
	duplicate := reflect.New(reflect.StructOf([]reflect.StructField{
		{Name: "A", Type: reflect.TypeFor[int](), Tag: `json:"x"`},
		{Name: "B", Type: reflect.TypeFor[int](), Tag: `json:"x"`},
		{Name: "C", Type: reflect.TypeFor[int]()},
	})).Elem()
	duplicate.Field(0).SetInt(1)
	cases := map[string]any{
		"nil":           nil,
		"bool":          true,
		"ints":          []any{int8(-8), int16(16), int32(-32), int64(math.MinInt64), uint8(8), uint16(16), uint32(32), uint64(math.MaxUint64), uintptr(7)},
		"floats":        []float64{0, math.Copysign(0, -1), 1, -3, 1e20, 1e21, 1e-6, 1e-7, 123.5, 0.1, 1.0 / 3.0, math.MaxFloat64, math.SmallestNonzeroFloat64, -2.5e-300},
		"float32s":      []float32{0, 0.1, 1e-6, 1e-7, 1e20, 1e21, 16777216, 16777217, math.MaxFloat32, math.SmallestNonzeroFloat32, -1.5},
		"numbers":       []json.Number{"", "0", "12", "-7", "1.50", "2e3", "1E-2", "1e400"},
		"strings":       []string{"", "<a&b>", "\x00\x1f\x7f", "\xff\xfe", "a b c", "é日本", `"\`, "\b\f\n\r\t"},
		"bytes":         [][]byte{[]byte("hello"), nil, {}},
		"byte array":    [3]byte{1, 2, 3},
		"empty array":   [0]int{},
		"map":           map[string]int{"b": 1, "a": 2, "<": 3},
		"int keys":      map[int]string{10: "a", 9: "b", -1: "c"},
		"uint keys":     map[uint8]bool{200: true, 3: false},
		"text keys":     map[textKey]int{2: 1, 10: 2},
		"kind keys":     map[stringKind]float64{"b": 0.5, "a": 1},
		"invalid keys":  map[string]int{"\xff": 1, "\xfe": 2, "a": 3},
		"nil map":       map[string]int(nil),
		"empty chans":   map[string]chan int{},
		"ptr method":    &ptrMarshaler{N: 3},
		"ptr unused":    ptrMarshaler{N: 3},
		"ptr in slice":  []ptrMarshaler{{N: 1}, {N: 2}},
		"ptr in map":    map[string]ptrMarshaler{"a": {N: 4}},
		"val method":    []any{valMarshaler(1), (*valMarshaler)(nil)},
		"embedding":     &embedding{inner{B: 1, A: "x"}, 0.5},
		"tagged":        tagged{Renamed: 0.5, Skipped: 1, Dash: 2, Zero: 0, Invalid: 3, HTML: "<>", Unicode: true, Kind: "k", F32: 0.1, Any: map[string]any{"z": nil, "a": []any{}}},
		"tagged full":   &tagged{Empty: []int{1}, Zero: 4, NilPtr: new(int), Any: &inner{}},
		"quoted":        quoted{N: 5},
		"omitzero":      []omitZero{{}, {N: 1}},
		"duplicate":     duplicate.Interface(),
		"dominant":      dominant{X: 1, B: 2},
		"pointer nest":  &struct{ P, Q *int }{P: new(int)},
		"chain":         chain,
		"nesting 10000": deep(10000),
	}
	for name, v := range cases {
		checkAgainstOracle(t, name, v)
	}
}

// TestCanonicalErrorParity checks that what encoding/json refuses, or what
// could not be decoded back, is an error, never bytes.
func TestCanonicalErrorParity(t *testing.T) {
	cyclic := &node{}
	cyclic.Next = cyclic
	var l loop
	l = loop(&l)
	selfMap := map[string]any{}
	selfMap["m"] = selfMap
	deep := any("leaf")
	for i := 0; i < maxNesting+1; i++ {
		deep = []any{deep}
	}
	cases := map[string]any{
		"NaN":          math.NaN(),
		"+Inf":         math.Inf(1),
		"-Inf":         math.Inf(-1),
		"float32 NaN":  float32(math.NaN()),
		"float32 Inf":  float32(math.Inf(1)),
		"nested NaN":   map[string]any{"a": []float64{1, math.NaN()}},
		"chan":         make(chan int),
		"func":         func() {},
		"nil func":     (func())(nil),
		"complex":      complex(1, 2),
		"chan field":   struct{ C chan int }{},
		"float keys":   map[float64]int{1: 1},
		"marshaler":    []any{failingMarshaler{}},
		"bad number":   json.Number("abc"),
		"cyclic ptr":   cyclic,
		"pointer loop": l,
		"cyclic map":   selfMap,
		"too deep":     deep,
	}
	for name, v := range cases {
		if _, err := oracleCanonical(v); err == nil {
			t.Fatalf("%s: the oracle accepts it; not an error case", name)
		}
		if got, err := Canonical(v); err == nil {
			t.Errorf("%s: Canonical = %s, want an error", name, got)
		}
		if _, err := Hash(v); err == nil {
			t.Errorf("%s: Hash succeeded, want an error", name)
		}
	}
}
