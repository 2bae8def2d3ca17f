// Package runstore is the framework's durable result layer: a disk-backed,
// content-addressed cache of simulation results. Keys are SHA-256 hashes of
// a canonical JSON encoding of everything that determines a run's outcome
// (machine config, workload specs, policy, seed, epoch settings, plus a
// schema version); values are the scored results, stored in the same
// canonical encoding so a byte-for-byte warm read reproduces a cold run
// exactly.
//
// The store combines four layers:
//
//   - a canonical encoder (this file) that makes keys and values stable
//     across processes and Go versions: object keys sorted, floats in a
//     fixed 17-significant-digit scientific form, integers verbatim. It
//     walks Go values directly and appends the bytes; see Canonical for
//     the byte contract;
//   - an in-memory LRU front so hot keys never touch the disk twice;
//   - an on-disk body of one file per entry, written atomically
//     (temp file + rename) and sharded by hash prefix;
//   - singleflight deduplication in GetOrCompute, so N concurrent requests
//     for the same missing key run the computation exactly once — the
//     generalization of the experiment engine's solo-IPC cache.
//
// Corrupted disk entries are never fatal: a file that fails to parse is
// quarantined (renamed aside with a .corrupt suffix) and treated as a miss,
// so a partially written or bit-rotted cache only costs a recomputation.
package runstore

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// Canonical returns the deterministic JSON encoding of v. The encoding is
// the contract behind every store key and value. The bytes are exactly
// those of encoding/json's output for v, decoded into generic values and
// re-encoded with these rules:
//
//   - object keys appear in sorted byte order, struct fields included
//     (named as encoding/json names them: json tags, omitempty and "-"
//     honoured);
//   - numbers with a fractional or exponent part in encoding/json's text
//     are re-formatted as 17-significant-digit scientific notation ('e'
//     format), which round-trips every float64 exactly and never depends
//     on the shortest-representation algorithm of the writing Go version;
//   - integer numbers keep their exact decimal digits (uint64 values above
//     2^53 survive byte-for-byte);
//   - strings use encoding/json's HTML-safe escaping, with invalid UTF-8
//     replaced by U+FFFD;
//   - no insignificant whitespace.
//
// v must be JSON-marshalable: NaN, infinities and kinds JSON cannot carry
// (channels, functions, complex numbers) are errors, as they are for
// json.Marshal, and so is nesting deeper than encoding/json decodes.
func Canonical(v any) ([]byte, error) {
	var e encoder
	if err := e.value(reflect.ValueOf(v)); err != nil {
		return nil, err
	}
	return e.buf, nil
}

// Hash returns the store key for v: the lowercase hex SHA-256 of
// Canonical(v). Two values with the same canonical encoding — semantically
// equal configurations, regardless of map order or float spelling — hash
// identically; any field change changes the hash.
func Hash(v any) (string, error) {
	data, err := Canonical(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

const (
	// maxNesting is encoding/json's decoding depth limit: canonical bytes
	// must decode, so a value nesting arrays and objects deeper is an
	// error.
	maxNesting = 10000
	// maxPointers bounds the pointers followed on one path before the
	// rest is handed to encoding/json, which reports pointer cycles.
	maxPointers = 1000
)

// encoder appends the canonical encoding of one value to buf.
type encoder struct {
	buf     []byte
	nesting int // arrays and objects open on the current path
	ptrs    int // pointers followed on the current path
}

func (e *encoder) value(v reflect.Value) error {
	if !v.IsValid() {
		e.buf = append(e.buf, "null"...)
		return nil
	}
	if v.Kind() == reflect.Interface {
		if v.IsNil() {
			e.buf = append(e.buf, "null"...)
			return nil
		}
		return e.value(v.Elem())
	}
	info := infoOf(v.Type())
	if info.viaJSON {
		return e.viaJSON(v)
	}
	switch v.Kind() {
	case reflect.Bool:
		e.buf = strconv.AppendBool(e.buf, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		e.buf = strconv.AppendInt(e.buf, v.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		e.buf = strconv.AppendUint(e.buf, v.Uint(), 10)
	case reflect.Float32:
		return e.float(v, 32)
	case reflect.Float64:
		return e.float(v, 64)
	case reflect.String:
		if v.Type() == numberType {
			return e.number(v)
		}
		e.buf = appendString(e.buf, v.String())
	case reflect.Pointer:
		if v.IsNil() {
			e.buf = append(e.buf, "null"...)
			return nil
		}
		if e.ptrs == maxPointers {
			return e.viaJSON(v)
		}
		e.ptrs++
		err := e.value(v.Elem())
		e.ptrs--
		return err
	case reflect.Slice:
		if v.IsNil() {
			e.buf = append(e.buf, "null"...)
			return nil
		}
		return e.array(v)
	case reflect.Array:
		return e.array(v)
	case reflect.Map:
		if v.IsNil() {
			e.buf = append(e.buf, "null"...)
			return nil
		}
		return e.object(v)
	case reflect.Struct:
		return e.structFields(v, info.fields)
	default:
		// Kinds JSON cannot carry: encoding/json reports them.
		return e.viaJSON(v)
	}
	return nil
}

// open starts an array or object, enforcing the nesting limit.
func (e *encoder) open(c byte) error {
	if e.nesting == maxNesting {
		return fmt.Errorf("runstore: value nests deeper than %d levels", maxNesting)
	}
	e.nesting++
	e.buf = append(e.buf, c)
	return nil
}

func (e *encoder) close(c byte) {
	e.nesting--
	e.buf = append(e.buf, c)
}

func (e *encoder) array(v reflect.Value) error {
	if err := e.open('['); err != nil {
		return err
	}
	for i, n := 0, v.Len(); i < n; i++ {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		if err := e.value(v.Index(i)); err != nil {
			return err
		}
	}
	e.close(']')
	return nil
}

// object writes a map with string-kind keys in sorted key order.
func (e *encoder) object(v reflect.Value) error {
	type entry struct {
		key string
		val reflect.Value
	}
	entries := make([]entry, 0, v.Len())
	for it := v.MapRange(); it.Next(); {
		k := it.Key().String()
		if !utf8.ValidString(k) {
			// encoding/json folds invalid bytes to U+FFFD, which can merge
			// or reorder keys: let it decide which entries survive.
			return e.viaJSON(v)
		}
		entries = append(entries, entry{k, it.Value()})
	}
	slices.SortFunc(entries, func(a, b entry) int { return strings.Compare(a.key, b.key) })
	if err := e.open('{'); err != nil {
		return err
	}
	for i, en := range entries {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = appendString(e.buf, en.key)
		e.buf = append(e.buf, ':')
		if err := e.value(en.val); err != nil {
			return err
		}
	}
	e.close('}')
	return nil
}

func (e *encoder) structFields(v reflect.Value, fields []field) error {
	if err := e.open('{'); err != nil {
		return err
	}
	first := true
	for _, f := range fields {
		fv := v.Field(f.index)
		if f.omitEmpty && isEmptyValue(fv) {
			continue
		}
		if !first {
			e.buf = append(e.buf, ',')
		}
		first = false
		e.buf = append(e.buf, f.key...)
		if err := e.value(fv); err != nil {
			return err
		}
	}
	e.close('}')
	return nil
}

// float writes a float the way encoding/json prints it, then applies the
// canonical number rule: text with a fraction or exponent becomes
// 17-significant-digit scientific notation of the float64 it reads back
// as; integral text stays as printed. A float32 reads back as the float64
// nearest its shortest decimal, not as its exact value.
func (e *encoder) float(v reflect.Value, bits int) error {
	f := v.Float()
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return e.viaJSON(v) // encoding/json's unsupported-value error
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (bits == 64 && (abs < 1e-6 || abs >= 1e21) ||
		bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21)) {
		format = 'e'
	}
	start := len(e.buf)
	e.buf = strconv.AppendFloat(e.buf, f, format, -1, bits)
	text := e.buf[start:]
	if format == 'f' && bytes.IndexByte(text, '.') < 0 {
		return nil
	}
	if bits == 32 {
		f, _ = strconv.ParseFloat(string(text), 64) // printed floats always parse
	}
	e.buf = strconv.AppendFloat(e.buf[:start], f, 'e', 16, 64)
	return nil
}

// number writes a json.Number: encoding/json prints its literal, so the
// canonical rule applies to that text.
func (e *encoder) number(v reflect.Value) error {
	s := v.String()
	if s == "" {
		s = "0" // encoding/json prints the zero Number as 0
	}
	if !validNumber(s) {
		return e.viaJSON(v) // encoding/json's invalid-literal error
	}
	if !strings.ContainsAny(s, ".eE") {
		e.buf = append(e.buf, s...)
		return nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsInf(f, 0) {
		// Out of float64 range: keep the literal rather than fail.
		e.buf = append(e.buf, s...)
		return nil
	}
	e.buf = strconv.AppendFloat(e.buf, f, 'e', 16, 64)
	return nil
}

// validNumber reports whether s is a JSON number literal: valid JSON that
// starts with a sign or digit and ends in a digit can only be a number.
func validNumber(s string) bool {
	first, last := s[0], s[len(s)-1]
	return (first == '-' || '0' <= first && first <= '9') &&
		'0' <= last && last <= '9' && json.Valid([]byte(s))
}

// viaJSON renders v with encoding/json and re-canonicalizes the result:
// the path for custom marshalers, []byte, non-string map keys, embedded
// struct fields, ",string" and "omitzero" tags, and every error encoding/
// json reports. An addressable v is passed by pointer, so pointer-receiver
// marshalers run exactly when encoding/json would run them.
func (e *encoder) viaJSON(v reflect.Value) error {
	var x any
	if v.CanAddr() {
		x = v.Addr().Interface()
	} else {
		x = v.Interface()
	}
	data, err := json.Marshal(x)
	if err != nil {
		return fmt.Errorf("runstore: marshal: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return fmt.Errorf("runstore: reparse: %w", err)
	}
	return e.value(reflect.ValueOf(tree))
}

// appendString appends s as a JSON string with encoding/json's HTML-safe
// escaping. An invalid UTF-8 byte becomes U+FFFD, written as the character
// itself: canonical strings are what decoding encoding/json's output gives.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = utf8.AppendRune(dst, utf8.RuneError)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// isEmptyValue is encoding/json's omitempty test.
func isEmptyValue(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Array, reflect.Map, reflect.Slice, reflect.String:
		return v.Len() == 0
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64,
		reflect.Interface, reflect.Pointer:
		return v.IsZero()
	}
	return false
}

var (
	numberType        = reflect.TypeFor[json.Number]()
	marshalerType     = reflect.TypeFor[json.Marshaler]()
	textMarshalerType = reflect.TypeFor[encoding.TextMarshaler]()
)

// typeInfo is how the encoder handles one type, computed once per type.
type typeInfo struct {
	viaJSON bool    // rendered by encoding/json, then re-canonicalized
	fields  []field // struct fields, sorted by JSON name
}

// field is one encoded struct field.
type field struct {
	name      string // JSON name
	key       []byte // the name as an escaped JSON string, with the colon
	index     int
	omitEmpty bool
}

var typeInfos sync.Map // reflect.Type → *typeInfo

func infoOf(t reflect.Type) *typeInfo {
	if ti, ok := typeInfos.Load(t); ok {
		return ti.(*typeInfo)
	}
	ti, _ := typeInfos.LoadOrStore(t, newTypeInfo(t))
	return ti.(*typeInfo)
}

func newTypeInfo(t reflect.Type) *typeInfo {
	pt := reflect.PointerTo(t)
	if t.Implements(marshalerType) || t.Implements(textMarshalerType) ||
		pt.Implements(marshalerType) || pt.Implements(textMarshalerType) {
		return &typeInfo{viaJSON: true}
	}
	switch t.Kind() {
	case reflect.Map:
		return &typeInfo{viaJSON: t.Key().Kind() != reflect.String}
	case reflect.Slice:
		// []byte is base64 text; encoding/json owns that and its variants.
		return &typeInfo{viaJSON: t.Elem().Kind() == reflect.Uint8}
	case reflect.Struct:
		return structInfo(t)
	}
	return &typeInfo{}
}

// structInfo builds the sorted field table of a struct with encoding/json's
// naming. Structs whose field set depends on encoding/json's embedding and
// dominance rules, or that carry options changing how a value is written,
// go through encoding/json instead.
func structInfo(t reflect.Type) *typeInfo {
	var fields []field
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if sf.Anonymous {
			return &typeInfo{viaJSON: true}
		}
		if !sf.IsExported() {
			continue
		}
		tag := sf.Tag.Get("json")
		if tag == "-" {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		if !validTag(name) {
			name = sf.Name
		}
		omitEmpty := false
		for _, o := range strings.Split(opts, ",") {
			switch o {
			case "omitempty":
				omitEmpty = true
			case "string", "omitzero":
				return &typeInfo{viaJSON: true}
			}
		}
		key := append(appendString(nil, name), ':')
		fields = append(fields, field{name: name, key: key, index: i, omitEmpty: omitEmpty})
	}
	slices.SortFunc(fields, func(a, b field) int { return strings.Compare(a.name, b.name) })
	for i := 1; i < len(fields); i++ {
		if fields[i].name == fields[i-1].name {
			return &typeInfo{viaJSON: true} // encoding/json's dominance rules decide
		}
	}
	return &typeInfo{fields: fields}
}

// validTag is encoding/json's test for a usable tag name.
func validTag(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		switch {
		case strings.ContainsRune("!#$%&()*+-./:;<=>?@[]^_{|}~ ", c):
		case !unicode.IsLetter(c) && !unicode.IsDigit(c):
			return false
		}
	}
	return true
}
