package wire

import (
	"encoding/binary"
	"math"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	strs := []string{"", "a", "quote\"", "nl\n", "nul\x00", "\xff\xfe", string(make([]byte, 300))}
	ints := []int64{0, 1, -1, 63, -64, 64, math.MaxInt64, math.MinInt64}
	var b []byte
	for _, s := range strs {
		b = AppendString(b, s)
	}
	for _, v := range ints {
		b = binary.AppendVarint(b, v)
	}
	b = binary.AppendUvarint(b, math.MaxUint64)
	b = AppendBool(AppendBool(b, true), false)
	b = append(b, 7)

	r := NewReader(b)
	for _, s := range strs {
		if got := r.String(); got != s {
			t.Fatalf("String = %q, want %q", got, s)
		}
	}
	for _, v := range ints {
		if got := r.Varint(); got != v {
			t.Fatalf("Varint = %d, want %d", got, v)
		}
	}
	if got := r.Uvarint(); got != math.MaxUint64 {
		t.Fatalf("Uvarint = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool round trip")
	}
	if got := r.Byte(); got != 7 {
		t.Fatalf("Byte = %d", got)
	}
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("err %v, %d bytes left", r.Err(), r.Len())
	}
}

// TestErrorIsSticky: after the first malformed read every later read
// returns the zero value, even one the remaining bytes could satisfy.
func TestErrorIsSticky(t *testing.T) {
	b := AppendString(nil, "hello")
	r := NewReader(b[:3]) // length 5, only 2 bytes of body
	if s := r.String(); s != "" || r.Err() != ErrMalformed {
		t.Fatalf("truncated String = %q, err %v", s, r.Err())
	}
	if v := r.Uvarint(); v != 0 || r.Err() != ErrMalformed {
		t.Fatalf("Uvarint after failure = %d, err %v", v, r.Err())
	}
	if c := r.Byte(); c != 0 {
		t.Fatalf("Byte after failure = %d", c)
	}
	r = NewReader([]byte{2})
	if r.Bool() || r.Err() != ErrMalformed {
		t.Fatalf("Bool(2): err %v, want ErrMalformed", r.Err())
	}
	for _, in := range [][]byte{nil, {0x80}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}} {
		r := NewReader(in)
		r.Varint()
		if r.Err() != ErrMalformed {
			t.Errorf("Varint(%x): err %v, want ErrMalformed", in, r.Err())
		}
	}
}

// TestHugeLengthPrefixAllocatesNothing: a corrupt length or count larger
// than the remaining input fails without sizing an allocation by it.
func TestHugeLengthPrefixAllocatesNothing(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<62)
	huge = append(huge, "abc"...)
	allocs := testing.AllocsPerRun(100, func() {
		r := NewReader(huge)
		if r.String() != "" || r.Err() == nil {
			t.Fatal("huge string prefix accepted")
		}
		r = NewReader(huge)
		if r.Count(1) != 0 || r.Err() == nil {
			t.Fatal("huge count accepted")
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocs decoding a huge prefix, want 0", allocs)
	}
	r := NewReader(binary.AppendUvarint(nil, 4))
	r.buf = append(r.buf, make([]byte, 11)...)
	if n := r.Count(3); n != 0 || r.Err() == nil {
		t.Fatalf("Count(3) of 4 over 11 bytes = %d, err %v; want failure", n, r.Err())
	}
}
