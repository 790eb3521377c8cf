// Package wire is the binary encoding the simulated servers put on simnet:
// integers as varints and strings as a uvarint length followed by the
// bytes, both from encoding/binary. Encoding appends to a caller-owned
// buffer; decoding goes through a Reader whose first error is sticky, so a
// decoder reads every field unconditionally and checks Err once at the end.
package wire

import (
	"encoding/binary"
	"errors"
)

// ErrMalformed reports a truncated or otherwise undecodable message.
var ErrMalformed = errors.New("wire: malformed message")

// AppendString appends s as a uvarint length followed by its bytes.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Reader decodes fields from a byte slice in order. After the first
// malformed field every read returns the zero value and Err reports
// ErrMalformed.
type Reader struct {
	buf []byte
	err error
}

// NewReader returns a Reader over b. Strings it returns are copies; b may
// be reused once decoding is done.
func NewReader(b []byte) Reader { return Reader{buf: b} }

// Err returns ErrMalformed if any read failed, else nil.
func (r *Reader) Err() error { return r.err }

// Len reports the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) }

func (r *Reader) fail() {
	r.err = ErrMalformed
	r.buf = nil
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Varint reads a signed (zig-zag) varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.buf) == 0 {
		r.fail()
		return 0
	}
	c := r.buf[0]
	r.buf = r.buf[1:]
	return c
}

// Bool reads a byte written by AppendBool; any other value is malformed.
func (r *Reader) Bool() bool {
	c := r.Byte()
	if c > 1 {
		r.fail()
	}
	return c == 1
}

// String reads a length-prefixed string. A length longer than the unread
// input fails before anything is allocated.
func (r *Reader) String() string {
	n := r.Uvarint()
	if n > uint64(len(r.buf)) {
		r.fail()
		return ""
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

// Count reads the element count of a sequence whose every element takes
// at least minSize bytes, failing when the unread input cannot hold that
// many elements — so a corrupt count never sizes an allocation.
func (r *Reader) Count(minSize int) int {
	n := r.Uvarint()
	if n > uint64(len(r.buf)/minSize) {
		r.fail()
		return 0
	}
	return int(n)
}
