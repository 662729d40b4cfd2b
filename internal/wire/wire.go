// Package wire is the one binary encoding of the RPC path: mig packs
// routine arguments and replies with it, and netmsg frames messages with
// it, so a request crosses from stub to socket without a second encoding.
//
// Signed integers are zig-zag varints and unsigned integers uvarints, as
// encoding/binary writes them; a boolean is one byte, 0 or 1; a string or
// byte slice is its uvarint length followed by its bytes.
//
// A Reader decodes strictly. Truncated input, a varint longer than its
// minimal form or wider than 64 bits, a boolean byte other than 0 or 1, and
// a length larger than the input left are all errors. So every input a
// Reader accepts is the only encoding of its values, and a decoder built on
// it never allocates for a length the input does not carry.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ErrMalformed is wrapped by every decoding error.
var ErrMalformed = errors.New("wire: malformed input")

// AppendBool appends v as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendBytes appends p's uvarint length and then p.
func AppendBytes(b, p []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(p))), p...)
}

// AppendString appends s's uvarint length and then s.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// Reader decodes values from a byte slice. The first error sticks: later
// reads return zero values, and Err and Finish report it.
type Reader struct {
	buf []byte
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{buf: b} }

// Len returns the number of bytes left.
func (r *Reader) Len() int { return len(r.buf) }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Finish returns the first decoding error, or an error if input is left.
func (r *Reader) Finish() error {
	if r.err == nil && len(r.buf) > 0 {
		r.fail(fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(r.buf)))
	}
	return r.err
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.buf = nil
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.buf) == 0 {
		r.fail(fmt.Errorf("%w: truncated", ErrMalformed))
		return 0
	}
	c := r.buf[0]
	r.buf = r.buf[1:]
	return c
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	x, n := binary.Uvarint(r.buf)
	switch {
	case n == 0:
		r.fail(fmt.Errorf("%w: truncated", ErrMalformed))
		return 0
	case n < 0:
		r.fail(fmt.Errorf("%w: varint wider than 64 bits", ErrMalformed))
		return 0
	case n > 1 && r.buf[n-1] == 0:
		r.fail(fmt.Errorf("%w: overlong varint", ErrMalformed))
		return 0
	}
	r.buf = r.buf[n:]
	return x
}

// Varint reads a signed (zig-zag) varint.
func (r *Reader) Varint() int64 {
	ux := r.Uvarint()
	return int64(ux>>1) ^ -int64(ux&1)
}

// Bool reads a boolean byte.
func (r *Reader) Bool() bool {
	switch c := r.Byte(); c {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(fmt.Errorf("%w: boolean byte %d", ErrMalformed, c))
		return false
	}
}

// Bytes reads a length-prefixed byte string. The result aliases the
// Reader's input.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if n > uint64(len(r.buf)) {
		r.fail(fmt.Errorf("%w: length %d exceeds the %d bytes left", ErrMalformed, n, len(r.buf)))
		return nil
	}
	p := r.buf[:n:n]
	r.buf = r.buf[n:]
	return p
}

// ReadUvarint reads an unsigned varint from a stream, as strictly as
// Reader.Uvarint. A stream that ends before the first byte returns io.EOF.
func ReadUvarint(br io.ByteReader) (uint64, error) {
	var x uint64
	for i := 0; i < binary.MaxVarintLen64; i++ {
		c, err := br.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		if c < 0x80 {
			if i == binary.MaxVarintLen64-1 && c > 1 {
				break
			}
			if i > 0 && c == 0 {
				return 0, fmt.Errorf("%w: overlong varint", ErrMalformed)
			}
			return x | uint64(c)<<(7*i), nil
		}
		x |= uint64(c&0x7f) << (7 * i)
	}
	return 0, fmt.Errorf("%w: varint wider than 64 bits", ErrMalformed)
}
