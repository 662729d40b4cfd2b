package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

// TestUvarintReadersAgree: the slice and stream readers accept exactly the
// minimal encodings and refuse the same malformed ones.
func TestUvarintReadersAgree(t *testing.T) {
	for _, x := range []uint64{0, 1, 127, 128, 1<<14 - 1, 1 << 14, 1 << 63, math.MaxUint64} {
		enc := binary.AppendUvarint(nil, x)
		r := NewReader(enc)
		if got := r.Uvarint(); got != x || r.Finish() != nil {
			t.Errorf("Reader.Uvarint(%x) = %d, %v", enc, got, r.Err())
		}
		if got, err := ReadUvarint(bytes.NewReader(enc)); got != x || err != nil {
			t.Errorf("ReadUvarint(%x) = %d, %v", enc, got, err)
		}
	}
	for _, bad := range [][]byte{
		{0x80, 0x00},                                // overlong zero
		{0xff, 0x80, 0x00},                          // overlong
		bytes.Repeat([]byte{0xff}, 10),              // no terminating byte in ten
		append(bytes.Repeat([]byte{0xff}, 9), 0x02), // wider than 64 bits
		{0x80}, // truncated
	} {
		r := NewReader(bad)
		r.Uvarint()
		if !errors.Is(r.Err(), ErrMalformed) {
			t.Errorf("Reader.Uvarint(%x): err = %v", bad, r.Err())
		}
		if _, err := ReadUvarint(bytes.NewReader(bad)); err == nil {
			t.Errorf("ReadUvarint(%x) accepted", bad)
		}
	}
	if _, err := ReadUvarint(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("ReadUvarint of an empty stream: %v, want io.EOF", err)
	}
}
