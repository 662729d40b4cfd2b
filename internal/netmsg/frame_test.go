package netmsg

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"strings"
	"testing"
)

// frameBytes is f's whole frame: length header and frame.
func frameBytes(t testing.TB, f frame) []byte {
	t.Helper()
	body, err := appendFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
}

// withLen prefixes p with its length header.
func withLen(p ...byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(p))), p...)
}

// readOne reads one frame from data.
func readOne(data []byte) (frame, error) {
	s := newStream(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(data), io.Discard})
	return s.read()
}

// badFrames must all be refused; FuzzNetmsgFrame starts from them too.
var badFrames = []struct {
	name string
	data []byte
	want string
}{
	// Refused on the header alone: nothing is allocated for 2^40 bytes.
	{"length 2^40", append(binary.AppendUvarint(nil, 1<<40), 0, 0, 1), "exceeds"},
	{"overlong length", []byte{0x83, 0x00, 0, 0, 0}, "overlong"},
	{"truncated frame", []byte{0x05, 0, 0, 1}, "unexpected EOF"},
	// op 0, no error, one string item whose length runs past the frame.
	{"truncated item", withLen(0, 0, 1, tagString, 9, 'a', 'b'), "exceeds"},
	{"unknown tag", withLen(0, 0, 1, 0x7f, 0), "unknown item tag"},
	{"zero tag", withLen(0, 0, 1, 0, 0), "unknown item tag"},
	{"count larger than payload", withLen(0, 0, 200, tagBool, 1), "items in"},
	{"trailing bytes", withLen(0, 0, 1, tagBool, 1, 0xaa), "trailing"},
	{"bool byte 2", withLen(0, 0, 1, tagBool, 2), "boolean"},
	{"empty frame", withLen(), "truncated"},
}

func TestFrameRefusals(t *testing.T) {
	for _, c := range badFrames {
		if f, err := readOne(c.data); err == nil {
			t.Errorf("%s: %x read as %+v", c.name, c.data, f)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q, want it to mention %q", c.name, err, c.want)
		}
	}
}

// FuzzNetmsgFrame: the frame reader never panics, and a frame it accepts is
// the one encoding of what it read.
func FuzzNetmsgFrame(f *testing.F) {
	for _, c := range badFrames {
		f.Add(c.data)
	}
	f.Add(frameBytes(f, frame{}))
	f.Add(frameBytes(f, frame{op: -3, err: "netmsg(remote): no such name"}))
	f.Add(frameBytes(f, frame{op: 2, body: []any{
		[]byte("payload"), "s", int(-1), int64(math.MinInt64), uint64(math.MaxUint64), math.Inf(-1), true,
	}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := readOne(data)
		if err != nil {
			return
		}
		again := frameBytes(t, got)
		if !bytes.HasPrefix(data, again) {
			t.Fatalf("%x read as %+v, which encodes as %x", data, got, again)
		}
	})
}
