package mig_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"machlock/internal/core/object"
	"machlock/internal/ipc"
	"machlock/internal/kern"
	"machlock/internal/machd"
	"machlock/internal/mig"
	"machlock/internal/sched"
	"machlock/internal/wire"
)

// blob has a field of every encoding, the narrow integers that can be out
// of range, and the string and []byte kinds no daemon routine uses yet.
type blob struct {
	S  string
	B  []byte
	I8 int8
	U8 uint16
	On bool
}

// roundTrip packs v (a pointer to a routine structure), unpacks the bytes
// into a fresh value, and checks the value and its re-encoding match.
func roundTrip(t *testing.T, v any) {
	t.Helper()
	p, err := mig.Pack(v)
	if err != nil {
		t.Fatalf("pack %T: %v", v, err)
	}
	got := reflect.New(reflect.TypeOf(v).Elem()).Interface()
	if err := mig.Unpack(p, got); err != nil {
		t.Fatalf("unpack %T from %x: %v", v, p, err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("round trip of %+v gave %+v", v, got)
	}
	again, err := mig.Pack(got)
	if err != nil || !bytes.Equal(again, p) {
		t.Fatalf("re-encoding of %+v: %x, %v; want %x", got, again, err, p)
	}
}

// TestRoutineTypesRoundTrip covers every routine structure machd and kern
// define, at the extremes of their fields.
func TestRoutineTypesRoundTrip(t *testing.T) {
	const odd = "ポート\x00\xff" // non-ASCII, a NUL, and a byte that is not UTF-8
	for _, v := range []any{
		&machd.LookupArgs{}, &machd.LookupArgs{Slot: math.MinInt, Name: math.MaxUint32},
		&machd.LookupArgs{Slot: math.MaxInt, Name: 1},
		&machd.LookupReply{}, &machd.LookupReply{Found: true},
		&machd.ChurnArgs{Slot: -1}, &machd.ChurnReply{Names: math.MaxInt},
		&machd.SpawnArgs{Threads: math.MinInt, Pages: math.MaxInt},
		&machd.SpawnReply{ID: math.MinInt64}, &machd.SpawnReply{ID: math.MaxInt64},
		&machd.TouchArgs{Slot: math.MaxInt, Page: math.MinInt},
		&machd.TouchReply{Faults: math.MaxInt64},
		&machd.ChaosArgs{Slot: 3, Kill: true, HoldUs: math.MinInt}, &machd.ChaosReply{Killed: true},
		&machd.StatArgs{},
		&machd.StatReply{Tasks: math.MaxInt, PortsPerTask: math.MinInt, VMPages: 1, PoolFree: -1,
			PoolTotal: 64, Spawns: math.MaxInt64, Kills: math.MinInt64, Holds: 0, Faults: 1 << 40, Reclaims: -(1 << 40)},
		&kern.TaskInfoArgs{}, &kern.TaskInfoReply{}, &kern.TaskInfoReply{Name: odd, ThreadCount: math.MaxInt,
			SuspendCount: math.MinInt, PortNames: 7},
		&kern.TaskSuspendArgs{}, &kern.TaskSuspendReply{SuspendCount: math.MaxInt},
		&kern.TaskResumeArgs{}, &kern.TaskResumeReply{SuspendCount: math.MinInt},
		&kern.ThreadCreateArgs{Name: odd}, &kern.ThreadCreateArgs{Name: strings.Repeat("w", 300)},
		&kern.ThreadCreateReply{ThreadCount: 2},
		&kern.TaskTerminateArgs{}, &kern.TaskTerminateReply{Won: true},
		&kern.ThreadInfoArgs{}, &kern.ThreadInfoReply{Name: odd, TaskName: "", SuspendCount: math.MaxInt},
		&kern.ThreadSuspendArgs{}, &kern.ThreadSuspendReply{SuspendCount: -1},
		&kern.ThreadResumeArgs{}, &kern.ThreadResumeReply{SuspendCount: 1},
		&kern.ThreadTerminateArgs{}, &kern.ThreadTerminateReply{Won: true},
		&blob{S: odd, B: []byte{0, 0xff}, I8: math.MinInt8, U8: math.MaxUint16, On: true},
		&blob{I8: math.MaxInt8},
	} {
		t.Run(fmt.Sprintf("%T", v), func(t *testing.T) { roundTrip(t, v) })
	}
}

// TestEmptyBytesUnpackNil pins the nil-vs-empty behaviour: an empty and a
// nil []byte pack alike and both unpack as nil.
func TestEmptyBytesUnpackNil(t *testing.T) {
	empty, err := mig.Pack(&blob{B: []byte{}})
	if err != nil {
		t.Fatal(err)
	}
	nilB, err := mig.Pack(&blob{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(empty, nilB) {
		t.Fatalf("empty packs as %x, nil as %x", empty, nilB)
	}
	var got blob
	if err := mig.Unpack(empty, &got); err != nil {
		t.Fatal(err)
	}
	if got.B != nil {
		t.Fatalf("empty []byte unpacked as %#v, want nil", got.B)
	}
}

// TestNilPacksZeroValue: a handler that returns a nil reply without an
// error sends the zero reply rather than crashing its server thread.
func TestNilPacksZeroValue(t *testing.T) {
	got, err := mig.Pack((*machd.StatReply)(nil))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := mig.Pack(&machd.StatReply{})
	if !bytes.Equal(got, want) {
		t.Fatalf("nil packs as %x, the zero value as %x", got, want)
	}
}

// badPayloads must all be refused; FuzzMigUnpack starts from them too.
var badPayloads = []struct {
	name string
	typ  int // index into fuzzTypes
	data []byte
}{
	{"truncated varint", 0, []byte{0x80}},
	{"missing field", 0, []byte{0x02}},
	{"overlong varint", 0, []byte{0x82, 0x00, 0x01}},
	{"varint wider than 64 bits", 2, bytes.Repeat([]byte{0xff}, 11)},
	{"uint32 out of range", 0, binary.AppendUvarint([]byte{0x02}, 1<<32)},
	{"int8 out of range", 3, []byte{0x00, 0x00, 0x80, 0x04, 0x00, 0x00}},
	{"bool byte 2", 1, []byte{0x02}},
	{"trailing byte", 1, []byte{0x01, 0x00}},
	{"string length beyond payload", 3, binary.AppendUvarint(nil, 1<<40)},
	{"bytes length beyond payload", 3, []byte{0x00, 0x05, 'a'}},
}

// fuzzTypes are the structures FuzzMigUnpack decodes into.
var fuzzTypes = []reflect.Type{
	reflect.TypeFor[machd.LookupArgs](),
	reflect.TypeFor[machd.LookupReply](),
	reflect.TypeFor[machd.SpawnReply](),
	reflect.TypeFor[blob](),
	reflect.TypeFor[machd.StatReply](),
}

func TestUnpackRefusesMalformedPayloads(t *testing.T) {
	for _, c := range badPayloads {
		v := reflect.New(fuzzTypes[c.typ]).Interface()
		err := mig.Unpack(c.data, v)
		if err == nil {
			t.Errorf("%s: %x unpacked into %T as %+v", c.name, c.data, v, v)
		} else if !strings.HasPrefix(err.Error(), "mig: unpack") {
			t.Errorf("%s: error %q does not name the unpack", c.name, err)
		}
	}
}

// FuzzMigUnpack: any payload either is refused or is the one encoding of
// the value it unpacks to. It never panics.
func FuzzMigUnpack(f *testing.F) {
	for _, c := range badPayloads {
		f.Add(uint8(c.typ), c.data)
	}
	for i, v := range []any{
		&machd.LookupArgs{Slot: 5, Name: 9}, &machd.LookupReply{Found: true}, &machd.SpawnReply{ID: -3},
		&blob{S: "x", B: []byte("yz"), I8: -1, U8: 300, On: true}, &machd.StatReply{Tasks: 32, Faults: 1 << 33},
	} {
		p, err := mig.Pack(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), p)
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		v := reflect.New(fuzzTypes[int(which)%len(fuzzTypes)]).Interface()
		if err := mig.Unpack(data, v); err != nil {
			if !errors.Is(err, wire.ErrMalformed) && !strings.Contains(err.Error(), "overflows") {
				t.Fatalf("unexpected error kind: %v", err)
			}
			return
		}
		again, err := mig.Pack(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("%x unpacked into %+v, which packs as %x", data, v, again)
		}
	})
}

type okArgs struct{ N int }
type okReply struct{ N int }
type mapArgs struct{ M map[string]int }
type ptrArgs struct{ P *int }
type nestedReply struct{ Inner okReply }
type sliceArgs struct{ L []int }
type hiddenArgs struct{ n int }

func TestDefineRefusesTypesWithNoInlineForm(t *testing.T) {
	refused := func(name string, define func(*mig.Interface)) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("Define accepted %s", name)
			}
		}()
		define(mig.NewInterface(ipc.KindCustom))
	}
	refused("a map field", func(i *mig.Interface) {
		mig.Define(i, 0, "map", func(*ipc.Context, ipc.KObject, *mapArgs) (*okReply, error) { return nil, nil })
	})
	refused("a pointer field", func(i *mig.Interface) {
		mig.Define(i, 0, "ptr", func(*ipc.Context, ipc.KObject, *ptrArgs) (*okReply, error) { return nil, nil })
	})
	refused("a nested structure", func(i *mig.Interface) {
		mig.Define(i, 0, "nested", func(*ipc.Context, ipc.KObject, *okArgs) (*nestedReply, error) { return nil, nil })
	})
	refused("an []int field", func(i *mig.Interface) {
		mig.Define(i, 0, "slice", func(*ipc.Context, ipc.KObject, *sliceArgs) (*okReply, error) { return nil, nil })
	})
	refused("an unexported field", func(i *mig.Interface) {
		mig.Define(i, 0, "hidden", func(*ipc.Context, ipc.KObject, *hiddenArgs) (*okReply, error) { return nil, nil })
	})
}

func TestCallRefusesTypesWithNoInlineFormWithoutSending(t *testing.T) {
	port := ipc.NewPort("unserved") // a call that sent would wait here forever
	defer port.Destroy()
	self := sched.New("client")
	if _, err := mig.Call[mapArgs, okReply](self, port, 0, &mapArgs{}); err == nil {
		t.Error("Call packed a map field")
	}
	if _, err := mig.Call[okArgs, nestedReply](self, port, 0, &okArgs{}); err == nil {
		t.Error("Call accepted a nested reply structure")
	}
	if n := port.QueueLen(); n != 0 {
		t.Fatalf("%d messages sent", n)
	}
}

type echoObj struct{ object.Object }

// TestFirstCallsRaceOnCodecCache: eight threads make the first call of a
// type at once, all building its codec and racing to publish it. Run under
// -race -count=10.
func TestFirstCallsRaceOnCodecCache(t *testing.T) {
	type raceArgs struct {
		N int64
		S string
	}
	type raceReply struct{ N int64 }
	iface := mig.NewInterface(ipc.KindCustom)
	mig.Define(iface, 0, "echo", func(_ *ipc.Context, _ ipc.KObject, a *raceArgs) (*raceReply, error) {
		return &raceReply{N: a.N + int64(len(a.S))}, nil
	})
	srv := iface.Server(ipc.Mach25)
	port := ipc.NewPort("race")
	obj := &echoObj{}
	obj.Init("race")
	obj.TakeRef()
	port.SetKObject(ipc.KindCustom, obj)
	port.TakeRef()
	server := sched.Go("server", func(self *sched.Thread) {
		srv.Serve(self, port)
		port.Release(nil)
	})
	defer func() {
		port.Destroy()
		server.Join()
	}()

	// Define built both codecs; forget them so the clients build their own.
	mig.ForgetCodec[raceArgs]()
	mig.ForgetCodec[raceReply]()
	start := make(chan struct{})
	var clients []*sched.Thread
	for i := 0; i < 8; i++ {
		clients = append(clients, sched.Go(fmt.Sprintf("c%d", i), func(self *sched.Thread) {
			<-start
			r, err := mig.Call[raceArgs, raceReply](self, port, 0, &raceArgs{N: int64(i), S: "ab"})
			if err != nil || r.N != int64(i)+2 {
				t.Errorf("client %d: %+v, %v", i, r, err)
			}
		}))
	}
	close(start)
	for _, c := range clients {
		c.Join()
	}
}
