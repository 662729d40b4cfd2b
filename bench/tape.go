package main

import (
	"encoding/binary"
	"math/rand"
)

// opKind selects what one tape entry does. The RPC kinds call the machd
// routine of the same name; the k* kinds call the kernel layers directly.
type opKind uint8

const (
	opLookup     opKind = iota // machd lookup of a live name
	opLookupDead               // machd lookup of a name that was never allocated: must fail remotely
	opChurn                    // machd port-churn
	opSpawn                    // machd task-spawn {Threads: 2, Pages: 32}
	opTouch                    // machd vm-touch
	kTranslate                 // Task.TranslatePort + Release
	kFault                     // Map.Fault on a resident page
	kChurn                     // InsertPort + Space.Remove + Port.Destroy
	kCycle                     // NewTask, Allocate, 4 x Fault, Terminate
	opBatch                    // span label for a batch of kernel ops
	numOpKinds
)

var opNames = [numOpKinds]string{
	"lookup", "lookup-dead", "port-churn", "task-spawn", "vm-touch",
	"translate", "fault", "churn", "task-cycle", "batch",
}

// op is one tape entry: what to do, on which task slot, with which port
// name or page.
type op struct {
	kind opKind
	slot uint16
	arg  uint32
}

// mixEntry gives a kind its share of a workload, in percent.
type mixEntry struct {
	kind opKind
	pct  int
}

// workload is one named set of inputs.
type workload struct {
	name   string
	kernel bool // no RPC: callers invoke the layers directly
	write  bool // kernel only: half-sized pool with the pageout daemon running
	mix    []mixEntry
	// batch is how many tape entries one timed batch runs. RPC calls are
	// timed one by one; kernel ops are too short to time singly without
	// the clock reads becoming the workload.
	batch int
}

var workloads = []workload{
	{name: "rpc_small", batch: 1,
		mix: []mixEntry{{opLookup, 94}, {opChurn, 5}, {opLookupDead, 1}}},
	{name: "rpc_heavy", batch: 1,
		mix: []mixEntry{{opSpawn, 70}, {opTouch, 20}, {opChurn, 10}}},
	{name: "kernel_read", kernel: true, batch: 256,
		mix: []mixEntry{{kTranslate, 70}, {kFault, 30}}},
	{name: "kernel_write", kernel: true, write: true, batch: 32,
		mix: []mixEntry{{kChurn, 70}, {kCycle, 30}}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// shape is the population a tape addresses.
type shape struct {
	tasks, ports, pages int
}

// deadName is a port name no space ever allocates (names count up from 1).
const deadName = 1 << 30

// tapeLen entries per caller; callers wrap around. A multiple of every
// batch size, so a batch never straddles the end.
const tapeLen = 1 << 16

// makeTape generates caller's op tape. All randomness of a run is spent
// here, at set-up: the timed region only replays the tape.
func makeTape(wl workload, sh shape, seed int64, caller int) []op {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(caller)))
	tape := make([]op, tapeLen)
	for i := range tape {
		r := rng.Intn(100)
		kind := wl.mix[len(wl.mix)-1].kind
		for _, m := range wl.mix {
			if r < m.pct {
				kind = m.kind
				break
			}
			r -= m.pct
		}
		o := op{kind: kind, slot: uint16(rng.Intn(sh.tasks))}
		switch kind {
		case opLookup, kTranslate:
			o.arg = uint32(1 + rng.Intn(sh.ports))
		case opLookupDead:
			o.arg = deadName
		case opTouch, kFault:
			o.arg = uint32(rng.Intn(sh.pages))
		}
		tape[i] = o
	}
	return tape
}

// tapeBytes serializes a tape (tests compare tapes byte for byte).
func tapeBytes(tape []op) []byte {
	out := make([]byte, 0, len(tape)*7)
	for _, o := range tape {
		out = append(out, byte(o.kind))
		out = binary.LittleEndian.AppendUint16(out, o.slot)
		out = binary.LittleEndian.AppendUint32(out, o.arg)
	}
	return out
}
