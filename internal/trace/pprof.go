package trace

import (
	"compress/gzip"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// This file renders the site profiles (stack.go) in the pprof
// profile.proto format, gzipped, exactly as runtime/pprof's mutex profile
// does — so `go tool pprof` (top, list, flamegraph, -http) works against
// the live monitor:
//
//	go tool pprof http://host:port/debug/machlock/pprof/waits
//
// The encoder is a minimal hand-rolled protobuf writer (the repo takes no
// dependencies): profile.proto is a flat message of varints and
// length-delimited submessages, all of which fit in ~100 lines. Field
// numbers follow github.com/google/pprof/proto/profile.proto.
//
// Three profiles are exported, one per SiteKind:
//
//	waits — contended-acquisition delay keyed by the WAITER's stack
//	holds — hold time keyed by the HOLDER's acquisition stack
//	blame — waiters' delay keyed by the HOLDER's stack that caused it
//
// Every sample carries two values [count, delay-ns] (pprof's mutex
// convention: "contentions" and "delay") and a "class" label naming the
// lock class, so pprof's -tagfocus/-taghide can slice by class.

// protobuf wire-format writer --------------------------------------------

type protoBuf struct{ data []byte }

func (b *protoBuf) varint(v uint64) {
	for v >= 0x80 {
		b.data = append(b.data, byte(v)|0x80)
		v >>= 7
	}
	b.data = append(b.data, byte(v))
}

// tag writes a field key; wire type 0 = varint, 2 = length-delimited.
func (b *protoBuf) tag(field int, wire int) { b.varint(uint64(field)<<3 | uint64(wire)) }

func (b *protoBuf) int64Field(field int, v int64) {
	if v == 0 {
		return
	}
	b.tag(field, 0)
	b.varint(uint64(v))
}

func (b *protoBuf) uint64Field(field int, v uint64) {
	if v == 0 {
		return
	}
	b.tag(field, 0)
	b.varint(v)
}

func (b *protoBuf) bytesField(field int, raw []byte) {
	b.tag(field, 2)
	b.varint(uint64(len(raw)))
	b.data = append(b.data, raw...)
}

func (b *protoBuf) stringField(field int, s string) {
	b.tag(field, 2)
	b.varint(uint64(len(s)))
	b.data = append(b.data, s...)
}

// packedInt64s writes a repeated int64 field in packed encoding.
func (b *protoBuf) packedInt64s(field int, vs []int64) {
	if len(vs) == 0 {
		return
	}
	var p protoBuf
	for _, v := range vs {
		p.varint(uint64(v))
	}
	b.bytesField(field, p.data)
}

func (b *protoBuf) packedUint64s(field int, vs []uint64) {
	if len(vs) == 0 {
		return
	}
	var p protoBuf
	for _, v := range vs {
		p.varint(v)
	}
	b.bytesField(field, p.data)
}

// profile builder ---------------------------------------------------------

// pprofBuilder accumulates the cross-referenced tables of a profile.proto:
// a string table, functions, and locations, deduplicated by key.
type pprofBuilder struct {
	strings  []string
	stringIx map[string]int64

	funcs  []pprofFunc
	funcIx map[string]uint64 // name\x00file -> id

	locs  []pprofLoc
	locIx map[uintptr]uint64
}

type pprofFunc struct {
	id         uint64
	name, file int64 // string indices
	startLine  int64
}

type pprofLoc struct {
	id      uint64
	address uint64
	funcID  uint64
	line    int64
	inlined []pprofLine // additional inlined frames (callers after the leaf)
}

type pprofLine struct {
	funcID uint64
	line   int64
}

func newPprofBuilder() *pprofBuilder {
	b := &pprofBuilder{
		stringIx: map[string]int64{"": 0},
		strings:  []string{""},
		funcIx:   map[string]uint64{},
		locIx:    map[uintptr]uint64{},
	}
	return b
}

func (b *pprofBuilder) str(s string) int64 {
	if ix, ok := b.stringIx[s]; ok {
		return ix
	}
	ix := int64(len(b.strings))
	b.strings = append(b.strings, s)
	b.stringIx[s] = ix
	return ix
}

func (b *pprofBuilder) function(name, file string, startLine int64) uint64 {
	key := name + "\x00" + file
	if id, ok := b.funcIx[key]; ok {
		return id
	}
	id := uint64(len(b.funcs) + 1)
	b.funcs = append(b.funcs, pprofFunc{id: id, name: b.str(name), file: b.str(file), startLine: startLine})
	b.funcIx[key] = id
	return id
}

// location interns one pc, symbolizing it (with inline expansion) once.
func (b *pprofBuilder) location(pc uintptr) uint64 {
	if id, ok := b.locIx[pc]; ok {
		return id
	}
	id := uint64(len(b.locs) + 1)
	loc := pprofLoc{id: id, address: uint64(pc)}
	frames := runtime.CallersFrames([]uintptr{pc})
	first := true
	for {
		fr, more := frames.Next()
		name := fr.Function
		if name == "" {
			name = fmt.Sprintf("pc=%#x", pc)
		}
		fid := b.function(name, fr.File, 0)
		if first {
			loc.funcID, loc.line = fid, int64(fr.Line)
			first = false
		} else {
			loc.inlined = append(loc.inlined, pprofLine{funcID: fid, line: int64(fr.Line)})
		}
		if !more {
			break
		}
	}
	b.locs = append(b.locs, loc)
	b.locIx[pc] = id
	return id
}

// pprofSample is one aggregated row before encoding.
type pprofSample struct {
	locIDs []uint64
	count  int64
	ns     int64
	labels [][2]int64 // (key idx, str idx)
}

// WritePprof writes the gzipped profile.proto for one site-profile kind,
// aggregated across every registered class. Classes with empty site
// profiles contribute nothing; a completely empty profile is still a valid
// proto (go tool pprof reports "profile is empty").
func WritePprof(w io.Writer, kind SiteKind) error {
	b := newPprofBuilder()
	classKey := b.str("class")
	kindKey := b.str("lockkind")

	var samples []pprofSample
	// Deterministic output: walk classes in registration order, stacks
	// sorted by id.
	for _, c := range Classes() {
		sites := c.Sites(kind)
		sort.Slice(sites, func(i, j int) bool { return sites[i].Stack.ID() < sites[j].Stack.ID() })
		for _, site := range sites {
			sm := pprofSample{count: site.Count, ns: site.Ns}
			sm.labels = append(sm.labels,
				[2]int64{classKey, b.str(c.pkg + "/" + c.name)},
				[2]int64{kindKey, b.str(c.kind.String())})
			if site.Stack == nil {
				// Unattributed delay: a synthetic single-frame stack so
				// the sample survives pprof's location requirements and
				// names itself honestly.
				fid := b.function("<unattributed "+kind.String()+">", "", 0)
				id := uint64(len(b.locs) + 1)
				b.locs = append(b.locs, pprofLoc{id: id, funcID: fid})
				sm.locIDs = []uint64{id}
			} else {
				for _, pc := range site.Stack.PCs() {
					// pprof convention: addresses are the return pc; the
					// capture already stores call-site pcs from
					// runtime.Callers, which CallersFrames expects.
					sm.locIDs = append(sm.locIDs, b.location(pc))
				}
			}
			samples = append(samples, sm)
		}
	}

	countName, nsName := "contentions", "delay"
	if kind == SiteHolds {
		countName, nsName = "holds", "delay"
	}

	var p protoBuf
	// sample_type: [count, delay-ns]; default_sample_type = delay.
	var vt protoBuf
	vt.int64Field(1, b.str(countName))
	vt.int64Field(2, b.str("count"))
	p.bytesField(1, vt.data)
	vt = protoBuf{}
	vt.int64Field(1, b.str(nsName))
	vt.int64Field(2, b.str("nanoseconds"))
	p.bytesField(1, vt.data)

	for _, sm := range samples {
		var s protoBuf
		s.packedUint64s(1, sm.locIDs)
		s.packedInt64s(2, []int64{sm.count, sm.ns})
		for _, lb := range sm.labels {
			var l protoBuf
			l.int64Field(1, lb[0])
			l.int64Field(2, lb[1])
			s.bytesField(3, l.data)
		}
		p.bytesField(2, s.data)
	}

	// One synthetic mapping covering the whole address space; pprof wants
	// locations to fall inside some mapping.
	var m protoBuf
	m.uint64Field(1, 1)
	m.uint64Field(2, 1)
	m.uint64Field(3, ^uint64(0))
	m.int64Field(5, b.str("machlock"))
	m.uint64Field(7, 1) // has_functions
	p.bytesField(3, m.data)

	for _, loc := range b.locs {
		var l protoBuf
		l.uint64Field(1, loc.id)
		l.uint64Field(2, 1) // mapping id
		l.uint64Field(3, loc.address)
		var ln protoBuf
		ln.uint64Field(1, loc.funcID)
		ln.int64Field(2, loc.line)
		l.bytesField(4, ln.data)
		for _, il := range loc.inlined {
			ln = protoBuf{}
			ln.uint64Field(1, il.funcID)
			ln.int64Field(2, il.line)
			l.bytesField(4, ln.data)
		}
		p.bytesField(4, l.data)
	}

	for _, fn := range b.funcs {
		var f protoBuf
		f.uint64Field(1, fn.id)
		f.int64Field(2, fn.name)
		f.int64Field(3, fn.name) // system_name
		f.int64Field(4, fn.file)
		f.int64Field(5, fn.startLine)
		p.bytesField(5, f.data)
	}

	for _, s := range b.strings {
		p.stringField(6, s)
	}
	p.int64Field(9, time.Now().UnixNano()) // time_nanos
	// period_type + period: one sample per SetSampling events.
	var pt protoBuf
	pt.int64Field(1, b.str(countName))
	pt.int64Field(2, b.str("count"))
	p.bytesField(11, pt.data)
	p.int64Field(12, int64(Sampling()))
	p.int64Field(14, b.str(nsName)) // default_sample_type

	gz := gzip.NewWriter(w)
	if _, err := gz.Write(p.data); err != nil {
		return err
	}
	return gz.Close()
}
