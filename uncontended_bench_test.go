// Uncontended fast-path benchmarks for the observability layer: each
// measures a single-thread acquire/release cycle with tracing DISABLED,
// the configuration production code runs in. The acceptance bar for the
// trace layer is that a classed (registered) lock stays within a few
// percent of its unclassed baseline here — the disabled check is one nil
// test plus one atomic load.
//
// Compare pairs with:
//
//	go test -bench 'Uncontended' -count 10 . | benchstat
package machlock_test

import (
	"testing"

	"machlock"
	"machlock/internal/core/cxlock"
	"machlock/internal/core/object"
	"machlock/internal/core/splock"
	"machlock/internal/sched"
	"machlock/internal/trace"
	"machlock/internal/zalloc"
)

// BenchmarkUncontendedSpin is the baseline: an unclassed spin lock, no
// observability wiring at all.
func BenchmarkUncontendedSpin(b *testing.B) {
	var l splock.Lock
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Lock()
		l.Unlock()
	}
}

// BenchmarkUncontendedSpinClassed is the same lock registered with the
// observability layer, tracing off: the cost of the disabled gate.
func BenchmarkUncontendedSpinClassed(b *testing.B) {
	trace.Disable()
	var l splock.Lock
	l.SetClass(trace.NewClass("bench", "bench.spin", trace.KindSpin))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Lock()
		l.Unlock()
	}
}

// BenchmarkUncontendedComplexRead / Write: the unclassed complex lock.
func BenchmarkUncontendedComplexRead(b *testing.B) {
	l := cxlock.NewWith(cxlock.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Read(nil)
		l.Done(nil)
	}
}

func BenchmarkUncontendedComplexWrite(b *testing.B) {
	l := cxlock.NewWith(cxlock.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Write(nil)
		l.Done(nil)
	}
}

// BenchmarkUncontendedComplexReadBiased: the reader-bias fast path — a
// slot publish and clear instead of the interlocked protocol. The thread
// identity is required (nil readers take the slow path).
func BenchmarkUncontendedComplexReadBiased(b *testing.B) {
	l := cxlock.NewWith(cxlock.Options{ReaderBias: true})
	self := sched.New("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Read(self)
		l.Done(self)
	}
}

// BenchmarkUncontendedComplexReadBiasedSlowPath: same lock, nil identity:
// the bias is configured but this reader cannot use it, measuring the
// fast-path check's overhead on the interlocked path.
func BenchmarkUncontendedComplexReadBiasedSlowPath(b *testing.B) {
	l := cxlock.NewWith(cxlock.Options{ReaderBias: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Read(nil)
		l.Done(nil)
	}
}

// BenchmarkUncontendedComplexReadClassed / WriteClassed: the complex lock
// registered with the observability layer, tracing off.
func BenchmarkUncontendedComplexReadClassed(b *testing.B) {
	trace.Disable()
	l := cxlock.NewWith(cxlock.Options{Class: trace.NewClass("bench", "bench.cx", trace.KindComplex)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Read(nil)
		l.Done(nil)
	}
}

func BenchmarkUncontendedComplexWriteClassed(b *testing.B) {
	trace.Disable()
	l := cxlock.NewWith(cxlock.Options{Class: trace.NewClass("bench", "bench.cx", trace.KindComplex)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Write(nil)
		l.Done(nil)
	}
}

// BenchmarkUncontendedObjectLockRef: one object lock/reference/release
// cycle — the Section 8 hot path — with the object unclassed.
func BenchmarkUncontendedObjectLockRef(b *testing.B) {
	var o object.Object
	o.Init("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Lock()
		o.TakeRef()
		o.Unlock()
		o.Release(nil)
	}
}

// BenchmarkUncontendedObjectLockRefClassed: same cycle with the object
// registered, tracing off.
func BenchmarkUncontendedObjectLockRefClassed(b *testing.B) {
	trace.Disable()
	var o object.Object
	o.Init("bench")
	o.SetClass(trace.NewClass("bench", "bench.object", trace.KindObject))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Lock()
		o.TakeRef()
		o.Unlock()
		o.Release(nil)
	}
}

// BenchmarkUncontendedZone: a TryAlloc/Free cycle through a classed zone
// (zones are always registered), tracing off.
func BenchmarkUncontendedZone(b *testing.B) {
	trace.Disable()
	z := zalloc.NewZone[int]("bench", 4, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		el, err := z.TryAlloc()
		if err != nil {
			b.Fatal(err)
		}
		z.Free(el)
	}
}

// BenchmarkUncontendedFacade: the full option path — NewSimpleLock with
// a name — cycled once per construction amortized away; measures that
// the facade adds nothing per acquisition over the direct lock.
func BenchmarkUncontendedFacade(b *testing.B) {
	l := machlock.NewSimpleLock(machlock.WithName("bench.facade"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Lock()
		l.Unlock()
	}
}
