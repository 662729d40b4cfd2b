// Benchmarks: one per experiment in the DESIGN.md index (E1–E13), runnable
// with `go test -bench=. -benchmem`. Each benchmark measures the hot
// operation behind its experiment; the full tables (parameter sweeps,
// baselines, deadlock demonstrations) come from the same drivers via
// `go run ./cmd/machbench`.
package machlock_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"machlock"
	"machlock/internal/core/cxlock"
	"machlock/internal/core/object"
	"machlock/internal/core/refcount"
	"machlock/internal/core/splock"
	"machlock/internal/experiments"
	"machlock/internal/hw"
	"machlock/internal/ipc"
	"machlock/internal/pmap"
	"machlock/internal/sched"
	"machlock/internal/timer"
	"machlock/internal/tlbsim"
	"machlock/internal/vm"
)

// BenchmarkE1LockVariants: simulated spin-lock acquisition under 2-CPU
// contention, reporting interconnect transactions per acquisition — the
// paper's TTAS metric.
func BenchmarkE1LockVariants(b *testing.B) {
	for _, policy := range []splock.Policy{splock.TAS, splock.TTAS, splock.TASTTAS} {
		b.Run(policy.String(), func(b *testing.B) {
			m := hw.New(2)
			l := splock.NewSimWith(splock.SimOpts{Machine: m, Algorithm: policy})
			var wg sync.WaitGroup
			half := b.N/2 + 1
			b.ResetTimer()
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func(c *hw.CPU) {
					defer wg.Done()
					for j := 0; j < half; j++ {
						l.Lock(c)
						l.Unlock(c)
					}
				}(m.CPU(i))
			}
			wg.Wait()
			b.ReportMetric(float64(m.BusTransactions())/float64(2*half), "bus-txns/acq")
		})
	}
}

// BenchmarkE2Granularity: counter increments under one global lock vs one
// lock per counter.
func BenchmarkE2Granularity(b *testing.B) {
	const slots = 64
	for _, tc := range []struct {
		name  string
		locks int
	}{{"global", 1}, {"per-object", slots}} {
		b.Run(tc.name, func(b *testing.B) {
			locks := make([]splock.Lock, tc.locks)
			var counters [slots]struct {
				v   uint64
				pad [7]uint64
			}
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					slot := i % slots
					i++
					l := &locks[slot*tc.locks/slots]
					l.Lock()
					counters[slot].v++
					l.Unlock()
				}
			})
		})
	}
}

// BenchmarkE3WriterPriority: writer acquisition latency through a flood of
// readers on the writer-priority complex lock.
func BenchmarkE3WriterPriority(b *testing.B) {
	l := cxlock.NewWith(cxlock.Options{Sleep: true})
	stop := make(chan struct{})
	var readers []*sched.Thread
	for i := 0; i < 3; i++ {
		readers = append(readers, sched.Go("r", func(self *sched.Thread) {
			for {
				select {
				case <-stop:
					return
				default:
				}
				l.Read(self)
				l.Done(self)
			}
		}))
	}
	w := sched.New("writer")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Write(w)
		l.Done(w)
	}
	b.StopTimer()
	close(stop)
	for _, r := range readers {
		r.Join()
	}
}

// BenchmarkE4Upgrade: inspect-then-modify via read+upgrade vs
// write+downgrade, 2 contending threads.
func BenchmarkE4Upgrade(b *testing.B) {
	b.Run("read+upgrade", func(b *testing.B) {
		l := cxlock.NewWith(cxlock.Options{Sleep: true})
		var restarts atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			self := sched.New("u")
			for pb.Next() {
				for {
					l.Read(self)
					if failed := l.ReadToWrite(self); failed {
						restarts.Add(1)
						continue
					}
					l.Done(self)
					break
				}
			}
		})
		b.ReportMetric(float64(restarts.Load()), "restarts")
	})
	b.Run("write+downgrade", func(b *testing.B) {
		l := cxlock.NewWith(cxlock.Options{Sleep: true})
		b.RunParallel(func(pb *testing.PB) {
			self := sched.New("d")
			for pb.Next() {
				l.Write(self)
				l.WriteToRead(self)
				l.Done(self)
			}
		})
	})
}

// BenchmarkE5SpinVsSleep: contended write acquisitions with the Sleep
// option off and on.
func BenchmarkE5SpinVsSleep(b *testing.B) {
	for _, tc := range []struct {
		name      string
		sleepable bool
	}{{"spin", false}, {"sleep", true}} {
		b.Run(tc.name, func(b *testing.B) {
			l := cxlock.NewWith(cxlock.Options{Sleep: tc.sleepable})
			b.RunParallel(func(pb *testing.PB) {
				self := sched.New("w")
				for pb.Next() {
					l.Write(self)
					l.Done(self)
				}
			})
		})
	}
}

// BenchmarkE6Refcount: clone+release pairs for the three existence
// coordination schemes.
func BenchmarkE6Refcount(b *testing.B) {
	b.Run("lock-protected", func(b *testing.B) {
		var lock splock.Lock
		var c refcount.Count
		c.Init(1)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				lock.Lock()
				c.Clone()
				lock.Unlock()
				lock.Lock()
				c.Release()
				lock.Unlock()
			}
		})
	})
	b.Run("atomic", func(b *testing.B) {
		var c refcount.Atomic
		c.Init(1)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Clone()
				c.Release()
			}
		})
	})
	b.Run("gc", func(b *testing.B) {
		type node struct{ payload [4]uint64 }
		shared := &node{}
		var slot atomic.Pointer[node]
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				slot.Store(shared)
				slot.Store(nil)
			}
		})
	})
}

// BenchmarkE7EventWait: one producer/consumer handoff per op through the
// split assert_wait/thread_block protocol.
func BenchmarkE7EventWait(b *testing.B) {
	var mu sync.Mutex
	ready := 0
	ev := new(int)
	total := b.N
	consumer := sched.Go("consumer", func(self *sched.Thread) {
		consumed := 0
		for consumed < total {
			mu.Lock()
			for ready == 0 {
				sched.AssertWait(self, ev)
				mu.Unlock()
				sched.ThreadBlock(self)
				mu.Lock()
			}
			ready--
			consumed++
			mu.Unlock()
		}
	})
	b.ResetTimer()
	producer := sched.Go("producer", func(self *sched.Thread) {
		for i := 0; i < total; i++ {
			mu.Lock()
			ready++
			mu.Unlock()
			sched.ThreadWakeup(ev)
		}
	})
	producer.Join()
	consumer.Join()
}

// BenchmarkE8PmapOrder: pmap_enter (forward order) throughput under
// concurrent reverse-order page protects, per arbitration mode.
func BenchmarkE8PmapOrder(b *testing.B) {
	for _, mode := range []pmap.Mode{pmap.SystemLock, pmap.Backout} {
		b.Run(mode.String(), func(b *testing.B) {
			s := pmap.NewSystem(mode, 16)
			pm := s.NewPmap()
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				i := 0
				for {
					select {
					case <-stop:
						return
					default:
						s.PageProtect(uint64(i%16), pmap.ProtRead)
						i++
					}
				}
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Enter(pm, uint64(i%256), uint64(i%16), pmap.ProtAll)
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
		})
	}
}

// BenchmarkE9Shootdown: one full interrupt-barrier TLB shootdown per op on
// a 4-CPU machine.
func BenchmarkE9Shootdown(b *testing.B) {
	m := hw.New(4)
	s := tlbsim.New(m)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 1; i < 4; i++ {
		wg.Add(1)
		go func(c *hw.CPU) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Checkpoint()
				}
			}
		}(m.CPU(i))
	}
	initiator := m.CPU(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Shootdown(initiator, uint64(i))
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}

// BenchmarkE10RPC: one full kernel RPC (translate, reference, execute,
// release, reply) per op.
func BenchmarkE10RPC(b *testing.B) {
	srv := ipc.NewServer(ipc.Mach25)
	srv.Register(ipc.KindCustom, 1, func(ctx *ipc.Context, obj ipc.KObject, req *ipc.Message) *ipc.Message {
		return ipc.NewReply(req, "ok")
	})
	port := ipc.NewPort("svc")
	o := &benchKObj{}
	o.Init("o")
	o.TakeRef()
	port.SetKObject(ipc.KindCustom, o)
	port.TakeRef()
	server := sched.Go("server", func(self *sched.Thread) {
		srv.Serve(self, port)
		port.Release(nil)
	})
	client := sched.New("client")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := ipc.Call(client, port, 1)
		if err != nil {
			b.Fatal(err)
		}
		resp.Destroy()
	}
	b.StopTimer()
	port.Destroy()
	server.Join()
}

// BenchmarkE11Pageable: wire/unwire cycles via the rewritten (deadlock-
// free) protocol; the recursive variant's result is a deadlock, which is
// demonstrated rather than benchmarked (see cmd/deadlockdemo and the E11
// driver).
func BenchmarkE11Pageable(b *testing.B) {
	pool := vm.NewPool(64)
	m := vm.NewMap(pool)
	obj := vm.NewObject(pool, 16)
	self := sched.New("wirer")
	if err := m.Allocate(self, 0, 16, obj, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Wire(self, 0, 16); err != nil {
			b.Fatal(err)
		}
		if err := m.Unwire(self, 0, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12Uniproc: the uniprocessor compile-out delta and the
// non-locking timer read.
func BenchmarkE12Uniproc(b *testing.B) {
	b.Run("simple-lock", func(b *testing.B) {
		var l splock.Lock
		for i := 0; i < b.N; i++ {
			l.Lock()
			l.Unlock()
		}
	})
	b.Run("compiled-out", func(b *testing.B) {
		var l splock.Noop
		for i := 0; i < b.N; i++ {
			l.Lock()
			l.Unlock()
		}
	})
	b.Run("timer-read", func(b *testing.B) {
		var tm timer.Timer
		tm.Set(timer.LowMax - 1000)
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
					tm.Add(700)
				}
			}
		}()
		b.ResetTimer()
		var retries int64
		for i := 0; i < b.N; i++ {
			_, r := tm.Read()
			retries += int64(r)
		}
		b.StopTimer()
		close(stop)
		<-done
		b.ReportMetric(float64(retries)/float64(b.N), "retries/read")
	})
}

// BenchmarkE13ReadScaling: contended read acquisition on the complex lock,
// unbiased vs reader-biased, across reader counts up to GOMAXPROCS with 0
// or 1 background writers. The biased lock's readers publish in the
// visible-readers table and skip the interlock; the writer (when present)
// revokes the bias, so the w1 rows show the revocation/cooldown cost.
func BenchmarkE13ReadScaling(b *testing.B) {
	maxReaders := runtime.GOMAXPROCS(0)
	if maxReaders < 4 {
		maxReaders = 4
	}
	var counts []int
	for n := 1; n <= maxReaders; n *= 2 {
		counts = append(counts, n)
	}
	for _, biased := range []bool{false, true} {
		name := "interlock"
		if biased {
			name = "biased"
		}
		for _, nr := range counts {
			for _, nw := range []int{0, 1} {
				b.Run(fmt.Sprintf("%s/r%d/w%d", name, nr, nw), func(b *testing.B) {
					l := cxlock.NewWith(cxlock.Options{ReaderBias: biased, Name: "bench.e13"})
					stop := make(chan struct{})
					var writers []*sched.Thread
					for i := 0; i < nw; i++ {
						writers = append(writers, sched.Go("w", func(self *sched.Thread) {
							for {
								select {
								case <-stop:
									return
								default:
								}
								l.Write(self)
								l.Done(self)
								time.Sleep(200 * time.Microsecond) // mostly-read mix
							}
						}))
					}
					per := b.N/nr + 1
					b.ResetTimer()
					var readers []*sched.Thread
					for i := 0; i < nr; i++ {
						readers = append(readers, sched.Go("r", func(self *sched.Thread) {
							for j := 0; j < per; j++ {
								l.Read(self)
								l.Done(self)
							}
						}))
					}
					for _, r := range readers {
						r.Join()
					}
					b.StopTimer()
					close(stop)
					for _, w := range writers {
						w.Join()
					}
					s := l.Stats()
					b.ReportMetric(float64(s.BiasedReads)/float64(s.ReadAcquisitions+1), "biased-frac")
				})
			}
		}
	}
}

// benchKObj gives the RPC bench a minimal kernel object.
type benchKObj struct {
	object.Object
}

// BenchmarkExperimentDriversQuick runs each experiment driver once per
// iteration set, keeping the full pipelines honest under `-bench`.
func BenchmarkExperimentDriversQuick(b *testing.B) {
	for _, id := range []string{"e1", "e7", "e12"} {
		e, ok := experiments.Lookup(id)
		if !ok {
			b.Fatalf("experiment %s missing", id)
		}
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = e.Run(experiments.Config{Quick: true})
			}
		})
	}
}

// BenchmarkE14ArsenalContended: the host's one simple-lock algorithm, the
// paper's TAS+TTAS, under GOMAXPROCS-wide contention with a short
// critical section. The other policies run only on the simulated
// machine; their coherence tables come from `go run ./cmd/machbench e14`.
func BenchmarkE14ArsenalContended(b *testing.B) {
	l := machlock.NewSimpleLock(machlock.WithName("bench.e14"))
	var n int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			l.Lock()
			n++
			l.Unlock()
		}
	})
	if n != int64(b.N) {
		b.Fatalf("lost updates: n=%d, want %d", n, b.N)
	}
}
