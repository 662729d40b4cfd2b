// Package machlock is a Go reproduction of the synchronization machinery
// described in "Locking and Reference Counting in the Mach Kernel"
// (David L. Black, Avadis Tevanian Jr., David B. Golub, Michael W. Young;
// ICPP 1991).
//
// The paper divides kernel coordination into two classes and this package
// exposes the Mach solution to both:
//
//   - Operation coordination — simple locks (spinning mutual exclusion,
//     Appendix A) and complex locks (multiple readers/single writer with
//     writer priority, plus the Sleep and Recursive options and
//     upgrade/downgrade, Appendix B);
//   - Existence coordination — reference counting with clone-under-lock
//     and release-may-destroy semantics (Section 8), the deactivated-object
//     protocol (Section 9), and the kernel-operation reference sequence
//     (Section 10).
//
// The event-wait primitives of Section 6 (assert_wait / thread_block /
// thread_wakeup / clear_wait / thread_sleep) underpin the sleeping lock
// protocols and are exported as well.
//
// # Thread identity
//
// Mach's lock and wait primitives rely on an implicit current_thread().
// Go exposes no goroutine-local storage, so operations that need an
// identity (sleeping on a lock, recursive holds, the wait primitives) take
// an explicit *Thread. Create one per worker goroutine with Go or
// NewThread. Spin-only acquisitions may pass nil.
//
// # Quick start
//
//	var lock machlock.SimpleLock // zero value is an unlocked lock
//	lock.Lock()
//	// ... critical section: may not block while held ...
//	lock.Unlock()
//
//	rw := machlock.NewLock(machlock.WithSleep(), machlock.WithReaderBias())
//	worker := machlock.Go("worker", func(self *machlock.Thread) {
//	    rw.Read(self) // biased: published with one store, no interlock
//	    defer rw.Done(self)
//	    // ... shared read ...
//	})
//	worker.Join()
//
// # Construction
//
// NewLock (complex locks) and NewSimpleLock (simple locks) with With…
// options are the only supported construction paths; earlier positional
// constructors and post-construction mutators (NewComplexLock,
// SetSleepable) have been removed. NewLock composes the Appendix B
// options — WithSleep, WithRecursive, WithReaderBias, WithName,
// WithClass — in one constructor; the Locker and RWLocker interfaces
// abstract the resulting locks for code that takes either. The zero
// values of SimpleLock and of the internal lock types remain valid
// unlocked locks with default behaviour.
//
// # Acquisition algorithms
//
// A simple lock runs one algorithm, the paper's: a test-and-set first,
// then test-and-test-and-set spinning, because "most locks in a well
// designed system are acquired on the first attempt". A complex lock
// chooses how its waiters wait:
//
//	cl := machlock.NewLock(machlock.WithSpinThenPark(64)) // sleepable
//
// WithSpinThenPark gives a complex lock spin-then-park waiting and
// implies WithSleep. The other spin policies (pure TAS and TTAS,
// test-and-clear, MCS queue, cohort, adaptive) are claims about
// interconnect traffic and run only on the simulated machine, where
// experiments E1 and E14 measure them. On the host a queue lock's FIFO
// handoff to a waiter that is not running costs more than the stampede
// it avoids.
//
// The deeper subsystems the paper describes — the simulated multiprocessor
// with coherence accounting, the VM system with the vm_map_pageable
// deadlock, pmap lock-order arbitration, TLB shootdown, the IPC reference
// protocol — live in internal packages and are exercised by the examples,
// the experiment harness (cmd/machbench), and the benchmarks; see
// DESIGN.md for the inventory and EXPERIMENTS.md for results.
package machlock
