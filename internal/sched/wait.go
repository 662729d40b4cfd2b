package sched

import (
	"hash/maphash"
	"runtime"
	"sync"

	"machlock/internal/machsim/simhook"
)

// nbuckets is the size of the event hash table. Mach sized its wait-event
// hash similarly; sharding keeps unrelated events (different locks) from
// contending on one bucket mutex.
const nbuckets = 64

var seed = maphash.MakeSeed()

// bucket is one shard of the event table.
type bucket struct {
	mu      sync.Mutex
	waiters map[Event][]*Thread
}

// Table is an event wait table. The package-level functions operate on a
// default global table, which is what the lock implementations use (events
// are unique pointers, so a global table is safe); tests may create private
// tables.
type Table struct {
	buckets [nbuckets]bucket
}

// NewTable creates an empty event table.
func NewTable() *Table { return &Table{} }

// defaultTable is the global event table used by the package-level wrappers.
var defaultTable = NewTable()

func (tb *Table) bucketOf(e Event) *bucket {
	h := maphash.Comparable(seed, e)
	return &tb.buckets[h%nbuckets]
}

// AssertWait declares that t intends to wait for event e. It must be called
// before releasing the locks that protect the condition being waited for;
// the subsequent ThreadBlock then blocks only if no wakeup has occurred in
// the interim. Asserting while a previous assertion is still pending is a
// protocol violation (the paper notes a second assert_wait between an
// assert_wait and its thread_block "is fatal") and panics.
func (tb *Table) AssertWait(t *Thread, e Event) {
	simhook.Yield(simhook.SchedAssertWait, e)
	if e == nil {
		// Null event: the thread can only be resumed by ClearWait.
		t.mu.Lock()
		if t.state != running {
			t.mu.Unlock()
			panic("sched: assert_wait while already waiting: " + t.name)
		}
		t.state = waiting
		t.event = nil
		t.mu.Unlock()
		return
	}
	b := tb.bucketOf(e)
	b.mu.Lock()
	t.mu.Lock()
	if t.state != running {
		t.mu.Unlock()
		b.mu.Unlock()
		panic("sched: assert_wait while already waiting: " + t.name)
	}
	t.state = waiting
	t.event = e
	t.mu.Unlock()
	if b.waiters == nil {
		b.waiters = make(map[Event][]*Thread)
	}
	b.waiters[e] = append(b.waiters[e], t)
	b.mu.Unlock()
}

// ThreadBlock parks the thread until its asserted event occurs. If the
// event already occurred (between AssertWait and this call), it returns
// NotWaiting immediately; otherwise the returned WaitResult says whether
// the thread was awakened by its event or restarted by ClearWait.
//
// Calling ThreadBlock while holding a checked simple lock panics: the paper
// makes holding a spin lock across a blocking operation a fatal design
// violation, and this substrate enforces it.
func (tb *Table) ThreadBlock(t *Thread) WaitResult {
	if t.spinHeld.Load() != 0 {
		panic("sched: thread_block while holding a simple lock: " + t.name)
	}
	t.mu.Lock()
	if t.state != waiting {
		// Wakeup (or clear_wait) beat us here: no context switch.
		t.mu.Unlock()
		t.shortBlocks.Add(1)
		return NotWaiting
	}
	t.state = blocked
	t.blocks.Add(1)
	if simhook.Enabled() {
		// Under the machsim harness the thread parks on the harness's own
		// scheduler instead of the host condition variable, so the context
		// switch is a deterministic scheduling decision. resume() marks
		// the thread runnable via simhook.Unblock; Block returns once the
		// harness actually selects it again. No wakeup can be lost: state
		// is already `blocked`, so a resume between the unlock below and
		// the park is delivered by the harness, which serializes them.
		t.mu.Unlock()
		simhook.Note(simhook.SchedBlocked, t, 0)
		if simhook.Block(t) {
			t.mu.Lock()
			r := t.result
			t.mu.Unlock()
			return r
		}
		t.mu.Lock() // not a harness thread: fall through to host blocking
	}
	for t.state == blocked {
		t.cond.Wait()
	}
	r := t.result
	t.mu.Unlock()
	return r
}

// ThreadWakeup makes every thread waiting on event e runnable. Waiters that
// have asserted but not yet blocked are simply marked runnable, so their
// ThreadBlock will not block — the race-free half of the split protocol.
// It returns the number of threads awakened.
func (tb *Table) ThreadWakeup(e Event) int {
	return tb.wakeup(e, false)
}

// ThreadWakeupOne wakes at most one waiter on event e, returning 1 if a
// thread was awakened. Mach's thread_wakeup_one; used by lock hand-off
// paths that know a single waiter can make progress.
func (tb *Table) ThreadWakeupOne(e Event) int {
	return tb.wakeup(e, true)
}

func (tb *Table) wakeup(e Event, one bool) int {
	if e == nil {
		panic("sched: thread_wakeup on nil event")
	}
	simhook.Yield(simhook.SchedWakeup, e)
	b := tb.bucketOf(e)
	b.mu.Lock()
	list := b.waiters[e]
	if len(list) == 0 {
		b.mu.Unlock()
		return 0
	}
	var woken int
	if one {
		t := list[0]
		if len(list) == 1 {
			delete(b.waiters, e)
		} else {
			b.waiters[e] = list[1:]
		}
		tb.resume(t, e, Awakened)
		woken = 1
	} else {
		delete(b.waiters, e)
		for _, t := range list {
			tb.resume(t, e, Awakened)
		}
		woken = len(list)
	}
	b.mu.Unlock()
	// A wakeup that made threads runnable is a preemption point, as in Mach:
	// without this, a waker busy-looping on few host cores can hold the
	// processor for a full preemption quantum per pass while every thread it
	// awakened sits runnable but unscheduled — on GOMAXPROCS=1 that starves
	// waiters into wait-timeout territory even though no wakeup was lost.
	runtime.Gosched()
	return woken
}

// resume marks t runnable with the given result. The caller holds the
// bucket lock for t's asserted event, so t cannot concurrently re-assert on
// this event.
func (tb *Table) resume(t *Thread, e Event, r WaitResult) {
	t.mu.Lock()
	if t.event == e && t.state != running {
		was := t.state
		t.state = running
		t.event = nil
		t.result = r
		if was == blocked {
			wakeBlocked(t, r)
		}
	}
	t.mu.Unlock()
}

// wakeBlocked delivers the resume to a thread parked in ThreadBlock: via
// the machsim harness when the thread is under its control, else through
// the host condition variable. Caller holds t.mu.
func wakeBlocked(t *Thread, r WaitResult) {
	simhook.Note(simhook.SchedUnblocked, t, int64(r))
	if !simhook.Unblock(t) {
		t.cond.Signal()
	}
}

// ClearWait resumes a specific thread regardless of the event it is waiting
// for (thread-based event occurrence, Mach's clear_wait). The thread's
// ThreadBlock returns Restarted. ClearWait on a thread that is not waiting
// is a no-op, returning false.
func (tb *Table) ClearWait(t *Thread) bool {
	simhook.Yield(simhook.SchedClearWait, t)
	for {
		t.mu.Lock()
		if t.state == running {
			t.mu.Unlock()
			return false
		}
		e := t.event
		if e == nil {
			// Null-event wait: no table entry to remove.
			was := t.state
			t.state = running
			t.result = Restarted
			if was == blocked {
				wakeBlocked(t, Restarted)
			}
			t.mu.Unlock()
			return true
		}
		t.mu.Unlock()

		// Lock ordering is bucket then thread, so re-take in order and
		// re-validate; the thread may have been awakened meanwhile.
		b := tb.bucketOf(e)
		b.mu.Lock()
		t.mu.Lock()
		if t.state == running || t.event != e {
			t.mu.Unlock()
			b.mu.Unlock()
			continue // state changed under us; retry
		}
		list := b.waiters[e]
		for i, w := range list {
			if w == t {
				list = append(list[:i], list[i+1:]...)
				break
			}
		}
		if len(list) == 0 {
			delete(b.waiters, e)
		} else {
			b.waiters[e] = list
		}
		was := t.state
		t.state = running
		t.event = nil
		t.result = Restarted
		if was == blocked {
			wakeBlocked(t, Restarted)
		}
		t.mu.Unlock()
		b.mu.Unlock()
		return true
	}
}

// ThreadSleep releases a lock and waits for event e, atomically with
// respect to wakeups on e: the common "release a single lock to wait for an
// event" pattern that Mach packages as thread_sleep. unlock is called after
// the wait is asserted, so a wakeup occurring while the lock is being
// released is not lost.
func (tb *Table) ThreadSleep(t *Thread, e Event, unlock func()) WaitResult {
	tb.AssertWait(t, e)
	unlock()
	return tb.ThreadBlock(t)
}

// Waiting reports whether any thread is currently waiting on event e.
func (tb *Table) Waiting(e Event) bool {
	b := tb.bucketOf(e)
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.waiters[e]) > 0
}

// Package-level wrappers over the default global table. These are the
// spellings the rest of the kernel uses, matching the paper's names.

// AssertWait declares t will wait for e (on the global table).
func AssertWait(t *Thread, e Event) { defaultTable.AssertWait(t, e) }

// ThreadBlock parks t until its asserted event occurs (global table).
func ThreadBlock(t *Thread) WaitResult { return defaultTable.ThreadBlock(t) }

// ThreadWakeup wakes all waiters on e (global table).
func ThreadWakeup(e Event) int { return defaultTable.ThreadWakeup(e) }

// ThreadWakeupOne wakes at most one waiter on e (global table).
func ThreadWakeupOne(e Event) int { return defaultTable.ThreadWakeupOne(e) }

// ClearWait resumes t regardless of its event (global table).
func ClearWait(t *Thread) bool { return defaultTable.ClearWait(t) }

// ThreadSleep releases a lock and waits for e atomically (global table).
func ThreadSleep(t *Thread, e Event, unlock func()) WaitResult {
	return defaultTable.ThreadSleep(t, e, unlock)
}

// Waiting reports whether e has waiters (global table).
func Waiting(e Event) bool { return defaultTable.Waiting(e) }
