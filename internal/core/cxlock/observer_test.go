package cxlock

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"machlock/internal/sched"
)

// auditObserver checks the Observer contract as events arrive: holds form
// a per-(thread, lock) multiset that never goes negative, upgrades and
// downgrades leave it unchanged, and Waiting/DoneWaiting bracket properly
// (a thread is never mid-wait at the moment it acquires).
type auditObserver struct {
	mu    sync.Mutex
	holds map[*sched.Thread]int
	waits map[*sched.Thread]int // waiting minus doneWaiting; 0 or 1
	// bracketed counts acquisitions that were preceded by a completed
	// Waiting/DoneWaiting bracket for the acquiring thread.
	bracketed int
	waited    map[*sched.Thread]bool
	errs      []string
}

func newAuditObserver() *auditObserver {
	return &auditObserver{
		holds:  make(map[*sched.Thread]int),
		waits:  make(map[*sched.Thread]int),
		waited: make(map[*sched.Thread]bool),
	}
}

func (a *auditObserver) failf(format string, args ...any) {
	a.errs = append(a.errs, fmt.Sprintf(format, args...))
}

func (a *auditObserver) Acquired(l *Lock, t *sched.Thread) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.waits[t] != 0 {
		a.failf("%s acquired while mid-wait", t.Name())
	}
	if a.waited[t] {
		a.bracketed++
		a.waited[t] = false
	}
	a.holds[t]++
}

func (a *auditObserver) Released(l *Lock, t *sched.Thread) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.holds[t]--
	if a.holds[t] < 0 {
		a.failf("%s hold count went negative", t.Name())
	}
}

func (a *auditObserver) Waiting(l *Lock, t *sched.Thread) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.waits[t]++
	if a.waits[t] != 1 {
		a.failf("%s nested Waiting (count %d)", t.Name(), a.waits[t])
	}
}

func (a *auditObserver) DoneWaiting(l *Lock, t *sched.Thread) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.waits[t]--
	if a.waits[t] != 0 {
		a.failf("%s DoneWaiting without Waiting", t.Name())
	}
	a.waited[t] = true
}

// check asserts the end-of-run invariants: all brackets closed, all holds
// released, and no violation was recorded mid-run.
func (a *auditObserver) check(t *testing.T) {
	t.Helper()
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, e := range a.errs {
		t.Error(e)
	}
	for th, n := range a.holds {
		if n != 0 {
			t.Errorf("%s ends with %d unreleased holds", th.Name(), n)
		}
	}
	for th, n := range a.waits {
		if n != 0 {
			t.Errorf("%s ends mid-wait (%d)", th.Name(), n)
		}
	}
}

// TestObserverWaitBracketsContendedAcquisition pins the bracket contract:
// a contended acquisition produces Waiting then DoneWaiting then Acquired
// for the waiting thread, and the writer that blocked it sees none of the
// wait events.
func TestObserverWaitBracketsContendedAcquisition(t *testing.T) {
	rec := newAuditObserver()
	AddObserver(rec)
	defer RemoveObserver(rec)

	l := NewWith(Options{Sleep: true})
	w := sched.New("writer")
	l.Write(w)
	readers := make([]*sched.Thread, 3)
	for i := range readers {
		readers[i] = sched.Go(fmt.Sprintf("reader%d", i), func(self *sched.Thread) {
			l.Read(self)
			l.Done(self)
		})
	}
	// Wait until every reader is parked on the lock, so each acquisition
	// is genuinely contended.
	deadline := time.Now().Add(2 * time.Second)
	for {
		rec.mu.Lock()
		parked := 0
		for _, n := range rec.waits {
			parked += n
		}
		rec.mu.Unlock()
		if parked == len(readers) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readers never parked")
		}
		time.Sleep(time.Millisecond)
	}
	l.Done(w)
	for _, r := range readers {
		r.Join()
	}
	rec.check(t)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.bracketed != len(readers) {
		t.Fatalf("bracketed acquisitions = %d, want %d", rec.bracketed, len(readers))
	}
	if rec.waited[w] {
		t.Fatal("uncontended writer saw wait events")
	}
}

// TestObserverHoldBalanceAcrossUpgradesConcurrent hammers one sleepable
// lock from many threads through every mode transition — read, write,
// upgrade (including failed upgrades, which release the hold), downgrade,
// try variants — and checks the hold multiset stays balanced. Run with
// -race: the audit observer also makes the callback paths themselves
// racy if the lock invokes them under insufficient ordering.
func TestObserverHoldBalanceAcrossUpgradesConcurrent(t *testing.T) {
	rec := newAuditObserver()
	AddObserver(rec)
	defer RemoveObserver(rec)

	l := NewWith(Options{Sleep: true})
	const threads = 8
	const rounds = 300
	ths := make([]*sched.Thread, threads)
	for i := range ths {
		ths[i] = sched.Go(fmt.Sprintf("mix%d", i), func(self *sched.Thread) {
			for n := 0; n < rounds; n++ {
				switch n % 5 {
				case 0:
					l.Read(self)
					l.Done(self)
				case 1:
					l.Write(self)
					l.WriteToRead(self) // downgrade: hold count unchanged
					l.Done(self)
				case 2:
					l.Read(self)
					if l.ReadToWrite(self) {
						// Upgrade failed: the read hold is already
						// released; nothing more to undo.
						continue
					}
					l.Done(self)
				case 3:
					if l.TryWrite(self) {
						l.Done(self)
					}
				case 4:
					if l.TryRead(self) {
						if l.TryReadToWrite(self) {
							l.Done(self)
						} else {
							l.Done(self)
						}
					}
				}
			}
		})
	}
	for _, th := range ths {
		th.Join()
	}
	rec.check(t)
}
