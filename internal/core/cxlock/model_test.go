package cxlock

import (
	"testing"
	"testing/quick"

	"machlock/internal/sched"
)

// refModel is an executable specification of the complex lock's sequential
// semantics, written directly from the paper's Appendix B text. The
// property tests drive the real lock and the model through identical
// single-threaded operation sequences and demand identical outcomes.
type refModel struct {
	readers     int
	writeHeld   bool
	upgradeHeld bool // write standing obtained via upgrade
	recursive   bool // recursion enabled for "the" thread
	depth       int
	// myReads counts the single test thread's read holds (the model only
	// tracks one thread, which is all a sequential sequence has).
	myReads int
}

func (m *refModel) writeStanding() bool { return m.writeHeld || m.upgradeHeld }

func (m *refModel) tryRead() bool {
	// Sequential: no competing writers exist; a try-read fails only if
	// the single thread itself holds write standing without being the
	// recursive holder (then want_write blocks it)… but a same-thread
	// re-read while it holds write is exactly what the recursive option
	// gates. Without recursion, TryRead while we hold write must fail.
	if m.writeStanding() && !m.recursive {
		return false
	}
	m.readers++
	m.myReads++
	return true
}

func (m *refModel) tryWrite() bool {
	if m.recursive && m.writeStanding() {
		m.depth++
		return true
	}
	if m.writeStanding() || m.readers > 0 {
		return false
	}
	m.writeHeld = true
	return true
}

func (m *refModel) tryUpgrade() bool {
	if m.myReads == 0 {
		return false // not legal to attempt; caller filters
	}
	if m.recursive && m.writeStanding() {
		m.readers--
		m.myReads--
		m.depth++
		return true
	}
	// Solo: no other readers, no pending upgrade → succeeds.
	m.readers--
	m.myReads--
	m.upgradeHeld = true
	return true
}

func (m *refModel) downgrade() bool {
	if !m.writeStanding() {
		return false // not legal; caller filters
	}
	m.readers++
	m.myReads++
	if m.recursive && m.depth > 0 {
		m.depth--
	} else if m.upgradeHeld {
		m.upgradeHeld = false
	} else {
		m.writeHeld = false
	}
	return true
}

func (m *refModel) done() bool {
	switch {
	case m.readers > 0:
		m.readers--
		m.myReads--
	case m.recursive && m.depth > 0:
		m.depth--
	case m.upgradeHeld:
		m.upgradeHeld = false
	case m.writeHeld:
		m.writeHeld = false
	default:
		return false // not legal; caller filters
	}
	return true
}

func (m *refModel) held() bool {
	return m.readers > 0 || m.writeStanding() || m.depth > 0
}

// TestModelEquivalenceQuick drives random legal operation sequences
// through the real lock and the reference model, comparing every
// observable outcome.
func TestModelEquivalenceQuick(t *testing.T) {
	type op uint8
	const (
		opTryRead op = iota
		opTryWrite
		opTryUpgrade
		opDowngrade
		opDone
		opSetRecursive
		opClearRecursive
		nOps
	)
	f := func(raw []uint8) bool {
		l := NewWith(Options{Recursive: true})
		th := sched.New("t")
		m := &refModel{}
		for _, r := range raw {
			switch op(r % uint8(nOps)) {
			case opTryRead:
				got := l.TryRead(th)
				want := m.tryRead()
				if got != want {
					t.Logf("TryRead: got %v want %v (model %+v)", got, want, m)
					return false
				}
				if got != want || (got && l.Readers() != m.readers) {
					return false
				}
				if !got {
					// Model said no but we mutated nothing; ok.
					continue
				}
			case opTryWrite:
				got := l.TryWrite(th)
				want := m.tryWrite()
				if got != want {
					t.Logf("TryWrite: got %v want %v (model %+v)", got, want, m)
					return false
				}
			case opTryUpgrade:
				if m.myReads == 0 {
					continue // upgrading without a read hold is illegal
				}
				// Upgrading while holding FURTHER reads of one's own
				// self-deadlocks (the upgrade waits for "other" readers
				// that are the caller itself) — the same trap as any
				// same-thread re-acquisition without the Recursive
				// option. Only the legal single-hold upgrade is modeled.
				if !m.writeStanding() && m.myReads != 1 {
					continue
				}
				// In a recursive-after-downgrade state the real lock
				// refuses; skip that corner (covered by directed tests).
				if m.recursive && !m.writeStanding() {
					continue
				}
				got := l.TryReadToWrite(th)
				want := m.tryUpgrade()
				if got != want {
					t.Logf("TryReadToWrite: got %v want %v (model %+v)", got, want, m)
					return false
				}
			case opDowngrade:
				if !m.writeStanding() {
					continue
				}
				l.WriteToRead(th)
				m.downgrade()
			case opDone:
				if !m.held() {
					continue
				}
				// "lock_clear_recursive should be called by the caller
				// of lock_set_recursive before releasing the lock":
				// dropping the final hold with recursion still set is a
				// protocol violation, so legal sequences never do it.
				holds := m.readers + m.depth
				if m.writeStanding() {
					holds++
				}
				if m.recursive && holds <= 1 {
					continue
				}
				l.Done(th)
				if !m.done() {
					return false
				}
			case opSetRecursive:
				if !m.writeStanding() || m.recursive {
					continue
				}
				l.SetRecursive(th)
				m.recursive = true
			case opClearRecursive:
				// Clearing recursion with recursive acquisitions still
				// outstanding — write depth OR reads taken through the
				// holder bypass — is the protocol violation the paper's
				// "before releasing the lock" rule forbids.
				if !m.recursive || m.depth != 0 || m.myReads != 0 {
					continue
				}
				l.ClearRecursive(th)
				m.recursive = false
			}
			// Cross-check observable state after every step.
			if l.Readers() != m.readers {
				t.Logf("readers: lock %d model %d", l.Readers(), m.readers)
				return false
			}
			wantWrite := m.writeStanding() && m.readers == 0
			if l.HeldForWrite() != wantWrite {
				t.Logf("heldForWrite: lock %v model %v (%+v)", l.HeldForWrite(), wantWrite, m)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
