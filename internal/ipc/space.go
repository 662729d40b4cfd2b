package ipc

import (
	"errors"

	"machlock/internal/core/cxlock"
	"machlock/internal/core/splock"
	"machlock/internal/sched"
	"machlock/internal/trace"
)

// classSpace aggregates the name-space translation locks of every task.
var classSpace = trace.NewClass("ipc", "ipc.space", trace.KindComplex)

// Name is a task-local port name (a small integer in user space).
type Name uint32

// ErrBadName is returned when a name has no entry in the space.
var ErrBadName = errors.New("ipc: no such port name")

// Space is a per-task port name space: the translation table from names to
// ports. Each entry holds a counted reference to its port; Translate clones
// that reference for the caller — "Executing code performs a name to object
// translation. This effectively clones the object reference held by the
// name translation data structures." (Section 8.)
//
// The space corresponds to the task's second lock, the one that "allows
// task operations and ipc translations to occur in parallel" (Section 5).
// Translation is overwhelmingly the hot operation and mutates nothing in
// the table, so the space uses a reader-biased complex lock: concurrent
// translators publish themselves in the lock's visible-readers table and
// run fully in parallel, while the rare Insert/Remove revokes the bias and
// takes the lock for writing. Callers pass their thread identity so the
// bias fast path can attribute slots; nil is accepted and simply takes the
// interlocked slow path.
type Space struct {
	lock  cxlock.Lock
	table map[Name]*Port
	next  Name
}

// NewSpace creates an empty name space.
func NewSpace() *Space {
	s := &Space{table: make(map[Name]*Port), next: 1}
	s.lock.InitWith(cxlock.Options{
		ReaderBias: true, // translations dominate; see type comment
		Name:       "ipc.space",
		Class:      classSpace,
		// The interlock is what a bias revocation drain serializes on
		// (one writer, every slow-path reader); the queue algorithm keeps
		// that drain FIFO instead of a TTAS scramble.
		Interlock: splock.Queue,
	})
	return s
}

// Insert registers a port under a fresh name, cloning a reference into the
// table. The caller keeps its own reference.
func (s *Space) Insert(t *sched.Thread, p *Port) Name {
	p.TakeRef()
	s.lock.Write(t)
	n := s.next
	s.next++
	s.table[n] = p
	s.lock.Done(t)
	return n
}

// Translate resolves a name to its port, cloning a reference for the
// caller. The table's own reference (held continuously under the space
// lock) guarantees the port cannot vanish mid-clone; a read hold pins the
// table, so translators proceed in parallel.
func (s *Space) Translate(t *sched.Thread, n Name) (*Port, error) {
	s.lock.Read(t)
	p, ok := s.table[n]
	if !ok {
		s.lock.Done(t)
		return nil, ErrBadName
	}
	// Clone while the space lock pins the table's reference. TakeRef is
	// one atomic increment, safe under a shared hold.
	p.TakeRef()
	s.lock.Done(t)
	return p, nil
}

// Remove deletes a name, releasing the table's reference to the port.
func (s *Space) Remove(t *sched.Thread, n Name) error {
	s.lock.Write(t)
	p, ok := s.table[n]
	if !ok {
		s.lock.Done(t)
		return ErrBadName
	}
	delete(s.table, n)
	s.lock.Done(t)
	p.Release(nil)
	return nil
}

// Len returns the number of live names.
func (s *Space) Len(t *sched.Thread) int {
	s.lock.Read(t)
	defer s.lock.Done(t)
	return len(s.table)
}

// DestroyAll removes every name, releasing all table references; used by
// task termination.
func (s *Space) DestroyAll(t *sched.Thread) {
	s.lock.Write(t)
	ports := make([]*Port, 0, len(s.table))
	for n, p := range s.table {
		ports = append(ports, p)
		delete(s.table, n)
	}
	s.lock.Done(t)
	for _, p := range ports {
		p.Release(nil)
	}
}

// Stats exposes the space lock's accounting (biased reads, revocations)
// for tools and tests.
func (s *Space) Stats() cxlock.Stats { return s.lock.Stats() }
