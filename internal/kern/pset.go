package kern

import (
	"errors"
	"fmt"

	"machlock/internal/core/cxlock"
	"machlock/internal/core/object"
	"machlock/internal/hw"
	"machlock/internal/sched"
	"machlock/internal/trace"
)

// Observability classes for the processor-allocation subsystem.
var (
	classProcessor   = trace.NewClass("kern", "kern.processor", trace.KindObject)
	classPset        = trace.NewClass("kern", "kern.pset", trace.KindObject)
	classPsetMembers = trace.NewClass("kern", "kern.pset.members", trace.KindComplex)
	classAssign      = trace.NewClass("kern", "kern.host.assign", trace.KindComplex)
)

// Processor sets are the paper's cited example of a subsystem designed on
// top of its primitives after the fact: "The locking primitives have been
// extensively used in subsequently designed kernel subsystems (e.g.,
// processor allocation [3])." A processor set is a group of processors
// that tasks can be assigned to; processors and tasks migrate between sets
// under the set locks, and destroying a set migrates everything to the
// default set — another instance of the Section 10 active-termination
// shape.

// ErrDefaultSet is returned by operations forbidden on the default set.
var ErrDefaultSet = errors.New("kern: operation not allowed on the default processor set")

// Processor is the kernel object for one (simulated) CPU.
type Processor struct {
	object.Object
	cpu *hw.CPU
	set *ProcessorSet // current assignment; the pointer is a counted ref
}

// CPU returns the underlying simulated processor.
func (p *Processor) CPU() *hw.CPU { return p.cpu }

// AssignedSet returns the processor's current set (borrowed pointer,
// covered by the processor's reference to it).
func (p *Processor) AssignedSet() *ProcessorSet {
	p.Lock()
	defer p.Unlock()
	return p.set
}

// ProcessorSet is a named group of processors with assigned tasks.
//
// The membership slices live under their own reader-biased complex lock
// (members), separate from the object lock, so scheduler-style iteration
// over a set's processors and tasks scales with readers instead of
// serializing on the set's object lock. Lock order: object lock before
// members.
type ProcessorSet struct {
	object.Object
	host      *Host
	isDefault bool

	members cxlock.Lock
	procs   []*Processor
	tasks   []*Task
	// draining marks that Destroy has swept (or is sweeping) the task
	// list. Set and tested under members.Write: it is the liveness gate a
	// racing AssignTask re-checks once it wins the members lock, since the
	// object lock cannot be held across the (sleepable) members lock.
	draining bool
}

// Host owns the processor sets of one machine: the default set, the
// machine's processors, and the assignment arbitration lock. Processor
// reassignment locks two sets; instead of ordering set locks by address
// each time, the host serializes reassignments with a single assignment
// lock — the "order by type, and a designated arbiter above equal types"
// convention of Section 5 in its simplest form. The lock is a sleepable
// complex lock held in write mode: reassignment releases references and
// takes the members write lock, both of which may block, so a simple lock
// here would violate the no-blocking-while-held rule.
type Host struct {
	machine    *hw.Machine
	assignLock cxlock.Lock
	defaultSet *ProcessorSet
	procs      []*Processor
}

// NewHost builds the host state for a machine: a default processor set
// containing a Processor per simulated CPU.
func NewHost(m *hw.Machine) *Host {
	h := &Host{machine: m}
	h.assignLock.InitWith(cxlock.Options{
		Sleep: true, // reassignment drops references, which may block
		// Assignment holds are almost always short (relink two lists);
		// spin a bounded window before paying a block/wakeup pair.
		SpinPark: 64,
		Name:     "kern.host.assign",
		Class:    classAssign,
	})
	h.defaultSet = h.newSet("default", true)
	for i := 0; i < m.NCPU(); i++ {
		p := &Processor{cpu: m.CPU(i)}
		p.Init(fmt.Sprintf("cpu%d", i))
		p.SetClass(classProcessor)
		h.procs = append(h.procs, p)
		h.attach(p, h.defaultSet)
	}
	return h
}

func (h *Host) newSet(name string, isDefault bool) *ProcessorSet {
	s := &ProcessorSet{host: h, isDefault: isDefault}
	s.Init(name)
	s.SetClass(classPset)
	s.members.InitWith(cxlock.Options{
		ReaderBias: true, // iteration dominates; reassignment is rare
		Name:       "kern.pset.members",
		Class:      classPsetMembers,
	})
	return s
}

// DefaultSet returns the host's default processor set.
func (h *Host) DefaultSet() *ProcessorSet { return h.defaultSet }

// Processor returns processor i.
func (h *Host) Processor(i int) *Processor { return h.procs[i] }

// NewSet creates an empty, destroyable processor set.
func (h *Host) NewSet(name string) *ProcessorSet { return h.newSet(name, false) }

// attach links p into set (no prior set). Assignment lock held or
// construction-time single-threaded.
func (h *Host) attach(p *Processor, set *ProcessorSet) {
	set.Lock()
	set.TakeRef() // the processor's set pointer
	set.Unlock()
	// The members write lock may sleep, so it is taken after the object
	// lock is dropped; the assignment lock (or construction) already
	// serializes membership changes.
	set.members.Write(nil)
	set.procs = append(set.procs, p)
	set.members.Done(nil)
	p.Lock()
	p.set = set
	p.TakeRef() // the set's member pointer to the processor
	p.Unlock()
}

// Name-level invariants: every processor is in exactly one set; every
// membership direction carries a reference.

// AssignProcessor moves p into set s. Fails if s is deactivated. Moving
// into the set already holding p is a no-op.
func (h *Host) AssignProcessor(p *Processor, s *ProcessorSet) error {
	h.assignLock.Write(nil)
	defer h.assignLock.Done(nil)
	return h.assignProcessorLocked(p, s)
}

// assignProcessorLocked is AssignProcessor with h.assignLock already held
// in write mode. Destroy calls it directly so the lock covers its whole
// migration phase, not just each individual reassignment.
func (h *Host) assignProcessorLocked(p *Processor, s *ProcessorSet) error {
	// Settle liveness and take the destination reference in one hold, so
	// a failure needs no backout. The assignment lock is held from this
	// check through the attach below, and Destroy holds it across its
	// entire processor-migration phase: a destroyer either runs before us
	// (this check fails) or after us (its sweep finds p in s.procs and
	// migrates it back out) — the attach is never stranded.
	s.Lock()
	if err := s.CheckActive(); err != nil {
		s.Unlock()
		return err
	}
	s.TakeRef() // p's set pointer
	s.Unlock()

	p.Lock()
	old := p.set
	p.TakeRef() // migration reference: covers p across the blocking section
	p.Unlock()
	if old == s {
		p.Release(nil) // the migration reference
		s.Release(nil) // the set pointer p already holds
		return nil
	}

	// Detach from the old set. The membership slice is under the
	// members lock; its Write drains any biased iterators first. Only the
	// (sleepable) assignment lock is held across it.
	old.members.Write(nil)
	for i, x := range old.procs {
		if x == p {
			old.procs = append(old.procs[:i], old.procs[i+1:]...)
			break
		}
	}
	old.members.Done(nil)
	p.Release(nil) // the old set's member reference to p

	// Attach to the new set: both membership pointers are counted
	// references (Section 8, inter-object pointers).
	s.members.Write(nil)
	s.procs = append(s.procs, p)
	s.members.Done(nil)
	p.Lock()
	old = p.set // re-read under the relock, per the no-caching rule
	p.set = s
	p.TakeRef() // s's member pointer to p
	p.Unlock()
	old.Release(nil) // p's reference to the old set
	p.Release(nil)   // the migration reference
	return nil
}

// AssignTask assigns a task to the set (tasks start unassigned in this
// model). The set holds a reference to the task and vice versa is not
// needed — tasks do not point back.
func (s *ProcessorSet) AssignTask(t *Task) error {
	s.Lock()
	if err := s.CheckActive(); err != nil {
		s.Unlock()
		return err
	}
	s.Unlock()
	t.TakeRef()
	// Liveness is re-decided under the members write lock, which cannot be
	// taken with the object lock held (it may sleep): Destroy deactivates
	// first and only then sets draining under its own write hold, so
	// whichever of append and drain wins this lock settles the task's
	// owner — the drain sweeps tasks appended before it, and an assigner
	// arriving after it backs out.
	s.members.Write(nil)
	if s.draining {
		s.members.Done(nil)
		t.Release(nil)
		return ErrTerminated
	}
	s.tasks = append(s.tasks, t)
	s.members.Done(nil)
	return nil
}

// Processors returns a snapshot of the set's processors. cur is the
// iterating thread: with it, concurrent snapshots ride the members lock's
// reader-bias fast path and never touch the set's object lock.
func (s *ProcessorSet) Processors(cur *sched.Thread) []*Processor {
	s.members.Read(cur)
	defer s.members.Done(cur)
	out := make([]*Processor, len(s.procs))
	copy(out, s.procs)
	return out
}

// TaskCount returns the number of assigned tasks.
func (s *ProcessorSet) TaskCount(cur *sched.Thread) int {
	s.members.Read(cur)
	defer s.members.Done(cur)
	return len(s.tasks)
}

// Destroy deactivates the set and migrates its processors and tasks to the
// default set, per the processor-allocation design. The default set cannot
// be destroyed. Exactly one concurrent destroyer wins.
func (s *ProcessorSet) Destroy() error {
	if s.isDefault {
		return ErrDefaultSet
	}
	s.Lock()
	won := s.Deactivate()
	s.Unlock()
	if !won {
		return ErrTerminated
	}

	// Migrate processors. The host assignment lock is held across the
	// whole phase, not per reassignment: an assigner holds it from its
	// liveness check through its attach, so once this holds the lock an
	// empty procs list really means no processor is inbound — a racer
	// that passed CheckActive before the deactivate above has already
	// completed its attach and is swept here, and any later assigner
	// serializes behind this phase and fails CheckActive.
	s.host.assignLock.Write(nil)
	for {
		s.members.Read(nil)
		if len(s.procs) == 0 {
			s.members.Done(nil)
			break
		}
		p := s.procs[0]
		s.members.Done(nil)
		if err := s.host.assignProcessorLocked(p, s.host.defaultSet); err != nil {
			// The destination is the indestructible default set, so the
			// liveness check — the only failure — cannot fire. Returning
			// the error would leave the set half-destroyed (deactivated,
			// tasks undrained, creator reference unreleased).
			panic("kern: pset destroy: migration to default set failed: " + err.Error())
		}
	}
	s.host.assignLock.Done(nil)
	// The set is deactivated, so no new assignment passes AssignTask's
	// object-lock check; one already past it races this drain, and the
	// draining flag — set and tested under the members write lock —
	// decides who owns each task: the drain sweeps everything appended
	// before it, the assigner backs out after it.
	s.members.Write(nil)
	s.draining = true
	tasks := s.tasks
	s.tasks = nil
	s.members.Done(nil)

	// Move the tasks to the default set; release this set's references.
	for _, t := range tasks {
		if err := s.host.defaultSet.AssignTask(t); err == nil {
			t.Release(nil)
		} else {
			t.Release(nil)
		}
	}
	// Creator's reference: the structure survives while others reference
	// it (e.g. a processor mid-reassignment elsewhere).
	s.Release(nil)
	return nil
}
