package ipc

import (
	"errors"

	"machlock/internal/core/object"
	"machlock/internal/sched"
)

// PortSet groups ports so one receiver can wait on all of them — Mach's
// port sets, the multiplexing primitive servers use to serve many objects
// with one message loop. A port belongs to at most one set; membership is
// a pair of counted references (Section 8), and the set is itself a
// deactivatable kernel object.
type PortSet struct {
	object.Object
	members []*Port
	rr      int // round-robin scan start, so no member starves
}

// Errors returned by port-set operations.
var (
	ErrAlreadyMember = errors.New("ipc: port already belongs to a port set")
	ErrNotMember     = errors.New("ipc: port is not a member of this set")
	ErrSetDead       = errors.New("ipc: port set is dead")
)

// NewPortSet creates an active, empty port set with one reference.
func NewPortSet(name string) *PortSet {
	ps := &PortSet{}
	ps.Init(name)
	return ps
}

// Add makes p a member of the set. Lock ordering is set, then port —
// the same order Receive uses.
func (ps *PortSet) Add(p *Port) error {
	ps.Lock()
	if err := ps.CheckActive(); err != nil {
		ps.Unlock()
		return ErrSetDead
	}
	p.Lock()
	if p.pset != nil {
		p.Unlock()
		ps.Unlock()
		return ErrAlreadyMember
	}
	p.pset = ps
	ps.TakeRef() // the port's set pointer
	p.TakeRef()  // the set's member pointer
	ps.members = append(ps.members, p)
	p.Unlock()
	ps.Unlock()
	return nil
}

// Remove detaches p from the set, releasing the membership references.
func (ps *PortSet) Remove(p *Port) error {
	ps.Lock()
	p.Lock()
	if p.pset != ps {
		p.Unlock()
		ps.Unlock()
		return ErrNotMember
	}
	p.pset = nil
	for i, m := range ps.members {
		if m == p {
			ps.members = append(ps.members[:i], ps.members[i+1:]...)
			break
		}
	}
	p.Unlock()
	ps.Unlock()
	// Release outside the locks (releases may destroy).
	p.Release(nil)
	ps.Release(nil)
	return nil
}

// Members returns the current member count.
func (ps *PortSet) Members() int {
	ps.Lock()
	defer ps.Unlock()
	return len(ps.members)
}

// Receive dequeues the next message from any member port, blocking until
// one arrives or the set dies. Members are scanned round-robin so a busy
// port cannot starve the others.
func (ps *PortSet) Receive(t *sched.Thread) (*Message, error) {
	for {
		ps.Lock()
		if err := ps.CheckActive(); err != nil {
			ps.Unlock()
			return nil, ErrSetDead
		}
		n := len(ps.members)
		for i := 0; i < n; i++ {
			p := ps.members[(ps.rr+i)%n]
			if msg, err := p.TryReceive(); err == nil {
				ps.rr = (ps.rr + i + 1) % n
				ps.Unlock()
				return msg, nil
			}
		}
		// Nothing queued anywhere: wait for a send to any member (their
		// Send wakes the set's event) or for the set to die.
		sched.AssertWait(t, sched.Event(ps))
		ps.Unlock()
		sched.ThreadBlock(t)
	}
}

// Destroy deactivates the set, detaches all members, and wakes blocked
// receivers; the structure survives while references remain.
func (ps *PortSet) Destroy() {
	ps.Lock()
	first := ps.Deactivate()
	var members []*Port
	if first {
		members = ps.members
		ps.members = nil
	}
	ps.Unlock()
	if first {
		for _, p := range members {
			p.Lock()
			if p.pset == ps {
				p.pset = nil
			}
			p.Unlock()
			p.Release(nil)  // set's member reference
			ps.Release(nil) // port's set reference
		}
		sched.ThreadWakeup(sched.Event(ps))
	}
	ps.Release(nil)
}
