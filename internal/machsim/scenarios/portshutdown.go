package scenarios

import (
	"machlock/internal/core/object"
	"machlock/internal/ipc"
	"machlock/internal/machsim"
	"machlock/internal/sched"
)

// kobj is a minimal kernel object behind a port: the embedded object base
// supplies the lock, reference count, and destruction tracking.
type kobj struct {
	object.Object
}

// PortShutdownScenario races a port's shutdown against a concurrent
// translation of that port to its kernel object — Sections 9 and 10: the
// destroyer strips the object pointer and drops the port's reference while
// a sender is halfway through port-to-object translation.
//
// fixed=true runs the repo's REAL protocol: Port.KObject clones the object
// reference UNDER the port lock, where it is covered by the port's own
// still-present reference, so the destroyer's release can never hit zero
// first. The bounded search must exhaust clean with the object and port
// destroyed exactly once.
//
// fixed=false plants the pre-fix translation on a minimal port replica:
// read the object pointer under the port lock, unlock, and only THEN take
// the reference. In the unlock-to-clone window the destroyer's release
// drops the last reference and destroys the object; the late TakeRef then
// increments the dead count back to one. The reference model reports the
// resurrection (ref-resurrect), and the count's own dead-clone panic
// follows it (panic). The search must find that window.
func PortShutdownScenario(fixed bool) machsim.Scenario {
	if fixed {
		return portShutdownReal
	}
	return portShutdownLoose
}

func portShutdownReal(s *machsim.Sim) {
	port := ipc.NewPort("svc")
	obj := &kobj{}
	obj.Init("svc.kobj")
	// The creator's reference on obj is donated to the port's kobject
	// pointer; the user thread gets its own port reference (translation
	// requires one).
	port.SetKObject(ipc.KindCustom, obj)
	port.TakeRef()

	var translated bool
	s.Spawn("user", func(t *sched.Thread) {
		_, ko, err := port.KObject()
		if err == nil {
			translated = true
			ko.Release(nil)
		}
		port.Release(nil)
	})
	s.Spawn("destroyer", func(t *sched.Thread) {
		port.Destroy()
	})
	s.AtEnd(func(fail func(string, ...any)) {
		if !obj.Destroyed() {
			fail("object leaked: refs survived shutdown (translated=%v)", translated)
		}
		if !port.Destroyed() {
			fail("port leaked after destroy and release")
		}
	})
}

// loosePort is the minimal replica carrying the planted bug; only the
// translation path differs from the real port.
type loosePort struct {
	object.Object
	kobj *kobj
}

func portShutdownLoose(s *machsim.Sim) {
	port := &loosePort{}
	port.Init("svc.loose")
	obj := &kobj{}
	obj.Init("svc.kobj")
	port.kobj = obj // donate the creator's reference, as the real port does
	port.TakeRef()  // the user thread's port reference

	s.Spawn("user", func(t *sched.Thread) {
		port.Lock()
		var ko *kobj
		if port.Active() {
			ko = port.kobj
		}
		port.Unlock()
		// BUG: the reference is taken AFTER dropping the port lock. The
		// port's own reference no longer covers this window — the
		// destroyer can strip the pointer and release it to zero first.
		if ko != nil {
			ko.TakeRef()
			ko.Release(nil)
		}
		port.Release(nil)
	})
	s.Spawn("destroyer", func(t *sched.Thread) {
		port.Lock()
		first := port.Deactivate()
		var ko *kobj
		if first {
			ko = port.kobj
			port.kobj = nil
		}
		port.Unlock()
		if ko != nil {
			ko.Release(nil) // the port's reference — possibly the last
		}
		port.Release(nil)
	})
}
