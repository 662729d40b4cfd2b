// Fixture for the refdiscipline pass: relock without a reference, stale
// loads across an unlock/relock window, container extraction without a
// reference, and the two sanctioned idioms (reference-across-window and
// recheck-after-relock).
package refdiscipline

import "machlock/internal/core/object"

type task struct {
	object.Object
	state int
}

type table struct {
	m map[int]*task
}

func relockNoRef(t *task) {
	t.Lock()
	v := t.state
	t.Unlock()
	work(v)
	t.Lock()        // want `t is relocked after an unlock without holding a new reference`
	t.state = v + 1 // want `v was loaded from t before its lock was dropped and reacquired`
	t.Unlock()
}

// A reference taken before the unlock covers the window.
func relockWithRef(t *task) {
	t.Lock()
	t.TakeRef()
	t.Unlock()
	t.Lock()
	t.Unlock()
	t.Release(nil)
}

// Re-validating after the relock is the deactivation-recheck idiom.
func relockRecheck(t *task) error {
	t.Lock()
	t.Unlock()
	t.Lock()
	if err := t.CheckActive(); err != nil {
		t.Unlock()
		return err
	}
	t.Unlock()
	return nil
}

// The container's reference is not the caller's.
func fromMap(tab *table, id int) {
	t := tab.m[id]
	t.Lock() // want `locking t, which was taken from a shared container without a reference`
	t.Unlock()
}

func fromMapRef(tab *table, id int) {
	t := tab.m[id]
	t.TakeRef()
	t.Lock()
	t.Unlock()
	t.Release(nil)
}

func work(int) {}
