// Fixture for the graph pass: a cross-class nesting (an edge), a
// same-class nesting (no edge), an edge proven only through TryLock, and
// an edge proven through TryLock in one function and Lock in another.
package graph

import "machlock/internal/core/splock"

type a struct{ mu splock.Lock }
type b struct{ mu splock.Lock }
type c struct{ mu splock.Lock }
type d struct{ mu splock.Lock }

// a.mu -> b.mu.
func cross(x *a, y *b) {
	x.mu.Lock()
	y.mu.Lock()
	y.mu.Unlock()
	x.mu.Unlock()
}

// Two locks of one class: no edge, as in the dynamic collector.
func same(x, y *a) {
	x.mu.Lock()
	y.mu.Lock()
	y.mu.Unlock()
	x.mu.Unlock()
}

// b.mu -> c.mu, only ever through a try-acquire.
func tryOnly(y *b, z *c) {
	y.mu.Lock()
	if z.mu.TryLock() {
		z.mu.Unlock()
	}
	y.mu.Unlock()
}

// c.mu -> d.mu through a try-acquire here ...
func mixedTry(z *c, w *d) {
	z.mu.Lock()
	if w.mu.TryLock() {
		w.mu.Unlock()
	}
	z.mu.Unlock()
}

// ... and a plain one here, so the merged edge is not try-only.
func mixedLock(z *c, w *d) {
	z.mu.Lock()
	w.mu.Lock()
	w.mu.Unlock()
	z.mu.Unlock()
}
