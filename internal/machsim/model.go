package machsim

import (
	"fmt"

	"machlock/internal/machsim/simhook"
)

// The shadow models re-derive the protocol state the paper's invariants
// speak about — who holds what, in which mode, with how many references —
// purely from the notes the substrate emits at its commit points. They
// never call back into the lock APIs (a checker that takes locks would
// deadlock against the suspended holders it is checking), which is exactly
// why the notes are emitted inside the interlock critical sections: each
// note IS the state transition, so the model is never ahead of or behind
// the real lock.

type models struct {
	s   *Sim
	sp  map[any]*spModel
	cx  map[any]*cxModel
	ref map[any]*refModel
	obj map[any]*objModel
}

func newModels(s *Sim) *models {
	return &models{
		s:   s,
		sp:  make(map[any]*spModel),
		cx:  make(map[any]*cxModel),
		ref: make(map[any]*refModel),
		obj: make(map[any]*objModel),
	}
}

// spModel shadows one simple lock.
type spModel struct {
	held  bool
	owner *vthread
}

// cxModel shadows one complex lock.
type cxModel struct {
	readers  map[*vthread]int
	recDepth int

	writer    *vthread
	hasWriter bool

	wantWriteBy   *vthread
	hasWantWrite  bool
	wantUpgradeBy *vthread
	hasWantUp     bool

	revoking bool // between bias revoke and bias drained
}

func (m *cxModel) totalReaders() int {
	n := 0
	for _, c := range m.readers {
		n += c
	}
	return n
}

// refModel shadows one reference count (Count or Atomic).
type refModel struct {
	known bool
	n     int64
	dead  bool // the count has reached zero at least once
}

// objModel shadows one object.Object.
type objModel struct {
	destroyed bool
}

func (md *models) spOf(obj any) *spModel {
	m := md.sp[obj]
	if m == nil {
		m = &spModel{}
		md.sp[obj] = m
	}
	return m
}

func (md *models) cxOf(obj any) *cxModel {
	m := md.cx[obj]
	if m == nil {
		m = &cxModel{readers: make(map[*vthread]int)}
		md.cx[obj] = m
	}
	return m
}

func (md *models) refOf(obj any) *refModel {
	m := md.ref[obj]
	if m == nil {
		m = &refModel{}
		md.ref[obj] = m
	}
	return m
}

func (md *models) objOf(obj any) *objModel {
	m := md.obj[obj]
	if m == nil {
		m = &objModel{}
		md.obj[obj] = m
	}
	return m
}

func (md *models) fail(checker, format string, args ...any) {
	md.s.violate(checker, fmt.Sprintf(format, args...))
}

// note dispatches one observed protocol transition into the right model.
// a is the executing virtual thread (initActor during setup/at-end).
func (md *models) note(a *vthread, p simhook.Point, obj any, n int64) {
	name := func() string { return md.s.nameOf(obj) }
	switch p {
	// ---- simple locks: mutual exclusion ----
	case simhook.SpAcquired:
		m := md.spOf(obj)
		if m.held {
			md.fail("mutual-exclusion",
				"simple lock %s acquired by %s while held by %s", name(), a.name, m.owner.name)
		}
		m.held, m.owner = true, a
	case simhook.SpReleased:
		m := md.spOf(obj)
		if !m.held {
			md.fail("protocol", "simple lock %s released by %s while not held", name(), a.name)
		}
		m.held, m.owner = false, nil

	// ---- complex locks: mutual exclusion, writer priority, bias safety ----
	case simhook.CxReadGrant:
		m := md.cxOf(obj)
		if m.hasWriter {
			md.fail("mutual-exclusion",
				"read of %s granted to %s while %s holds it for writing", name(), a.name, m.writer.name)
		}
		if m.hasWantWrite && m.wantWriteBy != a {
			md.fail("writer-priority",
				"read of %s granted to %s while %s has a write request outstanding", name(), a.name, m.wantWriteBy.name)
		}
		if m.hasWantUp && m.wantUpgradeBy != a {
			md.fail("writer-priority",
				"read of %s granted to %s while %s has an upgrade outstanding", name(), a.name, m.wantUpgradeBy.name)
		}
		m.readers[a]++
	case simhook.CxReadGrantRec:
		m := md.cxOf(obj)
		if m.hasWriter && m.writer != a {
			md.fail("mutual-exclusion",
				"recursive read of %s granted to %s while %s holds it for writing", name(), a.name, m.writer.name)
		}
		m.readers[a]++
	case simhook.CxRecurseGrant:
		m := md.cxOf(obj)
		if m.hasWriter && m.writer != a {
			md.fail("mutual-exclusion",
				"recursive write of %s granted to %s while %s holds it", name(), a.name, m.writer.name)
		}
		m.recDepth++
	case simhook.CxWriteWant:
		m := md.cxOf(obj)
		if m.hasWantWrite {
			md.fail("protocol", "second want_write on %s (by %s, already held by %s)",
				name(), a.name, m.wantWriteBy.name)
		}
		m.hasWantWrite, m.wantWriteBy = true, a
	case simhook.CxWriteGrant:
		m := md.cxOf(obj)
		if m.hasWriter {
			md.fail("mutual-exclusion",
				"write of %s granted to %s while %s holds it for writing", name(), a.name, m.writer.name)
		}
		if r := m.totalReaders(); r > 0 {
			md.fail("mutual-exclusion",
				"write of %s granted to %s with %d read hold(s) outstanding", name(), a.name, r)
		}
		m.hasWriter, m.writer = true, a
		if !m.hasWantWrite { // TryWrite takes the bit and the hold in one step
			m.hasWantWrite, m.wantWriteBy = true, a
		}
	case simhook.CxUpgradeWant:
		m := md.cxOf(obj)
		if m.hasWantUp {
			md.fail("protocol", "second want_upgrade on %s (by %s, already held by %s)",
				name(), a.name, m.wantUpgradeBy.name)
		}
		if m.readers[a] <= 0 {
			md.fail("protocol", "%s upgrades %s without a read hold", a.name, name())
		}
		m.readers[a]--
		m.hasWantUp, m.wantUpgradeBy = true, a
	case simhook.CxUpgradeFail:
		m := md.cxOf(obj)
		if m.readers[a] <= 0 {
			md.fail("protocol", "%s failed-upgrade on %s without a read hold", a.name, name())
		}
		m.readers[a]--
	case simhook.CxUpgradeGrant:
		m := md.cxOf(obj)
		if m.hasWriter {
			md.fail("mutual-exclusion",
				"upgrade of %s granted to %s while %s holds it for writing", name(), a.name, m.writer.name)
		}
		if r := m.totalReaders(); r > 0 {
			md.fail("mutual-exclusion",
				"upgrade of %s granted to %s with %d read hold(s) outstanding", name(), a.name, r)
		}
		m.hasWriter, m.writer = true, a
	case simhook.CxDowngradeDone:
		m := md.cxOf(obj)
		if !m.hasWriter || m.writer != a {
			md.fail("protocol", "%s downgrades %s without holding it for writing", a.name, name())
		}
		m.hasWriter, m.writer = false, nil
		if m.hasWantUp && m.wantUpgradeBy == a {
			m.hasWantUp, m.wantUpgradeBy = false, nil
		} else if m.hasWantWrite && m.wantWriteBy == a {
			m.hasWantWrite, m.wantWriteBy = false, nil
		}
		m.readers[a]++
	case simhook.CxReleaseRead:
		m := md.cxOf(obj)
		if m.readers[a] <= 0 {
			md.fail("protocol", "%s releases a read hold of %s it does not have", a.name, name())
		}
		m.readers[a]--
	case simhook.CxReleaseRecursive:
		m := md.cxOf(obj)
		if m.recDepth <= 0 {
			md.fail("protocol", "%s pops recursion on %s below zero", a.name, name())
		}
		m.recDepth--
	case simhook.CxReleaseWrite:
		m := md.cxOf(obj)
		if !m.hasWriter || m.writer != a {
			md.fail("protocol", "%s releases write hold of %s it does not have", a.name, name())
		}
		m.hasWriter, m.writer = false, nil
		m.hasWantWrite, m.wantWriteBy = false, nil
	case simhook.CxReleaseUpgrade:
		m := md.cxOf(obj)
		if !m.hasWriter || m.writer != a {
			md.fail("protocol", "%s releases upgrade hold of %s it does not have", a.name, name())
		}
		m.hasWriter, m.writer = false, nil
		m.hasWantUp, m.wantUpgradeBy = false, nil
	case simhook.CxBiasReadGrant:
		m := md.cxOf(obj)
		if m.hasWriter {
			md.fail("bias-revocation",
				"biased read of %s granted to %s while %s holds it for writing", name(), a.name, m.writer.name)
		}
		if m.revoking {
			md.fail("bias-revocation",
				"biased read of %s granted to %s during a revocation drain", name(), a.name)
		}
		m.readers[a]++
	case simhook.CxBiasRelease:
		m := md.cxOf(obj)
		if m.readers[a] <= 0 {
			md.fail("protocol", "%s releases a biased read hold of %s it does not have", a.name, name())
		}
		m.readers[a]--
	case simhook.CxBiasRevoke:
		md.cxOf(obj).revoking = true
	case simhook.CxBiasDrained, simhook.CxBiasRearm:
		// A failed TryWrite revokes without ever draining (the bias stays
		// down until the cooldown re-arm), so the re-arm also closes the
		// model's revocation window.
		md.cxOf(obj).revoking = false

	// ---- reference counts: never resurrect, never skew ----
	case simhook.RefClone:
		m := md.refOf(obj)
		if m.dead {
			md.fail("ref-resurrect",
				"%s cloned a reference to %s after its count reached zero", a.name, name())
		}
		if m.known && n != m.n+1 {
			md.fail("ref-skew", "clone of %s by %s: count went %d -> %d (lost update)",
				name(), a.name, m.n, n)
		}
		m.known, m.n = true, n
	case simhook.RefRelease:
		m := md.refOf(obj)
		if m.known && n != m.n-1 {
			md.fail("ref-skew", "release of %s by %s: count went %d -> %d (lost update)",
				name(), a.name, m.n, n)
		}
		if n < 0 {
			md.fail("protocol", "%s over-released %s (count %d)", a.name, name(), n)
		}
		m.known, m.n = true, n
		if n == 0 {
			m.dead = true
		}

	// ---- kernel objects: a reference is required to (re)lock ----
	case simhook.ObjLock:
		m := md.objOf(obj)
		if m.destroyed {
			md.fail("relock-reference", "%s locked destroyed object %s", a.name, name())
		}
		if n <= 0 {
			md.fail("relock-reference",
				"%s locked object %s with no reference outstanding (count %d)", a.name, name(), n)
		}
	case simhook.ObjDestroyed:
		md.objOf(obj).destroyed = true
	}
}
