package ipc

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"machlock/internal/sched"
)

func TestSpaceInsertTranslate(t *testing.T) {
	s := NewSpace()
	p := NewPort("p")
	self := sched.New("tester")
	n := s.Insert(self, p)
	if refsOf(p) != 2 {
		t.Fatalf("refs after insert = %d, want 2 (creator + table)", refsOf(p))
	}
	got, err := s.Translate(self, n)
	if err != nil || got != p {
		t.Fatalf("Translate = %v, %v", got, err)
	}
	if refsOf(p) != 3 {
		t.Fatalf("refs after translate = %d, want 3 (cloned for caller)", refsOf(p))
	}
	got.Release(nil)
	if err := s.Remove(self, n); err != nil {
		t.Fatal(err)
	}
	if refsOf(p) != 1 {
		t.Fatalf("refs after remove = %d, want 1", refsOf(p))
	}
	p.Destroy()
}

func TestSpaceBadName(t *testing.T) {
	s := NewSpace()
	if _, err := s.Translate(nil, 99); !errors.Is(err, ErrBadName) {
		t.Fatalf("Translate bad name = %v", err)
	}
	if err := s.Remove(nil, 99); !errors.Is(err, ErrBadName) {
		t.Fatalf("Remove bad name = %v", err)
	}
}

func TestSpaceNamesAreUnique(t *testing.T) {
	s := NewSpace()
	p := NewPort("p")
	seen := make(map[Name]bool)
	for i := 0; i < 100; i++ {
		n := s.Insert(nil, p)
		if seen[n] {
			t.Fatalf("name %d reused", n)
		}
		seen[n] = true
	}
	if s.Len(nil) != 100 {
		t.Fatalf("len = %d", s.Len(nil))
	}
	s.DestroyAll(nil)
	if s.Len(nil) != 0 {
		t.Fatal("names survive DestroyAll")
	}
	if refsOf(p) != 1 {
		t.Fatalf("refs after DestroyAll = %d, want 1", refsOf(p))
	}
	p.Destroy()
}

func TestSpaceConcurrentTranslationNeverDangles(t *testing.T) {
	// Translation clones under the space lock, so a concurrent Remove can
	// never leave a caller with a dangling port: the clone happened while
	// the table's reference pinned the structure. Each translator has its
	// own thread identity, exercising the reader-bias fast path.
	s := NewSpace()
	p := NewPort("p")
	n := s.Insert(nil, p)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			self := sched.New("translator")
			for j := 0; j < 500; j++ {
				got, err := s.Translate(self, n)
				if err != nil {
					return // removed; fine
				}
				// The reference must be valid: locking proves it.
				got.Lock()
				got.Unlock()
				got.Release(nil)
			}
		}()
	}
	s.Remove(nil, n)
	wg.Wait()
	p.Destroy()
}

// TestSpaceTranslateRacesRemoveDestroy: port references are atomic, so the
// only thing covering a translator's clone is the table's reference, pinned
// by the space lock's read hold. Four translators hammer a set of names
// while one goroutine removes and destroys every port: no translation
// returns a destroyed port, and each port is destroyed exactly once (all
// are destroyed, and the port class's live census is back at its base,
// which a second destruction would push below). Run it under -race.
func TestSpaceTranslateRacesRemoveDestroy(t *testing.T) {
	const ports, translators = 64, 4
	base := classPort.Live()
	s := NewSpace()
	ps := make([]*Port, ports)
	objs := make([]*kobj, ports)
	names := make([]Name, ports)
	for i := range ps {
		ps[i] = NewPort("hammer")
		objs[i] = newKobj("hammer.kobj")
		ps[i].SetKObject(KindCustom, objs[i])
		names[i] = s.Insert(nil, ps[i])
	}
	var done atomic.Bool
	var started, wg sync.WaitGroup
	started.Add(translators)
	for g := 0; g < translators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			self := sched.New("translator")
			for i := g; !done.Load(); i++ {
				p, err := s.Translate(self, names[i%ports])
				if i == g {
					started.Done() // the first try is before any Remove
				}
				if err != nil {
					continue // removed
				}
				if p.Destroyed() {
					t.Error("Translate returned a destroyed port")
				}
				p.Lock() // a reference is required to lock: proves it
				p.Unlock()
				if _, ko, err := p.KObject(); err == nil {
					ko.Release(nil)
				}
				p.Release(nil)
			}
		}(g)
	}
	started.Wait()
	for i, n := range names {
		if err := s.Remove(nil, n); err != nil {
			t.Fatal(err)
		}
		ps[i].Destroy()
		runtime.Gosched()
	}
	done.Store(true)
	wg.Wait()
	for i, p := range ps {
		if !p.Destroyed() || !objs[i].Destroyed() {
			t.Fatalf("port %d or its kernel object survived Remove and Destroy", i)
		}
	}
	if live := classPort.Live(); live != base {
		t.Fatalf("ipc.port census = %d, want %d", live, base)
	}
}

func TestSpaceBiasAccounting(t *testing.T) {
	// Concurrent translators on a biased space lock must all appear in
	// Stats — including the ones that took the publish fast path.
	s := NewSpace()
	p := NewPort("p")
	n := s.Insert(nil, p)
	const translators, rounds = 4, 200
	var wg sync.WaitGroup
	for i := 0; i < translators; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			self := sched.New("translator")
			for j := 0; j < rounds; j++ {
				got, err := s.Translate(self, n)
				if err != nil {
					t.Error(err)
					return
				}
				got.Release(nil)
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.ReadAcquisitions < translators*rounds {
		t.Fatalf("ReadAcquisitions = %d, want >= %d (fast-path reads must count)",
			st.ReadAcquisitions, translators*rounds)
	}
	s.DestroyAll(nil)
	p.Destroy()
}
