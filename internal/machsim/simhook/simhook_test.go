package simhook

import (
	"fmt"
	"strings"
	"testing"
)

// TestEveryPointIsNamed: a point added without a name, or a name left
// behind for a removed point, would print as "point(?)" in machsim traces
// or rot in the table.
func TestEveryPointIsNamed(t *testing.T) {
	seen := map[string]Point{}
	for p := PointInvalid + 1; p < numPoints; p++ {
		name, ok := pointNames[p]
		if !ok {
			t.Fatalf("point %d has no entry in pointNames", p)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("points %d and %d share the name %q", prev, p, name)
		}
		seen[name] = p
		if p.String() != name {
			t.Fatalf("Point(%d).String() = %q, want %q", p, p.String(), name)
		}
	}
	if len(pointNames) != int(numPoints)-1 {
		t.Fatalf("pointNames has %d entries for %d points", len(pointNames), numPoints-1)
	}
	for _, p := range []Point{PointInvalid, numPoints} {
		if p.String() != "point(?)" {
			t.Fatalf("Point(%d).String() = %q, want point(?)", p, p.String())
		}
	}
}

// checkNoHarness asserts the disabled contract every substrate fast path
// relies on: nothing is forwarded and every query answers "no harness".
func checkNoHarness(t *testing.T) {
	t.Helper()
	if Enabled() {
		t.Fatal("Enabled with no harness installed")
	}
	if ForceFail(SpTry, nil) {
		t.Fatal("ForceFail with no harness installed")
	}
	Yield(SpLock, nil)
	Note(SpAcquired, nil, 1)
	if Block(nil) || Unblock(nil) {
		t.Fatal("Block/Unblock claimed a thread with no harness installed")
	}
	if _, ok := NowNs(); ok {
		t.Fatal("NowNs reported a virtual clock with no harness installed")
	}
	if _, ok := Index(nil); ok {
		t.Fatal("Index reported a virtual thread with no harness installed")
	}
}

func TestNoHarness(t *testing.T) {
	checkNoHarness(t)
}

// recorder is a Hooks that logs every call in order.
type recorder struct{ log []string }

func (r *recorder) Yield(p Point, obj any) { r.add("yield %v %v", p, obj) }
func (r *recorder) Note(p Point, obj any, n int64) {
	r.add("note %v %v %d", p, obj, n)
}
func (r *recorder) ForceFail(p Point, obj any) bool {
	r.add("forcefail %v %v", p, obj)
	return true
}
func (r *recorder) Block(t any) bool   { r.add("block %v", t); return true }
func (r *recorder) Unblock(t any) bool { r.add("unblock %v", t); return true }
func (r *recorder) NowNs() int64       { r.add("now"); return 42 }
func (r *recorder) Index(t any) (int, bool) {
	r.add("index %v", t)
	return 7, true
}

func (r *recorder) add(format string, args ...any) {
	r.log = append(r.log, fmt.Sprintf(format, args...))
}

// TestInstallForwardsInOrder: with a harness installed every hook reaches
// it, in call order, with its arguments and results intact; Uninstall
// restores the no-harness behaviour.
func TestInstallForwardsInOrder(t *testing.T) {
	r := &recorder{}
	Install(r)
	t.Cleanup(Uninstall)

	if !Enabled() {
		t.Fatal("not Enabled after Install")
	}
	Yield(SpLock, "l")
	Note(SpAcquired, "l", 3)
	if !ForceFail(CxTryWrite, "c") {
		t.Fatal("ForceFail did not return the harness's answer")
	}
	if !Block("th") || !Unblock("th") {
		t.Fatal("Block/Unblock did not return the harness's answer")
	}
	if ns, ok := NowNs(); !ok || ns != 42 {
		t.Fatalf("NowNs = %d, %v; want 42, true", ns, ok)
	}
	if i, ok := Index("th"); !ok || i != 7 {
		t.Fatalf("Index = %d, %v; want 7, true", i, ok)
	}
	want := []string{
		"yield sp.lock l",
		"note sp.acquired l 3",
		"forcefail cx.trywrite c",
		"block th",
		"unblock th",
		"now",
		"index th",
	}
	if got := strings.Join(r.log, "\n"); got != strings.Join(want, "\n") {
		t.Fatalf("harness saw:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}

	Uninstall()
	n := len(r.log)
	checkNoHarness(t)
	if len(r.log) != n {
		t.Fatalf("uninstalled harness still received calls: %v", r.log[n:])
	}
}

// TestInstallGuards: Install refuses nil and refuses to stack harnesses.
func TestInstallGuards(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("Install(nil)", func() { Install(nil) })
	Install(&recorder{})
	t.Cleanup(Uninstall)
	mustPanic("a second Install", func() { Install(&recorder{}) })
}
