package passes

import (
	"os"
	"regexp"
	"slices"
	"testing"

	"machlock/internal/analysis/framework"
)

// docPasses extracts the pass names cmd/machvet/doc.go documents: the
// entries of the indented table between "The passes, ..." and the first
// "# " section heading.
func docPasses(t *testing.T) []string {
	t.Helper()
	src, err := os.ReadFile("../../../cmd/machvet/doc.go")
	if err != nil {
		t.Fatal(err)
	}
	section := regexp.MustCompile(`(?s)// The passes, and the paper rule each one encodes:\n(.*?)\n// # `).FindSubmatch(src)
	if section == nil {
		t.Fatal("cmd/machvet/doc.go: pass table not found")
	}
	var names []string
	for _, m := range regexp.MustCompile(`(?m)^//\t([a-z]+) {2,}\S`).FindAllSubmatch(section[1], -1) {
		names = append(names, string(m[1]))
	}
	return names
}

// TestPassRegistriesAgree: the suite machvet runs, the names
// //machvet:allow accepts, and the passes the command documents are one
// set — deleting or adding a pass cannot leave a stale entry in any of
// the three.
func TestPassRegistriesAgree(t *testing.T) {
	var all []string
	for _, a := range All() {
		all = append(all, a.Name)
	}
	var known []string
	for name := range framework.KnownPasses {
		known = append(known, name)
	}
	doc := docPasses(t)
	slices.Sort(all)
	slices.Sort(known)
	slices.Sort(doc)
	if len(slices.Compact(slices.Clone(all))) != len(all) {
		t.Errorf("All() repeats a pass: %v", all)
	}
	if !slices.Equal(all, known) {
		t.Errorf("All() = %v, framework.KnownPasses = %v", all, known)
	}
	if !slices.Equal(all, doc) {
		t.Errorf("All() = %v, cmd/machvet/doc.go documents %v", all, doc)
	}
}
