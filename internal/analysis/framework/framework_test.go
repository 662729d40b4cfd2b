package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"
)

func TestParseAnnotation(t *testing.T) {
	for _, tc := range []struct {
		text  string
		ok    bool
		want  Annotation
		bogus string // substring of Bogus; empty for a valid annotation
	}{
		{text: "// an ordinary comment", ok: false},
		{text: "//machlock:holds", ok: true, want: Annotation{Holds: true}},
		{text: "//machlock:holds — the caller unlocks", ok: true, want: Annotation{Holds: true}},
		{text: "//machlock:hold", ok: true, bogus: `unknown machlock annotation "hold"`},
		{text: "//machvet:deny holdblock", ok: true, bogus: `unknown machvet annotation "deny"`},
		{text: "//machvet:allow holdblok", ok: true, bogus: `unknown pass "holdblok"`},
		{text: "//machvet:allow", ok: true, bogus: "without a pass name"},
		{text: "//machvet:allow , — a reason but no pass", ok: true, bogus: "without a pass name"},
		{text: "//machvet:allow holdblock", ok: true, want: Annotation{Allow: []string{"holdblock"}}},
		{
			text: "//machvet:allow holdblock,lockorder — the blocking call runs after the unlock",
			ok:   true,
			want: Annotation{Allow: []string{"holdblock", "lockorder"}},
		},
	} {
		got, ok := ParseAnnotation(tc.text)
		if ok != tc.ok {
			t.Errorf("%q: ok = %v, want %v", tc.text, ok, tc.ok)
			continue
		}
		if tc.bogus != "" {
			if !strings.Contains(got.Bogus, tc.bogus) || got.Holds || got.Allow != nil {
				t.Errorf("%q = %+v, want only Bogus containing %q", tc.text, got, tc.bogus)
			}
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q = %+v, want %+v", tc.text, got, tc.want)
		}
	}
}

// suppressionSrc has one call per line a pass may report at. The line
// after each trailing annotation is left without a call, so each case
// tests one rule.
const suppressionSrc = `package p

func f() {
	trailing() //machvet:allow holdblock — covers its own line

	//machvet:allow holdblock
	below()

	otherPass() //machvet:allow lockorder

	plain()
}
`

// TestReportfHonorsAllow runs two passes that report at every call and
// checks which findings Reportf keeps: a trailing allow covers its own
// line, a whole-line allow covers the line below, and an allow names
// only its own pass.
func TestReportfHonorsAllow(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", suppressionSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	reportCalls := func(name string) *Analyzer {
		return &Analyzer{Name: name, Run: func(p *Pass) (any, error) {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					p.Reportf(call.Pos(), "%s", call.Fun.(*ast.Ident).Name)
				}
				return true
			})
			return nil, nil
		}}
	}
	diags, err := RunAnalyzers(&Package{Fset: fset, Files: []*ast.File{f}},
		[]*Analyzer{reportCalls("holdblock"), reportCalls("lockorder")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]string{}
	for _, d := range diags {
		got[d.Analyzer.Name] = append(got[d.Analyzer.Name], d.Message)
	}
	want := map[string][]string{
		"holdblock": {"otherPass", "plain"},
		"lockorder": {"trailing", "below", "plain"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("kept findings = %v, want %v", got, want)
	}
}
