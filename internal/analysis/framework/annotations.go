package framework

import "strings"

// The two machvet annotation families:
//
//	//machlock:holds
//	    placed on (or directly above) a lock acquisition whose hold
//	    intentionally escapes the acquiring function — lock wrapper
//	    methods, lock-handoff protocols. Honored by the unlockpath pass.
//
//	//machvet:allow pass1,pass2 — optional free-text reason
//	    suppresses diagnostics from the named passes on the annotated
//	    line (trailing form) or the line below (whole-line form). The
//	    reason after the separator is for the human reader.
//
// Anything else under the machlock:/machvet: prefixes is a bogus
// annotation — a typo that would otherwise silently fail open — and is
// itself reported (by the unlockpath pass, which owns annotation hygiene).

// KnownPasses is the set of pass names valid in //machvet:allow.
var KnownPasses = map[string]bool{
	"holdblock":     true,
	"lockorder":     true,
	"unlockpath":    true,
	"refdiscipline": true,
	"atomicity":     true,
	"sleepwake":     true,
}

// Annotation is one parsed machvet/machlock annotation comment.
type Annotation struct {
	// Holds is set for //machlock:holds.
	Holds bool
	// Allow lists the pass names of a //machvet:allow annotation.
	Allow []string
	// Bogus carries a description of why the annotation is malformed;
	// empty for a valid annotation.
	Bogus string
}

// ParseAnnotation parses a single comment's text. ok is false when the
// comment is not an annotation at all (does not start with //machlock: or
// //machvet:); a malformed annotation returns ok=true with Bogus set.
func ParseAnnotation(text string) (ann Annotation, ok bool) {
	switch {
	case strings.HasPrefix(text, "//machlock:"):
		rest := strings.TrimPrefix(text, "//machlock:")
		// Free text after whitespace is a human-readable reason.
		verb, _, _ := strings.Cut(rest, " ")
		if verb != "holds" {
			return Annotation{Bogus: "unknown machlock annotation " + quoteVerb(verb) + " (only //machlock:holds exists)"}, true
		}
		return Annotation{Holds: true}, true
	case strings.HasPrefix(text, "//machvet:"):
		rest := strings.TrimPrefix(text, "//machvet:")
		verb, args, _ := strings.Cut(rest, " ")
		if verb != "allow" {
			return Annotation{Bogus: "unknown machvet annotation " + quoteVerb(verb) + " (only //machvet:allow exists)"}, true
		}
		// The pass list is the first field; everything after it is the
		// free-text reason (conventionally set off with a dash).
		args = strings.TrimSpace(args)
		list, _, _ := strings.Cut(args, " ")
		if list == "" {
			return Annotation{Bogus: "machvet:allow without a pass name"}, true
		}
		var names []string
		for _, name := range strings.Split(list, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if !KnownPasses[name] {
				return Annotation{Bogus: "machvet:allow names unknown pass " + quoteVerb(name)}, true
			}
			names = append(names, name)
		}
		if len(names) == 0 {
			return Annotation{Bogus: "machvet:allow without a pass name"}, true
		}
		return Annotation{Allow: names}, true
	}
	return Annotation{}, false
}

func quoteVerb(v string) string {
	if v == "" {
		return `""`
	}
	return `"` + v + `"`
}
