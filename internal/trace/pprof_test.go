package trace

import (
	"bytes"
	"compress/gzip"
	"strings"
	"testing"
)

// TestPprofRoundTrip feeds real sampled sites through the proto writer and
// the independent parser, asserting the profile go tool pprof sees carries
// the right sample types, values, labels, and symbolized call sites.
func TestPprofRoundTrip(t *testing.T) {
	Enable()
	defer Disable()
	withSampling(t, 1)
	c := testClass(t, KindComplex)

	h := c.BeginHold(0, Now(), 3)
	c.EndHold(h, 2000)
	c.BlameWait(h, 900)
	c.BlameWait(nil, 111)
	c.Waited(0, 700)

	for _, tc := range []struct {
		kind      SiteKind
		countType string
	}{
		{SiteWaits, "contentions/count"},
		{SiteHolds, "holds/count"},
		{SiteBlame, "contentions/count"},
	} {
		var buf bytes.Buffer
		if err := WritePprof(&buf, tc.kind); err != nil {
			t.Fatalf("%v: WritePprof: %v", tc.kind, err)
		}
		// The body must really be gzip (pprof's wire convention).
		if _, err := gzip.NewReader(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("%v: body is not gzipped: %v", tc.kind, err)
		}
		p, err := ParsePprof(buf.Bytes())
		if err != nil {
			t.Fatalf("%v: ParsePprof: %v", tc.kind, err)
		}
		if len(p.SampleTypes) != 2 || p.SampleTypes[0] != tc.countType ||
			p.SampleTypes[1] != "delay/nanoseconds" {
			t.Fatalf("%v: sample types %v", tc.kind, p.SampleTypes)
		}
		if len(p.Samples) == 0 {
			t.Fatalf("%v: no samples", tc.kind)
		}

		s := p.FindSample("TestPprofRoundTrip")
		if s == nil {
			t.Fatalf("%v: no sample names the test function; samples: %+v", tc.kind, p.Samples)
		}
		if s.Labels["class"] != "tracetest/"+t.Name() {
			t.Fatalf("%v: class label %q", tc.kind, s.Labels["class"])
		}
		if s.Labels["lockkind"] != "complex" {
			t.Fatalf("%v: lockkind label %q", tc.kind, s.Labels["lockkind"])
		}
		wantNs := map[SiteKind]int64{SiteWaits: 700, SiteHolds: 2000, SiteBlame: 900}[tc.kind]
		if len(s.Values) != 2 || s.Values[0] != 1 || s.Values[1] != wantNs {
			t.Fatalf("%v: values %v, want [1 %d]", tc.kind, s.Values, wantNs)
		}
	}

	// The nil-stack blame delay must surface as the synthetic
	// "<unattributed blame>" frame, not silently vanish.
	var buf bytes.Buffer
	if err := WritePprof(&buf, SiteBlame); err != nil {
		t.Fatal(err)
	}
	p, err := ParsePprof(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	un := p.FindSample("<unattributed blame>")
	if un == nil || un.Values[1] != 111 {
		t.Fatalf("unattributed blame missing or wrong: %+v", un)
	}
}

// TestPprofEmptyProfile: a kind with no sites must still encode as a valid
// profile (go tool pprof reports it as empty rather than corrupt).
func TestPprofEmptyProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePprof(&buf, SiteHolds); err != nil {
		t.Fatal(err)
	}
	p, err := ParsePprof(buf.Bytes())
	if err != nil {
		t.Fatalf("empty profile does not parse: %v", err)
	}
	if len(p.SampleTypes) != 2 {
		t.Fatalf("sample types %v", p.SampleTypes)
	}
}

// TestParsePprofRejectsGarbage: the validator must fail loudly on corrupt
// input, since the CI smoke leans on it.
func TestParsePprofRejectsGarbage(t *testing.T) {
	if _, err := ParsePprof([]byte("not a profile")); err == nil {
		t.Fatal("garbage accepted")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0xff, 0xff, 0xff})
	zw.Close()
	if _, err := ParsePprof(gz.Bytes()); err == nil {
		t.Fatal("gzipped garbage accepted")
	}
}

// TestFindSampleMatchesSubstring exercises the helper the smoke checks use.
func TestFindSampleMatchesSubstring(t *testing.T) {
	p := &PprofProfile{Samples: []PprofSampleView{
		{Funcs: []string{"main.alpha", "runtime.goexit"}, Values: []int64{1, 2}},
	}}
	if p.FindSample("alpha") == nil {
		t.Fatal("missed substring match")
	}
	if p.FindSample("beta") != nil {
		t.Fatal("invented a match")
	}
	if !strings.Contains(p.Samples[0].Funcs[0], "alpha") {
		t.Fatal("sanity")
	}
}
