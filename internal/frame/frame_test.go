package frame

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"trust/internal/geom"
)

func loginPage() *Page {
	return &Page{
		URL:      "https://www.xyz.com/login",
		Title:    "xyz.com Login",
		Body:     "Welcome back. Touch Login to continue.",
		HeightPX: 800,
		Elements: []Element{
			{ID: "account", Kind: Input, Label: "Account", Bounds: geom.RectWH(60, 280, 360, 60)},
			{ID: "login", Kind: Button, Label: "Login", Action: "login", Bounds: geom.RectWH(140, 660, 200, 90)},
		},
	}
}

func longPage() *Page {
	p := loginPage()
	p.URL = "https://www.xyz.com/statement"
	p.HeightPX = 2400
	return p
}

func TestCanonicalDeterministic(t *testing.T) {
	a, b := loginPage(), loginPage()
	if string(a.Canonical()) != string(b.Canonical()) {
		t.Fatal("identical pages canonicalize differently")
	}
}

func TestCanonicalSensitiveToContent(t *testing.T) {
	a := loginPage()
	b := loginPage()
	b.Elements[1].Label = "Transfer $1000"
	if string(a.Canonical()) == string(b.Canonical()) {
		t.Fatal("content change not reflected in canonical bytes")
	}
}

// fmtRender is the fmt-based Render (and Canonical) that the strconv
// form replaced; frame hashes, and with them every artifact, depend on
// the two staying byte-identical.
func fmtRender(p *Page, v View) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "FRAME z=%.2f s=%.1f\n", v.Zoom, v.ScrollY)
	wr := func(s string) {
		var l [4]byte
		binary.BigEndian.PutUint32(l[:], uint32(len(s)))
		buf.Write(l[:])
		buf.WriteString(s)
	}
	wr(p.URL)
	wr(p.Title)
	wr(p.Body)
	var h [8]byte
	binary.BigEndian.PutUint64(h[:], uint64(p.HeightPX))
	buf.Write(h[:])
	for _, e := range p.Elements {
		wr(e.ID)
		wr(e.Label)
		wr(e.Action)
		fmt.Fprintf(&buf, "|%d|%.1f,%.1f,%.1f,%.1f;",
			int(e.Kind), e.Bounds.Min.X, e.Bounds.Min.Y, e.Bounds.Max.X, e.Bounds.Max.Y)
	}
	return buf.Bytes()
}

func TestRenderMatchesFmtForm(t *testing.T) {
	odd := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		0.05, 0.15, 0.25, -0.05, 1.45, 2.675, 1e21, -1e-7, 123456.789, math.MaxFloat64, math.SmallestNonzeroFloat64}
	pages := []*Page{loginPage(), longPage(), {}}
	for i, f := range odd {
		p := loginPage()
		p.Elements = append(p.Elements, Element{
			ID: "odd", Kind: ElementKind(i - 3), Label: "x",
			Bounds: geom.Rect{Min: geom.Point{X: f, Y: -f}, Max: geom.Point{X: odd[(i+1)%len(odd)], Y: odd[(i+2)%len(odd)]}},
		})
		pages = append(pages, p)
	}
	for _, p := range pages {
		for _, z := range odd {
			v := View{Zoom: z, ScrollY: -z}
			if got, want := Render(p, v), fmtRender(p, v); !bytes.Equal(got, want) {
				t.Fatalf("Render(%+v) differs from fmt form:\n got %q\nwant %q", v, got, want)
			}
		}
		want := fmtRender(p, View{})
		want = want[bytes.IndexByte(want, '\n')+1:]
		if got := p.Canonical(); !bytes.Equal(got, want) {
			t.Fatalf("Canonical differs from fmt form:\n got %q\nwant %q", got, want)
		}
	}
}

func TestElementAt(t *testing.T) {
	p := loginPage()
	if e := p.ElementAt(geom.Point{X: 200, Y: 700}); e == nil || e.ID != "login" {
		t.Fatalf("ElementAt login button = %+v", e)
	}
	if e := p.ElementAt(geom.Point{X: 10, Y: 10}); e != nil {
		t.Fatalf("ElementAt empty area = %+v", e)
	}
}

func TestStandardViewsFiniteAndReasonable(t *testing.T) {
	short := StandardViews(loginPage(), 800)
	if len(short) != len(ZoomStops)*2-1 { // zoom 1 fits (1 view); 1.5 and 2.0 scroll
		// Exact count depends on geometry; just require finite & small.
		if len(short) == 0 || len(short) > 50 {
			t.Fatalf("short page has %d views", len(short))
		}
	}
	long := StandardViews(longPage(), 800)
	if len(long) <= len(short) {
		t.Fatalf("taller page should have more views: %d vs %d", len(long), len(short))
	}
	if len(long) > 200 {
		t.Fatalf("view set exploded: %d views", len(long))
	}
}

func TestViewTransformsRoundTrip(t *testing.T) {
	if err := quick.Check(func(x, y float64, zi uint8, s uint8) bool {
		if x < 0 || x > 1e5 || y < 0 || y > 1e5 {
			return true
		}
		v := View{Zoom: ZoomStops[int(zi)%len(ZoomStops)], ScrollY: float64(s) * 10}
		p := geom.Point{X: x, Y: y}
		back := v.ScreenToPage(v.PageToScreen(p))
		return back.Dist(p) < 1e-6
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRenderDistinguishesViews(t *testing.T) {
	p := longPage()
	seen := map[Hash]bool{}
	for _, v := range StandardViews(p, 800) {
		h := HashBytes(Render(p, v))
		if seen[h] {
			t.Fatalf("two views rendered identical frames")
		}
		seen[h] = true
	}
}

func TestHashEngineLatencyScales(t *testing.T) {
	e := NewHashEngine()
	_, small := e.Sum(make([]byte, 1024))
	_, big := e.Sum(make([]byte, 1024*1024))
	if big <= small {
		t.Fatalf("1 MiB hash (%v) not slower than 1 KiB (%v)", big, small)
	}
	if e.Frames() != 2 {
		t.Fatalf("frame count = %d", e.Frames())
	}
	// 1 MiB at 1.6 GB/s is ~0.65 ms; sanity bound under 10 ms.
	if big > 10*time.Millisecond {
		t.Fatalf("hash engine implausibly slow: %v", big)
	}
}

func TestRepeaterTracksLastFrame(t *testing.T) {
	r := NewRepeater(NewHashEngine())
	if _, ok := r.LastHash(); ok {
		t.Fatal("repeater reports a hash before any frame")
	}
	p := loginPage()
	fb := Render(p, View{Zoom: 1})
	h, lat := r.Display(fb)
	if lat <= 0 {
		t.Fatal("display hash latency not positive")
	}
	got, ok := r.LastHash()
	if !ok || got != h {
		t.Fatal("LastHash does not match Display result")
	}
	if h != HashBytes(fb) {
		t.Fatal("repeater hash mismatch")
	}
}

func TestPossibleHashesContainsRenderedViews(t *testing.T) {
	p := longPage()
	set := PossibleHashes(p, 800)
	for _, v := range StandardViews(p, 800) {
		if _, ok := set[HashBytes(Render(p, v))]; !ok {
			t.Fatalf("view %+v missing from possible-hash set", v)
		}
	}
}

func TestAuditAcceptsHonestLog(t *testing.T) {
	p := longPage()
	served := map[string]*Page{p.URL: p}
	var log AuditLog
	for i, v := range StandardViews(p, 800) {
		log.Append(AuditEntry{
			Account: "ab12xyom",
			PageURL: p.URL,
			Hash:    HashBytes(Render(p, v)),
			At:      time.Duration(i) * time.Second,
		})
	}
	report := Audit(&log, served, 800)
	if report.Tampered != 0 {
		t.Fatalf("honest log flagged: %d tampered of %d", report.Tampered, report.Checked)
	}
}

func TestAuditDetectsTamperedFrame(t *testing.T) {
	p := loginPage()
	served := map[string]*Page{p.URL: p}

	// Malware redraws the login button as a transfer confirmation.
	evil := p.Clone()
	evil.Elements[1].Label = "Confirm transfer"
	var log AuditLog
	log.Append(AuditEntry{Account: "a", PageURL: p.URL, Hash: HashBytes(Render(evil, View{Zoom: 1}))})
	log.Append(AuditEntry{Account: "a", PageURL: p.URL, Hash: HashBytes(Render(p, View{Zoom: 1}))})
	log.Append(AuditEntry{Account: "a", PageURL: "https://never-served.example", Hash: HashBytes([]byte("x"))})

	report := Audit(&log, served, 800)
	if report.Tampered != 2 {
		t.Fatalf("audit found %d tampered entries, want 2", report.Tampered)
	}
	if report.Findings[1].OK != true {
		t.Fatal("honest entry flagged")
	}
}

func TestAuditPanicsOnMiskeyedPages(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mis-keyed served map accepted")
		}
	}()
	p := loginPage()
	Audit(&AuditLog{}, map[string]*Page{"wrong-url": p}, 800)
}

func TestAuditLogCopies(t *testing.T) {
	var log AuditLog
	log.Append(AuditEntry{Account: "a"})
	es := log.Entries()
	es[0].Account = "mutated"
	if log.Entries()[0].Account != "a" {
		t.Fatal("Entries exposes internal storage")
	}
}

func TestElementKindStrings(t *testing.T) {
	for _, k := range []ElementKind{Text, Button, Input, Image} {
		if k.String() == "" {
			t.Errorf("kind %d empty string", int(k))
		}
	}
}
