package protocol

import (
	"bytes"
	"testing"
	"time"

	"trust/internal/frame"
)

// mustBytes unwraps canonical bytes a test message is built to have.
func mustBytes(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

func TestSigningBytesExcludeAuthenticators(t *testing.T) {
	page := &frame.Page{URL: "https://x/login", Title: "t", HeightPX: 800}
	lp := &LoginPage{Domain: "x", Nonce: "n1", Page: page}
	base := mustBytes(lp.SigningBytes())
	lp.Signature = []byte("sig")
	if !bytes.Equal(base, mustBytes(lp.SigningBytes())) {
		t.Fatal("LoginPage signature leaks into signing bytes")
	}

	ls := &LoginSubmit{Domain: "x", Account: "a", Nonce: "n1"}
	sb := mustBytes(ls.SigningBytes())
	ls.Signature = []byte("s")
	ls.MAC = []byte("m")
	if !bytes.Equal(sb, mustBytes(ls.SigningBytes())) {
		t.Fatal("LoginSubmit authenticators leak into signing bytes")
	}
	mb := mustBytes(ls.MACBytes())
	ls.MAC = []byte("other")
	if !bytes.Equal(mb, mustBytes(ls.MACBytes())) {
		t.Fatal("LoginSubmit MAC leaks into MAC bytes")
	}
	// But the signature must be covered by the MAC bytes.
	ls.Signature = []byte("changed")
	if bytes.Equal(mb, mustBytes(ls.MACBytes())) {
		t.Fatal("LoginSubmit signature not covered by MAC bytes")
	}
}

func TestSigningBytesSensitiveToEveryField(t *testing.T) {
	mk := func() *PageRequest {
		return &PageRequest{
			Domain: "d", Account: "a", SessionID: "s", Nonce: "n",
			Action: "act", RiskVerified: 3, RiskWindow: 12,
		}
	}
	base := mustBytes(mk().MACBytes())
	muts := map[string]func(*PageRequest){
		"domain":  func(r *PageRequest) { r.Domain = "d2" },
		"account": func(r *PageRequest) { r.Account = "a2" },
		"session": func(r *PageRequest) { r.SessionID = "s2" },
		"nonce":   func(r *PageRequest) { r.Nonce = "n2" },
		"action":  func(r *PageRequest) { r.Action = "transfer" },
		"riskV":   func(r *PageRequest) { r.RiskVerified = 12 },
		"riskW":   func(r *PageRequest) { r.RiskWindow = 1 },
		"frame":   func(r *PageRequest) { r.FrameHash[0] ^= 1 },
	}
	for name, mut := range muts {
		r := mk()
		mut(r)
		if bytes.Equal(base, mustBytes(r.MACBytes())) {
			t.Errorf("field %s not covered by MAC bytes", name)
		}
	}
}

func TestTranscriptRendering(t *testing.T) {
	var tr Transcript
	tr.Title = "Fig 9 registration"
	tr.Add(0, ServerToDevice, "RegistrationPage", "nonce=abc", true)
	tr.Add(time.Second, Internal, "Capture", "fingerprint verified", true)
	tr.Add(2*time.Second, DeviceToServer, "RegistrationSubmit", "account=a", false)
	if tr.Failures() != 1 {
		t.Fatalf("failures = %d", tr.Failures())
	}
	s := tr.String()
	for _, want := range []string{"Fig 9 registration", "RegistrationPage", "FAIL", "device->server"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Errorf("transcript missing %q:\n%s", want, s)
		}
	}
}

func TestDirectionStrings(t *testing.T) {
	for _, d := range []Direction{DeviceToServer, ServerToDevice, Internal} {
		if d.String() == "" {
			t.Errorf("direction %d empty", int(d))
		}
	}
}
