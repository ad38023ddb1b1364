package protocol_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"testing/quick"

	"trust/internal/frame"
	"trust/internal/pki"
	"trust/internal/protocol"
)

// mustBytes unwraps canonical bytes a test message is built to have.
func mustBytes(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

// binRoundTrip encodes, decodes, and compares canonical bytes: a
// binary round trip must preserve exactly what authenticators cover.
func binRoundTrip[M any](t *testing.T, msg *M, canon func(*M) []byte) {
	t.Helper()
	data, err := protocol.EncodeBinary(msg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := protocol.Decode[M](data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canon(msg), canon(back)) {
		t.Fatalf("canonical bytes changed across binary round trip:\n%T", msg)
	}
}

func sampleCert() *pki.Certificate {
	ca, _ := pki.NewCA("root", pki.NewDeterministicRand(1))
	keys, _ := pki.GenerateKeyPair(pki.NewDeterministicRand(2))
	kem, _ := pki.GenerateKemPair(pki.NewDeterministicRand(3))
	cert, _ := ca.IssueWithKem("www.xyz.com", pki.RoleServer, keys.Public, kem.Public.Bytes())
	return cert
}

func TestBinaryRoundTripAllMessages(t *testing.T) {
	page := rtPage(5)
	cert := sampleCert()
	var h frame.Hash
	h[0], h[31] = 0xab, 0xcd

	binRoundTrip(t, &protocol.RegistrationPage{
		Domain: "www.xyz.com", Nonce: "n1", Page: page, ServerCert: cert, Signature: []byte{1, 2},
	}, func(m *protocol.RegistrationPage) []byte { return mustBytes(m.SigningBytes()) })

	binRoundTrip(t, &protocol.RegistrationSubmit{
		Domain: "www.xyz.com", Account: "a", Nonce: "n2", UserPub: []byte{9, 9},
		FrameHash: h, DeviceCert: cert, Signature: []byte{3},
	}, func(m *protocol.RegistrationSubmit) []byte { return mustBytes(m.SigningBytes()) })

	binRoundTrip(t, &protocol.LoginPage{
		Domain: "www.xyz.com", Nonce: "n3", Page: page, Signature: []byte{4},
	}, func(m *protocol.LoginPage) []byte { return mustBytes(m.SigningBytes()) })

	binRoundTrip(t, &protocol.LoginSubmit{
		Domain: "www.xyz.com", Account: "a", Nonce: "n4", SessionKeyCT: []byte{5, 6},
		FrameHash: h, RiskVerified: 3, RiskWindow: 12, Signature: []byte{7}, MAC: []byte{8},
	}, func(m *protocol.LoginSubmit) []byte { return mustBytes(m.MACBytes()) })

	binRoundTrip(t, &protocol.ContentPage{
		Domain: "www.xyz.com", SessionID: "s", Nonce: "n5", Account: "a", Page: page, MAC: []byte{9},
	}, func(m *protocol.ContentPage) []byte { return mustBytes(m.MACBytes()) })

	binRoundTrip(t, &protocol.PageRequest{
		Domain: "www.xyz.com", Account: "a", SessionID: "s", Nonce: "n6", Action: "act",
		FrameHash: h, RiskVerified: 2, RiskWindow: 12, MAC: []byte{10},
	}, func(m *protocol.PageRequest) []byte { return mustBytes(m.MACBytes()) })

	binRoundTrip(t, &protocol.ResyncRequest{
		Domain: "www.xyz.com", Account: "a", SessionID: "s", MAC: []byte{11, 12},
	}, func(m *protocol.ResyncRequest) []byte { return mustBytes(m.MACBytes()) })
}

// TestBinaryDecodeTruncated chops a valid encoding at every length and
// checks the decoder fails cleanly rather than accepting a prefix.
func TestBinaryDecodeTruncated(t *testing.T) {
	var h frame.Hash
	full, err := protocol.EncodeBinary(&protocol.PageRequest{
		Domain: "www.xyz.com", Account: "acct", SessionID: "sess", Nonce: "nonce",
		Action: "view", FrameHash: h, RiskVerified: 2, RiskWindow: 12,
		MAC: bytes.Repeat([]byte{7}, 32),
	})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(full); n++ {
		if _, err := protocol.Decode[protocol.PageRequest](full[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded", n, len(full))
		}
	}
	if _, err := protocol.Decode[protocol.PageRequest](full); err != nil {
		t.Fatalf("full message failed: %v", err)
	}
}

func TestBinarySmallerThanJSON(t *testing.T) {
	var h frame.Hash
	msg := &protocol.PageRequest{
		Domain: "bank.example", Account: "acct-1", SessionID: "0123456789ab",
		Nonce: "00112233445566778899aabbccddeeff", Action: "view-statement",
		FrameHash: h, RiskVerified: 4, RiskWindow: 12,
		MAC: bytes.Repeat([]byte{1}, 32),
	}
	bin, err := protocol.EncodeBinary(msg)
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(bin) >= len(js) {
		t.Fatalf("binary (%d B) not smaller than JSON (%d B)", len(bin), len(js))
	}
	t.Logf("PageRequest: binary %d B vs JSON %d B", len(bin), len(js))
}

func TestBinaryDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0},                  // bad version
		{1},                  // missing tag
		{1, 99},              // unknown tag
		{1, 6, 0, 0, 0, 200}, // truncated length
		append([]byte{1, 6}, bytes.Repeat([]byte{0}, 3)...),
	}
	for i, c := range cases {
		if _, err := protocol.Decode[protocol.PageRequest](c); err == nil {
			t.Errorf("case %d: garbage decoded", i)
		}
	}
	// Trailing bytes after a valid message are rejected too.
	ok, _ := protocol.EncodeBinary(&protocol.PageRequest{Domain: "d"})
	if _, err := protocol.Decode[protocol.PageRequest](append(ok, 0xff)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestBinaryDecodeNeverPanics(t *testing.T) {
	if err := quick.Check(func(data []byte) bool {
		// Must return an error or a message, never panic.
		_, _ = protocol.Decode[protocol.PageRequest](data)
		_, _ = protocol.Decode[protocol.RegistrationPage](data)
		_, _ = protocol.Decode[protocol.TouchBatch](data)
		return true
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryEncodeUnknownType(t *testing.T) {
	if _, err := protocol.EncodeBinary(42); err == nil {
		t.Fatal("unknown type encoded")
	}
}

func TestBinaryCertificateSurvives(t *testing.T) {
	cert := sampleCert()
	msg := &protocol.RegistrationPage{Domain: "www.xyz.com", Nonce: "n", Page: rtPage(1), ServerCert: cert, Signature: []byte{1}}
	data, _ := protocol.EncodeBinary(msg)
	back, err := protocol.Decode[protocol.RegistrationPage](data)
	if err != nil {
		t.Fatal(err)
	}
	got := back.ServerCert
	ca, _ := pki.NewCA("root", pki.NewDeterministicRand(1))
	if err := got.Verify(ca.PublicKey(), pki.RoleServer); err != nil {
		t.Fatalf("certificate broken by binary transport: %v", err)
	}
}

// TestAuthenticatorsCoverCanonicalBytes pins the one canonical form:
// every SigningBytes and MACBytes is exactly the binary encoding of
// its message with the authenticators it excludes cleared.
func TestAuthenticatorsCoverCanonicalBytes(t *testing.T) {
	page, cert := rtPage(3), sampleCert()
	var h frame.Hash
	h[0] = 0x5a
	sig, mac := []byte{1, 2, 3}, []byte{4, 5, 6}
	enc := func(m any) []byte { return mustBytes(protocol.EncodeBinary(m)) }
	type authCase struct {
		name      string
		got, want []byte
	}
	var cases []authCase
	add := func(name string, got, want []byte) { cases = append(cases, authCase{name, got, want}) }

	rp := protocol.RegistrationPage{Domain: "d", Nonce: "n", Page: page, ServerCert: cert, Signature: sig}
	rpc := rp
	rpc.Signature = nil
	add("RegistrationPage.SigningBytes", mustBytes(rp.SigningBytes()), enc(&rpc))

	rs := protocol.RegistrationSubmit{Domain: "d", Account: "a", Nonce: "n", UserPub: []byte{7}, FrameHash: h, DeviceCert: cert, Signature: sig}
	rsc := rs
	rsc.Signature = nil
	add("RegistrationSubmit.SigningBytes", mustBytes(rs.SigningBytes()), enc(&rsc))

	lp := protocol.LoginPage{Domain: "d", Nonce: "n", Page: page, Signature: sig}
	lpc := lp
	lpc.Signature = nil
	add("LoginPage.SigningBytes", mustBytes(lp.SigningBytes()), enc(&lpc))

	ls := protocol.LoginSubmit{Domain: "d", Account: "a", Nonce: "n", SessionKeyCT: []byte{8}, FrameHash: h, RiskVerified: 3, RiskWindow: 12, Signature: sig, MAC: mac}
	lsSig, lsMAC := ls, ls
	lsSig.Signature, lsSig.MAC = nil, nil
	lsMAC.MAC = nil
	add("LoginSubmit.SigningBytes", mustBytes(ls.SigningBytes()), enc(&lsSig))
	add("LoginSubmit.MACBytes", mustBytes(ls.MACBytes()), enc(&lsMAC))

	cp := protocol.ContentPage{Domain: "d", SessionID: "s", Nonce: "n", Account: "a", Page: page, Ticket: []byte{9}, MAC: mac}
	cpc := cp
	cpc.MAC = nil
	add("ContentPage.MACBytes", mustBytes(cp.MACBytes()), enc(&cpc))

	pr := protocol.PageRequest{Domain: "d", Account: "a", SessionID: "s", Nonce: "n", Action: "x", FrameHash: h, RiskVerified: 2, RiskWindow: 12, MAC: mac}
	prc := pr
	prc.MAC = nil
	add("PageRequest.MACBytes", mustBytes(pr.MACBytes()), enc(&prc))

	rr := protocol.ResyncRequest{Domain: "d", Account: "a", SessionID: "s", MAC: mac}
	rrc := rr
	rrc.MAC = nil
	add("ResyncRequest.MACBytes", mustBytes(rr.MACBytes()), enc(&rrc))

	ru := protocol.ResumeSubmit{Domain: "d", Account: "a", Ticket: []byte{9}, FrameHash: h, RiskVerified: 2, RiskWindow: 12, MAC: mac}
	ruc := ru
	ruc.MAC = nil
	add("ResumeSubmit.MACBytes", mustBytes(ru.MACBytes()), enc(&ruc))

	sh := protocol.StreamHello{Domain: "d", Account: "a", SessionID: "s", MAC: mac}
	shc := sh
	shc.MAC = nil
	add("StreamHello.MACBytes", mustBytes(sh.MACBytes()), enc(&shc))

	sw := protocol.StreamWelcome{Domain: "d", SessionID: "s", NonceSeed: []byte{1}, Window: 12, MinVerified: 2, MAC: mac}
	swc := sw
	swc.MAC = nil
	add("StreamWelcome.MACBytes", mustBytes(sw.MACBytes()), enc(&swc))

	pp := protocol.PolicyPush{Domain: "d", SessionID: "s", Window: 12, MinVerified: 2, Seq: 3, MAC: mac}
	ppc := pp
	ppc.MAC = nil
	add("PolicyPush.MACBytes", mustBytes(pp.MACBytes()), enc(&ppc))

	if len(cases) != 12 {
		t.Fatalf("%d authenticator inputs checked, want 12 (11 message types)", len(cases))
	}
	for _, c := range cases {
		if !bytes.Equal(c.got, c.want) {
			t.Errorf("%s is not the binary encoding with authenticators cleared", c.name)
		}
	}
}
