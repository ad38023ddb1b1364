package protocol_test

import (
	"bufio"
	"encoding/hex"
	"os"
	"strings"
	"testing"
	"time"

	"trust/internal/frame"
	"trust/internal/geom"
	"trust/internal/pki"
	"trust/internal/protocol"
)

// goldenPath holds the checked-in wire bytes of one instance of every
// tagged message and every frame payload, one "name hex" pair a line.
// The codec may be restructured freely; these bytes may not change.
const goldenPath = "testdata/wire.golden"

// goldenWire builds each golden instance with every field populated,
// optional pointers present, so no field can drop out of the wire
// unnoticed.
func goldenWire(t *testing.T) map[string][]byte {
	t.Helper()
	var h frame.Hash
	for i := range h {
		h[i] = byte(i + 1)
	}
	page := &frame.Page{
		URL: "https://www.xyz.com/home", Title: "home", Body: "hello", HeightPX: 812.5,
		Elements: []frame.Element{
			{ID: "t", Kind: frame.Text, Label: "Welcome", Bounds: geom.RectWH(10, 20, 300, 40)},
			{ID: "b", Kind: frame.Button, Label: "Pay", Action: "transfer", Bounds: geom.RectWH(40, 660, 120, 60)},
		},
	}
	cert := &pki.Certificate{
		Subject: "www.xyz.com", Role: pki.RoleServer, PublicKey: []byte{1, 2, 3},
		KemKey: []byte{4, 5}, Issuer: "root", Serial: 0x0102030405060708, Signature: []byte{6, 7, 8},
	}
	cp := &protocol.ContentPage{
		Domain: "www.xyz.com", SessionID: "sess", Nonce: "n5", Account: "acct",
		Page: page, Ticket: []byte{0xee, 0xff}, MAC: []byte{9},
	}
	req := &protocol.PageRequest{
		Domain: "www.xyz.com", Account: "acct", SessionID: "sess", Nonce: "n6", Action: "view",
		FrameHash: h, RiskVerified: 3, RiskWindow: 12, MAC: []byte{10},
	}
	resume := &protocol.ResumeSubmit{
		Domain: "www.xyz.com", Account: "acct", Ticket: []byte{0xab}, FrameHash: h,
		RiskVerified: 2, RiskWindow: 8, MAC: []byte{11},
	}
	resync := &protocol.ResyncRequest{Domain: "www.xyz.com", Account: "acct", SessionID: "sess", MAC: []byte{12}}

	check := func(b []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	out := make(map[string][]byte)
	msg := func(name string, m any) { out[name] = check(protocol.EncodeBinary(m)) }
	msg("RegistrationPage", &protocol.RegistrationPage{
		Domain: "www.xyz.com", Nonce: "n1", Page: page, ServerCert: cert, Signature: []byte{1, 2},
	})
	msg("RegistrationSubmit", &protocol.RegistrationSubmit{
		Domain: "www.xyz.com", Account: "acct", Nonce: "n2", UserPub: []byte{9, 9},
		FrameHash: h, DeviceCert: cert, Signature: []byte{3},
	})
	msg("LoginPage", &protocol.LoginPage{Domain: "www.xyz.com", Nonce: "n3", Page: page, Signature: []byte{4}})
	msg("LoginSubmit", &protocol.LoginSubmit{
		Domain: "www.xyz.com", Account: "acct", Nonce: "n4", SessionKeyCT: []byte{5, 6},
		FrameHash: h, RiskVerified: 3, RiskWindow: 12, Signature: []byte{7}, MAC: []byte{8},
	})
	msg("ContentPage", cp)
	msg("PageRequest", req)
	msg("ResyncRequest", resync)
	msg("StreamHello", &protocol.StreamHello{Domain: "www.xyz.com", Account: "acct", SessionID: "sess", MAC: []byte{13}})
	msg("StreamWelcome", &protocol.StreamWelcome{
		Domain: "www.xyz.com", SessionID: "sess", NonceSeed: []byte("0123456789abcdef"),
		Window: 12, MinVerified: 2, MAC: []byte{14},
	})
	msg("PolicyPush", &protocol.PolicyPush{
		Domain: "www.xyz.com", SessionID: "sess", Window: 8, MinVerified: 3, Seq: 4, MAC: []byte{15},
	})
	msg("ResumeSubmit", resume)

	out["frame/touch-batch"] = check(protocol.EncodeTouchBatch(42, 9*time.Second, []*protocol.PageRequest{req, req}))
	pf := check(protocol.AppendPageFrame(nil, 7, 1, cp))
	if protocol.FrameType(pf[0]) != protocol.FramePage {
		t.Fatalf("frame/page: header type %d", pf[0])
	}
	out["frame/page"] = pf[5:] // payload only; the 5-byte header is WriteFrame's
	out["frame/resume"] = check(protocol.EncodeResumeFrame(1, 3*time.Second, resume))
	out["frame/resync"] = check(protocol.EncodeResyncFrame(11, resync))
	out["frame/ack"] = protocol.EncodeAck(5, "bad-nonce", "nonce replayed")
	out["frame/heartbeat"] = protocol.EncodeHeartbeat(6, 4*time.Second)
	return out
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, hx, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[name] = hx
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestGoldenWireBytes pins the binary wire form: every tagged message
// and every frame payload must encode to exactly its checked-in bytes.
func TestGoldenWireBytes(t *testing.T) {
	got := goldenWire(t)
	want := readGolden(t)
	if len(got) != 17 || len(want) != len(got) {
		t.Fatalf("golden covers %d shapes, test builds %d; want 11 messages + 6 payloads", len(want), len(got))
	}
	for name, b := range got {
		if hx := hex.EncodeToString(b); hx != want[name] {
			t.Errorf("%s wire bytes changed:\n got %s\nwant %s", name, hx, want[name])
		}
	}
}
