package webserver

import (
	"bytes"
	"crypto/ed25519"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"trust/internal/frame"
	"trust/internal/pki"
	"trust/internal/protocol"
)

// rejectFixture is the state every rejection case starts from: a
// registered account with a live session and the ticket its login
// issued.
type rejectFixture struct {
	r      *rig
	sess   *protocol.Session
	ticket []byte
}

// loginSub builds a valid login submission; the returned session holds
// the fresh session key it carries.
func (fx *rejectFixture) loginSub(t *testing.T) (*protocol.LoginSubmit, *protocol.Session) {
	t.Helper()
	r := fx.r
	lp := r.server.ServeLoginPage(r.now)
	r.client.DisplayPage(lp.Page, frame.View{Zoom: 1})
	r.touchButton(t)
	sub, sess, err := r.client.HandleLoginPage(r.now, lp, r.server.Certificate(), "acct", 12)
	if err != nil {
		t.Fatal(err)
	}
	return sub, sess
}

// resign re-signs a tampered login submission with the account key, so
// checks after the signature see the tampering.
func (fx *rejectFixture) resign(t *testing.T, sub *protocol.LoginSubmit) {
	t.Helper()
	rec, err := fx.r.module.Record("www.xyz.com")
	if err != nil {
		t.Fatal(err)
	}
	sub.Signature = ed25519.Sign(rec.Keys.Private, must(sub.SigningBytes()))
}

// resumeSub builds a valid resume submission for the fixture's ticket.
func (fx *rejectFixture) resumeSub(t *testing.T) *protocol.ResumeSubmit {
	sub, _ := fx.r.buildResume(t, "acct", fx.ticket, fx.sess.Key)
	return sub
}

// pageReq builds a valid page request echoing the session's nonce.
func (fx *rejectFixture) pageReq(t *testing.T) *protocol.PageRequest {
	t.Helper()
	fx.r.touchButton(t)
	req, err := fx.r.client.BuildPageRequest(fx.r.now, fx.sess, "home", 12)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

func (fx *rejectFixture) resyncReq(t *testing.T) *protocol.ResyncRequest {
	t.Helper()
	req, err := fx.r.client.BuildResync(fx.sess)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

func (fx *rejectFixture) hello(t *testing.T) *protocol.StreamHello {
	t.Helper()
	h, err := protocol.BuildStreamHello(fx.sess)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func (fx *rejectFixture) regSub(t *testing.T, account string) *protocol.RegistrationSubmit {
	t.Helper()
	r := fx.r
	page := r.server.ServeRegistrationPage(r.now)
	r.client.DisplayPage(page.Page, frame.View{Zoom: 1})
	r.touchButton(t)
	sub, err := r.client.HandleRegistrationPage(r.now, page, account)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

// rejectCase is one rejection cause for one operation. msg builds the
// message the server must reject; it may change server state first.
// Registration answers with a result, not a typed error, so its want
// is compared as the result's Reason text.
type rejectCase struct {
	op   string
	name string
	want error
	msg  func(t *testing.T, fx *rejectFixture) any
}

func flip(b []byte) []byte {
	b = append([]byte(nil), b...)
	b[0] ^= 1
	return b
}

var rejectCases = []rejectCase{
	{"register", "domain", errors.New("domain mismatch"), func(t *testing.T, fx *rejectFixture) any {
		sub := fx.regSub(t, "bob")
		sub.Domain = "evil.com"
		return sub
	}},
	{"register", "signature", errors.New("submission signature invalid"), func(t *testing.T, fx *rejectFixture) any {
		sub := fx.regSub(t, "bob")
		sub.Signature = flip(sub.Signature)
		return sub
	}},
	{"register", "nonce", errors.New("nonce unknown or replayed"), func(t *testing.T, fx *rejectFixture) any {
		sub := fx.regSub(t, "bob")
		if res := fx.r.server.HandleRegistration(fx.r.now, sub, ""); !res.OK {
			t.Fatal(res.Reason)
		}
		return sub
	}},
	{"register", "taken", ErrTaken, func(t *testing.T, fx *rejectFixture) any {
		return fx.regSub(t, "acct")
	}},
	{"register", "degraded", ErrStorage, func(t *testing.T, fx *rejectFixture) any {
		fx.r.server.tripDegraded()
		return fx.regSub(t, "bob")
	}},

	{"login", "malformed", ErrMalformed, func(t *testing.T, fx *rejectFixture) any {
		sub, _ := fx.loginSub(t)
		sub.Domain = "evil.com"
		return sub
	}},
	{"login", "rate-limited", ErrRateLimited, func(t *testing.T, fx *rejectFixture) any {
		sub, _ := fx.loginSub(t)
		fx.r.server.MaxLoginFailures = 0
		return sub
	}},
	{"login", "unknown-account", ErrUnknownAccount, func(t *testing.T, fx *rejectFixture) any {
		sub, _ := fx.loginSub(t)
		sub.Account = "ghost"
		return sub
	}},
	{"login", "signature", ErrBadSignature, func(t *testing.T, fx *rejectFixture) any {
		sub, _ := fx.loginSub(t)
		sub.Signature = flip(sub.Signature)
		return sub
	}},
	{"login", "replay", ErrBadNonce, func(t *testing.T, fx *rejectFixture) any {
		sub, _ := fx.loginSub(t)
		if _, err := fx.r.server.HandleLogin(fx.r.now, sub); err != nil {
			t.Fatal(err)
		}
		return sub
	}},
	{"login", "key", ErrBadKey, func(t *testing.T, fx *rejectFixture) any {
		sub, _ := fx.loginSub(t)
		sub.SessionKeyCT = flip(sub.SessionKeyCT)
		fx.resign(t, sub)
		return sub
	}},
	{"login", "mac", ErrBadMAC, func(t *testing.T, fx *rejectFixture) any {
		sub, _ := fx.loginSub(t)
		sub.MAC = flip(sub.MAC)
		return sub
	}},
	{"login", "risk", ErrRiskPolicy, func(t *testing.T, fx *rejectFixture) any {
		sub, _ := fx.loginSub(t)
		fx.r.server.SetRiskPolicy(RiskPolicy{Window: 1, MinVerified: 100})
		return sub
	}},

	{"resume", "malformed", ErrMalformed, func(t *testing.T, fx *rejectFixture) any {
		sub := fx.resumeSub(t)
		sub.Ticket = nil
		return sub
	}},
	{"resume", "rate-limited", ErrRateLimited, func(t *testing.T, fx *rejectFixture) any {
		sub := fx.resumeSub(t)
		fx.r.server.MaxLoginFailures = 0
		return sub
	}},
	{"resume", "tampered-ticket", ErrBadTicket, func(t *testing.T, fx *rejectFixture) any {
		sub := fx.resumeSub(t)
		sub.Ticket = flip(sub.Ticket)
		return sub
	}},
	{"resume", "foreign-ticket", ErrBadTicket, func(t *testing.T, fx *rejectFixture) any {
		sub := fx.resumeSub(t)
		sub.Account = "other"
		return sub
	}},
	{"resume", "unknown-account", ErrUnknownAccount, func(t *testing.T, fx *rejectFixture) any {
		sub := fx.resumeSub(t)
		if err := fx.r.server.ResetIdentity(fx.r.now, "acct", "old-password-123"); err != nil {
			t.Fatal(err)
		}
		return sub
	}},
	{"resume", "mac", ErrBadMAC, func(t *testing.T, fx *rejectFixture) any {
		sub := fx.resumeSub(t)
		sub.MAC = flip(sub.MAC)
		return sub
	}},
	{"resume", "risk", ErrRiskPolicy, func(t *testing.T, fx *rejectFixture) any {
		sub := fx.resumeSub(t)
		sub.RiskVerified = 0
		sub.MAC = pki.MAC(fx.sess.Key, must(sub.MACBytes()))
		return sub
	}},
	{"resume", "replay", ErrBadTicket, func(t *testing.T, fx *rejectFixture) any {
		if _, err := fx.r.server.HandleResume(fx.r.now, fx.resumeSub(t)); err != nil {
			t.Fatal(err)
		}
		return fx.resumeSub(t)
	}},

	{"page", "malformed", ErrMalformed, func(t *testing.T, fx *rejectFixture) any {
		req := fx.pageReq(t)
		req.Domain = "evil.com"
		return req
	}},
	{"page", "unknown-session", ErrUnknownSession, func(t *testing.T, fx *rejectFixture) any {
		req := fx.pageReq(t)
		req.SessionID = "nope"
		return req
	}},
	{"page", "revoked", ErrUnknownSession, func(t *testing.T, fx *rejectFixture) any {
		req := fx.pageReq(t)
		fx.r.server.revokeSessions("acct")
		return req
	}},
	{"page", "mac", ErrBadMAC, func(t *testing.T, fx *rejectFixture) any {
		req := fx.pageReq(t)
		req.MAC = flip(req.MAC)
		return req
	}},
	{"page", "nonce", ErrBadNonce, func(t *testing.T, fx *rejectFixture) any {
		fx.r.touchButton(t)
		req, err := fx.r.client.BuildPageRequestAt(fx.r.now, fx.sess, "home", 12, "stale")
		if err != nil {
			t.Fatal(err)
		}
		return req
	}},
	{"page", "risk", ErrRiskPolicy, func(t *testing.T, fx *rejectFixture) any {
		req := fx.pageReq(t)
		req.RiskVerified = 0
		req.MAC = pki.MAC(fx.sess.Key, must(req.MACBytes()))
		return req
	}},

	{"resync", "malformed", ErrMalformed, func(t *testing.T, fx *rejectFixture) any {
		req := fx.resyncReq(t)
		req.Domain = "evil.com"
		return req
	}},
	{"resync", "unknown-session", ErrUnknownSession, func(t *testing.T, fx *rejectFixture) any {
		req := fx.resyncReq(t)
		req.SessionID = "nope"
		return req
	}},
	{"resync", "revoked", ErrUnknownSession, func(t *testing.T, fx *rejectFixture) any {
		fx.r.server.revokeSessions("acct")
		return fx.resyncReq(t)
	}},
	{"resync", "mac", ErrBadMAC, func(t *testing.T, fx *rejectFixture) any {
		req := fx.resyncReq(t)
		req.MAC = flip(req.MAC)
		return req
	}},

	{"hello", "malformed", ErrMalformed, func(t *testing.T, fx *rejectFixture) any {
		h := fx.hello(t)
		h.Domain = "evil.com"
		return h
	}},
	{"hello", "unknown-session", ErrUnknownSession, func(t *testing.T, fx *rejectFixture) any {
		h := fx.hello(t)
		h.SessionID = "nope"
		return h
	}},
	{"hello", "foreign-session", ErrUnknownSession, func(t *testing.T, fx *rejectFixture) any {
		h := fx.hello(t)
		h.Account = "other"
		return h
	}},
	{"hello", "mac", ErrBadMAC, func(t *testing.T, fx *rejectFixture) any {
		h := fx.hello(t)
		h.MAC = flip(h.MAC)
		return h
	}},
	{"hello", "revoked", ErrUnknownSession, func(t *testing.T, fx *rejectFixture) any {
		fx.r.server.revokeSessions("acct")
		return fx.hello(t)
	}},
}

// rejectFronts lists the fronts each operation is served on. The
// stream front carries resume as the resume-first frame, page requests
// as a touch batch, and hello as the opening frame.
var rejectFronts = map[string][]string{
	"register": {"direct", "http"},
	"login":    {"direct", "http"},
	"resume":   {"direct", "http", "stream"},
	"page":     {"direct", "http", "stream"},
	"resync":   {"direct", "http", "stream"},
	"hello":    {"stream"},
}

// TestRejectionAccounting drives every rejection cause through every
// front that serves it. Each rejection must count exactly once as
// rejected, never as accepted, and surface the wire code of the error
// the direct call returns.
func TestRejectionAccounting(t *testing.T) {
	for _, c := range rejectCases {
		for _, fr := range rejectFronts[c.op] {
			t.Run(c.op+"/"+c.name+"/"+fr, func(t *testing.T) {
				r := newRig(t)
				r.register(t, "acct")
				sess, cp := r.login(t, "acct")
				fx := &rejectFixture{r: r, sess: sess, ticket: cp.Ticket}
				var conn io.ReadWriteCloser
				if fr == "stream" && (c.op == "page" || c.op == "resync") {
					conn, _, _ = openStream(t, r, sess)
					defer conn.Close()
				}
				msg := c.msg(t, fx)

				accepted, rejected := r.server.AcceptedRequests(), r.server.RejectedRequests()
				var got string
				switch fr {
				case "direct":
					got = submitDirect(t, r, msg, c.want)
				case "http":
					got = submitHTTP(t, r, c.op, msg)
				case "stream":
					got = submitStream(t, r, conn, msg)
				}
				want := wireCode(c.want)
				if c.op == "register" {
					want = c.want.Error()
				}
				if got != want {
					t.Errorf("rejected with %q, want %q", got, want)
				}
				if d := r.server.RejectedRequests() - rejected; d != 1 {
					t.Errorf("rejected counter moved by %d, want 1", d)
				}
				if d := r.server.AcceptedRequests() - accepted; d != 0 {
					t.Errorf("accepted counter moved by %d, want 0", d)
				}
			})
		}
	}
}

// submitDirect calls the handler for msg in-process and returns the
// wire code of its error (the result's Reason for registrations).
func submitDirect(t *testing.T, r *rig, msg any, want error) string {
	t.Helper()
	var err error
	switch m := msg.(type) {
	case *protocol.RegistrationSubmit:
		res := r.server.HandleRegistration(r.now, m, "")
		if res.OK {
			t.Fatal("registration accepted")
		}
		return res.Reason
	case *protocol.LoginSubmit:
		_, err = r.server.HandleLogin(r.now, m)
	case *protocol.ResumeSubmit:
		_, err = r.server.HandleResume(r.now, m)
	case *protocol.PageRequest:
		_, err = r.server.HandlePageRequest(r.now, m)
	case *protocol.ResyncRequest:
		_, err = r.server.HandleResync(r.now, m)
	default:
		t.Fatalf("no direct front for %T", msg)
	}
	if !errors.Is(err, want) {
		t.Fatalf("direct call returned %v, want %v", err, want)
	}
	return wireCode(err)
}

// submitHTTP posts msg to /trust/<op> in the binary codec and returns
// the response's error header (the result's Reason for registrations).
func submitHTTP(t *testing.T, r *rig, op string, msg any) string {
	t.Helper()
	ts := httptest.NewServer(r.server.Handler())
	defer ts.Close()
	body, err := protocol.EncodeBinary(msg)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/trust/"+op+"?now="+strconv.FormatInt(int64(r.now), 10), bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", binaryMIME)
	req.Header.Set("Accept", binaryMIME)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if op == "register" {
		var res protocol.RegistrationResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		return res.Reason
	}
	if resp.StatusCode == http.StatusOK {
		t.Fatal("request accepted")
	}
	return resp.Header.Get(ErrorHeader)
}

// submitStream sends msg as a stream frame and returns the answering
// ack's code. Hello and resume open a fresh connection; page and
// resync requests ride conn, already bound by a hello.
func submitStream(t *testing.T, r *rig, conn io.ReadWriteCloser, msg any) string {
	t.Helper()
	var exit chan error
	if conn == nil {
		c1, c2 := net.Pipe()
		defer c1.Close()
		exit = make(chan error, 1)
		go func() { exit <- r.server.ServeStream(c2) }()
		conn = c1
	}
	var ft protocol.FrameType
	var payload []byte
	var err error
	switch m := msg.(type) {
	case *protocol.StreamHello:
		ft = protocol.FrameHello
		payload, err = protocol.EncodeBinary(m)
	case *protocol.ResumeSubmit:
		ft = protocol.FrameResume
		payload, err = protocol.EncodeResumeFrame(1, r.now, m)
	case *protocol.PageRequest:
		ft = protocol.FrameTouchBatch
		payload, err = protocol.EncodeTouchBatch(1, r.now, []*protocol.PageRequest{m})
	case *protocol.ResyncRequest:
		ft = protocol.FrameResync
		payload, err = protocol.EncodeResyncFrame(1, m)
	default:
		t.Fatalf("no stream front for %T", msg)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := protocol.WriteFrame(conn, ft, payload); err != nil {
		t.Fatal(err)
	}
	got, payload, err := protocol.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if got != protocol.FrameAck {
		t.Fatalf("answered with %s frame, want ack", got)
	}
	ack, err := protocol.Decode[protocol.Ack](payload)
	if err != nil {
		t.Fatal(err)
	}
	if exit != nil && <-exit == nil {
		t.Fatal("rejected opening frame left the stream serving")
	}
	return ack.Code
}
