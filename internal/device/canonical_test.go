package device

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"trust/internal/frame"
	"trust/internal/protocol"
	"trust/internal/webserver"
)

// forgeCase names an honest message and a way to push one of its int
// fields outside the canonical form's u32 range after it was signed or
// MAC'd — what malware on the untrusted host can do to a message in
// flight over the JSON transport.
type forgeCase struct {
	msg    string
	forge  string
	mutate func(*int)
}

var forgeCases = []forgeCase{
	{"login", "+2^32", func(v *int) { *v += 1 << 32 }},
	{"login", "-1", func(v *int) { *v = -1 }},
	{"resume", "+2^32", func(v *int) { *v += 1 << 32 }},
	{"resume", "-1", func(v *int) { *v = -1 }},
	{"page", "+2^32", func(v *int) { *v += 1 << 32 }},
	{"page", "-1", func(v *int) { *v = -1 }},
}

// forgedMessage builds the honest message for c and applies the forgery
// to its RiskVerified field.
func forgedMessage(t *testing.T, fx *fixture, c forgeCase) any {
	t.Helper()
	var msg any
	var field *int
	var err error
	switch c.msg {
	case "login":
		lp := fx.server.ServeLoginPage(fx.now)
		fx.dev.display(lp.Page)
		fx.touchOwner(t)
		var sub *protocol.LoginSubmit
		sub, _, err = fx.dev.Client.HandleLoginPage(fx.now, lp, fx.server.Certificate(), "acct", 12)
		msg, field = sub, &sub.RiskVerified
	case "resume":
		fx.dev.display(fx.dev.loginPage)
		fx.touchOwner(t)
		var sub *protocol.ResumeSubmit
		sub, _, err = fx.dev.Client.BuildResumeSubmit(fx.now, "www.xyz.com", "acct", fx.dev.ticket, fx.dev.ticketKey, 12)
		msg, field = sub, &sub.RiskVerified
	case "page":
		fx.touchOwner(t)
		var req *protocol.PageRequest
		req, err = fx.dev.Client.BuildPageRequest(fx.now, fx.dev.session, "home", 12)
		msg, field = req, &req.RiskVerified
	}
	if err != nil {
		t.Fatal(err)
	}
	c.mutate(field)
	return msg
}

// kindPage is a page whose element kind does not fit the wire's byte.
func kindPage() *frame.Page {
	return &frame.Page{URL: "https://www.xyz.com/home", Title: "home", HeightPX: 800,
		Elements: []frame.Element{{ID: "b", Kind: 256, Label: "Pay", Action: "pay"}}}
}

// jsonServer answers every request with body as JSON.
func jsonServer(t *testing.T, body any) *HTTP {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(body); err != nil {
			t.Error(err)
		}
	}))
	t.Cleanup(ts.Close)
	return &HTTP{BaseURL: ts.URL, Client: ts.Client()}
}

// TestOutOfRangeFieldsRefused checks that the canonical form is
// injective at every front a struct-typed message enters by: an int
// field outside [0, 2^32) or an element kind outside [0, 255] must be
// refused — never truncated into the bytes an authenticator covers, and
// never a panic. The server fronts are the direct call and HTTP-JSON
// (the binary wire cannot carry such a value); the device fronts are
// its JSON response decoder and its own verifier.
func TestOutOfRangeFieldsRefused(t *testing.T) {
	type check struct {
		name string
		run  func(t *testing.T, fx *fixture, ts *httptest.Server) error
		want func(err error) bool
	}
	var checks []check
	for _, c := range forgeCases {
		c := c
		checks = append(checks,
			check{"server/direct/" + c.msg + "/" + c.forge, func(t *testing.T, fx *fixture, _ *httptest.Server) error {
				var err error
				switch m := forgedMessage(t, fx, c).(type) {
				case *protocol.LoginSubmit:
					_, err = fx.server.HandleLogin(fx.now, m)
				case *protocol.ResumeSubmit:
					_, err = fx.server.HandleResume(fx.now, m)
				case *protocol.PageRequest:
					_, err = fx.server.HandlePageRequest(fx.now, m)
				}
				return err
			}, func(err error) bool { return errors.Is(err, webserver.ErrMalformed) }},
			check{"server/http-json/" + c.msg + "/" + c.forge, func(t *testing.T, fx *fixture, ts *httptest.Server) error {
				tr := &HTTP{BaseURL: ts.URL, Client: ts.Client()}
				var err error
				switch m := forgedMessage(t, fx, c).(type) {
				case *protocol.LoginSubmit:
					_, err = tr.SubmitLogin(fx.now, m)
				case *protocol.ResumeSubmit:
					_, err = tr.SubmitResume(fx.now, m)
				case *protocol.PageRequest:
					_, err = tr.SubmitPageRequest(fx.now, m)
				}
				return err
			}, func(err error) bool { return err != nil && strings.Contains(err.Error(), "400 Bad Request") }},
		)
	}
	refusesRange := func(err error) bool { return errors.Is(err, protocol.ErrRange) }
	checks = append(checks,
		check{"device/http-json/login-page/kind-256", func(t *testing.T, fx *fixture, _ *httptest.Server) error {
			lp := &protocol.LoginPage{Domain: "www.xyz.com", Nonce: "n", Page: kindPage(), Signature: []byte{1}}
			_, err := jsonServer(t, lp).FetchLoginPage(fx.now)
			return err
		}, refusesRange},
		check{"device/http-json/content-page/kind-256", func(t *testing.T, fx *fixture, _ *httptest.Server) error {
			sess := fx.dev.session
			cp := &protocol.ContentPage{Domain: sess.Domain, SessionID: sess.ID, Nonce: "n", Account: sess.Account, Page: kindPage(), MAC: []byte{1}}
			_, err := jsonServer(t, cp).SubmitPageRequest(fx.now, &protocol.PageRequest{Domain: sess.Domain})
			return err
		}, refusesRange},
		check{"device/direct/content-page/kind-256", func(t *testing.T, fx *fixture, _ *httptest.Server) error {
			sess := fx.dev.session
			cp := &protocol.ContentPage{Domain: sess.Domain, SessionID: sess.ID, Nonce: "n", Account: sess.Account, Page: kindPage(), MAC: []byte{1}}
			return fx.dev.Client.AcceptContentPage(sess, cp)
		}, refusesRange},
	)

	for _, c := range checks {
		t.Run(c.name, func(t *testing.T) {
			fx := newFixture(t, nil)
			fx.registerAndLogin(t)
			// Under this policy the honest 3-of-n report fails, so only
			// a truncated forgery could pass.
			fx.server.SetRiskPolicy(webserver.RiskPolicy{Window: 2, MinVerified: 4})
			ts := httptest.NewServer(fx.server.Handler())
			defer ts.Close()
			accepted := fx.server.AcceptedRequests()
			if err := c.run(t, fx, ts); !c.want(err) {
				t.Fatalf("out-of-range message not refused as expected: %v", err)
			}
			if got := fx.server.AcceptedRequests(); got != accepted {
				t.Fatalf("server accepted the forgery: accepted %d -> %d", accepted, got)
			}
		})
	}
}
