package device

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"trust/internal/protocol"
	"trust/internal/webserver"
)

// HTTP is the Transport implementation speaking to a webserver.Handler
// over real sockets.
type HTTP struct {
	BaseURL string
	Client  *http.Client
	// Binary selects the compact binary codec (application/octet-
	// stream) instead of JSON on every request and response.
	Binary bool
}

const binaryMIME = "application/octet-stream"

var _ Transport = (*HTTP)(nil)

func (t *HTTP) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return http.DefaultClient
}

// requestURL builds the endpoint URL. The hot path (no extra query
// values) is a plain concatenation — url.Values plus Encode costs four
// allocations per request for a query string that is always "now=N".
func (t *HTTP) requestURL(path string, now time.Duration, extra url.Values) string {
	if len(extra) == 0 {
		return t.BaseURL + path + "?now=" + strconv.FormatInt(int64(now), 10)
	}
	q := url.Values{"now": {strconv.FormatInt(int64(now), 10)}}
	for k, vs := range extra {
		q[k] = vs
	}
	return t.BaseURL + path + "?" + q.Encode()
}

func get[M any](t *HTTP, path string, now time.Duration) (*M, error) {
	req, err := http.NewRequest(http.MethodGet, t.requestURL(path, now, nil), nil)
	if err != nil {
		return nil, err
	}
	if t.Binary {
		req.Header.Set("Accept", binaryMIME)
	}
	resp, err := t.client().Do(req)
	if err != nil {
		// Socket-level failures are the retryable class: the request may
		// or may not have reached the server (see retry.go).
		return nil, fmt.Errorf("%w: GET %s: %v", ErrNetwork, path, err)
	}
	defer resp.Body.Close()
	return decodeResponse[M](resp)
}

// postBody recycles request-body buffers and their readers: the
// continuous-auth hot path posts one PageRequest per touch, and
// marshalling each into a fresh slice plus a fresh reader dominated
// the transport's client-side allocation profile. Safe to recycle
// after Do returns — the transport has fully sent (or abandoned) the
// body by then, and the buffer is not returned to the pool until the
// response is decoded.
type postBody struct {
	buf []byte
	rd  bytes.Reader
}

var postBodyPool = sync.Pool{New: func() any { return new(postBody) }}

func post[M any](t *HTTP, path string, now time.Duration, extra url.Values, in any) (*M, error) {
	pb := postBodyPool.Get().(*postBody)
	defer postBodyPool.Put(pb)
	contentType := "application/json"
	var err error
	if t.Binary {
		pb.buf, err = protocol.EncodeBinaryAppend(pb.buf[:0], in)
		contentType = binaryMIME
	} else {
		var body []byte
		body, err = json.Marshal(in)
		pb.buf = append(pb.buf[:0], body...)
	}
	if err != nil {
		return nil, err
	}
	pb.rd.Reset(pb.buf)
	req, err := http.NewRequest(http.MethodPost, t.requestURL(path, now, extra), &pb.rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	if t.Binary {
		req.Header.Set("Accept", binaryMIME)
	}
	resp, err := t.client().Do(req)
	if err != nil {
		return nil, fmt.Errorf("%w: POST %s: %v", ErrNetwork, path, err)
	}
	defer resp.Body.Close()
	return decodeResponse[M](resp)
}

// maxResponseBytes caps how much of a server response the device will
// buffer. Oversized bodies are rejected with ErrResponseTooLarge
// instead of being silently truncated into a confusing decode error.
const maxResponseBytes = 1 << 20

// ErrResponseTooLarge reports a response body over maxResponseBytes.
var ErrResponseTooLarge = fmt.Errorf("device: response body exceeds %d-byte cap", maxResponseBytes)

// respBufPool recycles response-read buffers. Recycling is safe
// because neither decoder aliases its input: the binary reader copies
// every byte slice and string out, and json.Unmarshal never retains
// the data it parses.
var respBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody buffers a response body into buf, failing cleanly on
// oversize.
func readBody(buf *bytes.Buffer, r io.Reader) error {
	n, err := buf.ReadFrom(io.LimitReader(r, maxResponseBytes+1))
	if err != nil {
		return err
	}
	if n > maxResponseBytes {
		return ErrResponseTooLarge
	}
	return nil
}

// decodeResponse parses a response body as an M. A JSON body is also
// run through the canonical encoder, mirroring the server's request
// check: a message the binary form could not carry (an element kind
// past one byte, say) must not reach a verifier. Non-message bodies
// (RegistrationResult) have no canonical form and skip the check.
func decodeResponse[M any](resp *http.Response) (*M, error) {
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		// Round-trip the server's typed rejection so errors.Is sees the
		// same sentinel either transport would surface (the retry
		// layer's retryable/terminal split depends on it).
		if base := webserver.ErrorFromCode(resp.Header.Get(webserver.ErrorHeader)); base != nil {
			return nil, fmt.Errorf("device: server returned %s: %w", resp.Status, base)
		}
		return nil, fmt.Errorf("device: server returned %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	// Parse the media type properly: a parameterized
	// "application/octet-stream; charset=..." must still select the
	// binary decoder, not fall through to JSON.
	ct, _, _ := mime.ParseMediaType(resp.Header.Get("Content-Type"))
	buf := respBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer respBufPool.Put(buf)
	if err := readBody(buf, resp.Body); err != nil {
		return nil, err
	}
	if ct == binaryMIME {
		return protocol.Decode[M](buf.Bytes())
	}
	m := new(M)
	if err := json.Unmarshal(buf.Bytes(), m); err != nil {
		return nil, err
	}
	if _, err := protocol.EncodeBinary(m); errors.Is(err, protocol.ErrRange) {
		return nil, err
	}
	return m, nil
}

// FetchRegistrationPage implements Transport.
func (t *HTTP) FetchRegistrationPage(now time.Duration) (*protocol.RegistrationPage, error) {
	return get[protocol.RegistrationPage](t, "/trust/register", now)
}

// SubmitRegistration implements Transport.
func (t *HTTP) SubmitRegistration(now time.Duration, sub *protocol.RegistrationSubmit, recovery string) (protocol.RegistrationResult, error) {
	res, err := post[protocol.RegistrationResult](t, "/trust/register", now, url.Values{"recovery": {recovery}}, sub)
	if err != nil {
		return protocol.RegistrationResult{}, err
	}
	return *res, nil
}

// FetchLoginPage implements Transport.
func (t *HTTP) FetchLoginPage(now time.Duration) (*protocol.LoginPage, error) {
	return get[protocol.LoginPage](t, "/trust/login", now)
}

// SubmitLogin implements Transport.
func (t *HTTP) SubmitLogin(now time.Duration, sub *protocol.LoginSubmit) (*protocol.ContentPage, error) {
	return post[protocol.ContentPage](t, "/trust/login", now, nil, sub)
}

// SubmitResume implements Transport.
func (t *HTTP) SubmitResume(now time.Duration, sub *protocol.ResumeSubmit) (*protocol.ContentPage, error) {
	return post[protocol.ContentPage](t, "/trust/resume", now, nil, sub)
}

// SubmitPageRequest implements Transport.
func (t *HTTP) SubmitPageRequest(now time.Duration, req *protocol.PageRequest) (*protocol.ContentPage, error) {
	return post[protocol.ContentPage](t, "/trust/page", now, nil, req)
}

// SubmitResync implements Transport.
func (t *HTTP) SubmitResync(now time.Duration, req *protocol.ResyncRequest) (*protocol.ContentPage, error) {
	return post[protocol.ContentPage](t, "/trust/resync", now, nil, req)
}
