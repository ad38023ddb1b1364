package webserver

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"trust/internal/pki"
	"trust/internal/protocol"
)

// Streamed session transport, server side. Each connected device gets
// one long-lived connection and one read-loop goroutine; all state the
// loop touches lives in the existing sharded stores (sessions,
// accounts, nonces) plus a per-connection struct owned by the loop, so
// streams add no locks to the request hot path. The only cross-
// connection structure is the stream registry, touched at
// connect/teardown and on policy pushes — never per request.
//
// Wire shape (docs/protocol.md, "Stream framing"): the first frame
// must be a MAC-proof hello binding the connection to an established
// session; the server answers with a welcome carrying a fresh nonce
// seed. From then on request nonces walk the chain
// StreamNonce(key, seed, i), so the streamed hot path validates and
// rotates nonces without ever drawing server entropy (mintNonce's
// entropy lock is the one piece of global state the per-request path
// still shared).

// MaxHeartbeatSkew bounds how far past the connection's observed
// session time a heartbeat may jump it forward. Forward time is the
// client's prerogative on every transport (HTTP requests carry their
// own "now" too), but a jump of this size would expire every live
// nonce and ticket epoch at once, which no legitimate virtual clock
// does — the connection dies with a typed malformed ack instead. The
// bound applies only once the connection has observed a timestamp:
// the first time signal on a fresh hello-bound stream is accepted
// as-is, whatever the device's clock says.
const MaxHeartbeatSkew = 24 * time.Hour

// streamConn is one live device stream. The read loop owns rwc reads,
// seq, and lastNow; writes are serialized by wmu because policy pushes
// arrive from other goroutines.
type streamConn struct {
	s    *Server
	rwc  io.ReadWriteCloser
	sess *session
	seed []byte

	chain   *protocol.NonceChain // read loop only (created before the loop starts)
	seq     uint64               // nonce-chain position, read loop only
	lastNow time.Duration        // latest client-reported virtual time, read loop only
	out     []byte               // batch-response scratch, read loop only

	wmu     sync.Mutex // serializes frame writes (responses vs policy push)
	pushSeq uint64     // policy-push counter, under wmu
}

// nextNonce advances the connection's nonce chain; handlePageRequest
// calls it exactly once per accepted request, under the session mutex.
func (sc *streamConn) nextNonce() protocol.Nonce {
	sc.seq++
	return sc.chain.At(sc.seq)
}

// write sends one frame under the write mutex.
func (sc *streamConn) write(t protocol.FrameType, payload []byte) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	return protocol.WriteFrame(sc.rwc, t, payload)
}

// writeRaw flushes pre-framed bytes in a single write under the write
// mutex. Frames are self-delimiting, so concatenating a whole batch's
// responses into one write keeps the wire identical while paying one
// syscall instead of one per page.
func (sc *streamConn) writeRaw(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	_, err := sc.rwc.Write(b)
	return err
}

// writeAck reports a request rejection (or acknowledges a bye).
func (sc *streamConn) writeAck(seq uint64, code, detail string) error {
	return sc.write(protocol.FrameAck, protocol.EncodeAck(seq, code, detail))
}

// refuse answers a stream's opening frame with an error ack. The
// connection never bound, so the ack goes straight to the socket and a
// write error changes nothing: the caller is tearing the stream down.
func refuse(w io.Writer, seq uint64, code, detail string) {
	_ = protocol.WriteFrame(w, protocol.FrameAck, protocol.EncodeAck(seq, code, detail))
}

// ServeStream runs the per-connection read loop until the peer
// disconnects, misbehaves, or sends a bye frame. It returns nil on
// clean teardown (bye or EOF between frames) and the fatal error
// otherwise; either way the connection is closed on return. Callers
// typically run it in a goroutine per accepted connection
// (ServeStreamListener) — net.Pipe works just as well for tests.
func (s *Server) ServeStream(rwc io.ReadWriteCloser) error {
	defer rwc.Close()

	// All frame reads go through one frame reader: a small buffer that
	// grows only while frames or coalesced reads need it, lending each
	// payload until the next frame is read.
	fr := protocol.NewFrameReader(rwc)

	// The first frame must bind the connection to a session: a hello
	// proving an established session's key, or a resume presenting a
	// ticket (which creates the session right here, saving the resumed
	// login an HTTP round trip). Anything else is a protocol violation
	// answered with a malformed ack.
	ft, payload, err := fr.Next()
	if err != nil {
		return err
	}
	var sc *streamConn
	var opening []byte // pre-framed welcome (plus resume content page)
	switch ft {
	case protocol.FrameHello:
		hello, err := protocol.Decode[protocol.StreamHello](payload)
		if err != nil {
			refuse(rwc, 0, "malformed", err.Error())
			return err
		}
		conn, herr := s.acceptStreamHello(rwc, hello)
		if herr != nil {
			refuse(rwc, 0, wireCode(herr), herr.Error())
			return herr
		}
		if opening, err = conn.appendWelcome(opening); err != nil {
			return err
		}
		sc = conn
	case protocol.FrameResume:
		rf, err := protocol.Decode[protocol.ResumeFrame](payload)
		if err != nil {
			refuse(rwc, protocol.FrameSeq(ft, payload), "malformed", err.Error())
			return err
		}
		conn, cp, herr := s.acceptStreamResume(rwc, rf.Now, rf.Submit)
		if herr != nil {
			refuse(rwc, rf.Seq, wireCode(herr), herr.Error())
			return herr
		}
		if opening, err = conn.appendWelcome(opening); err != nil {
			return err
		}
		// The resumed session's first content page (nonce chain head,
		// fresh ticket) rides directly behind the welcome, echoing the
		// resume frame's sequence number.
		if opening, err = protocol.AppendPageFrame(opening, rf.Seq, 0, cp); err != nil {
			return err
		}
		conn.lastNow = rf.Now
		sc = conn
	default:
		refuse(rwc, 0, "malformed", "expected hello or resume, got "+ft.String())
		return fmt.Errorf("%w: stream opened with %s frame", ErrMalformed, ft)
	}
	// Register before the opening frames go out, holding the write
	// mutex across both so no policy push can overtake the welcome on
	// the wire — and so a connection whose client has seen the welcome
	// is guaranteed to be in the push registry.
	sc.wmu.Lock()
	s.registerStream(sc)
	_, werr := sc.rwc.Write(opening)
	sc.wmu.Unlock()
	defer s.unregisterStream(sc)
	if werr != nil {
		return werr
	}

	for {
		ft, payload, err := fr.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				// The peer vanished between frames: normal teardown for a
				// device that lost power or link. Mid-frame cuts surface
				// as ErrUnexpectedEOF instead and are reported.
				return nil
			}
			return err
		}
		switch ft {
		case protocol.FrameTouchBatch:
			tb, err := protocol.Decode[protocol.TouchBatch](payload)
			if err != nil {
				_ = sc.writeAck(protocol.FrameSeq(ft, payload), "malformed", err.Error())
				return err
			}
			// Session time only moves forward: a batch stamped earlier
			// than what this connection already saw is applied at its own
			// timestamp (exactly like the HTTP path), but it cannot drag
			// lastNow — and with it resync and expiry decisions — back.
			if tb.Now > sc.lastNow {
				sc.lastNow = tb.Now
			}
			if err := sc.handleBatch(tb); err != nil {
				return err
			}
		case protocol.FrameResync:
			rf, err := protocol.Decode[protocol.ResyncFrame](payload)
			if err != nil {
				_ = sc.writeAck(protocol.FrameSeq(ft, payload), "malformed", err.Error())
				return err
			}
			cp, herr := s.handleResync(sc.lastNow, rf.Request, sc.nextNonce)
			if herr != nil {
				if err := sc.writeAck(rf.Seq, wireCode(herr), herr.Error()); err != nil {
					return err
				}
				continue
			}
			pf, err := protocol.AppendPageFrame(sc.out[:0], rf.Seq, 0, cp)
			if err != nil {
				return err
			}
			sc.out = pf[:0]
			if err := sc.writeRaw(pf); err != nil {
				return err
			}
		case protocol.FrameHeartbeat:
			hb, err := protocol.Decode[protocol.Heartbeat](payload)
			if err != nil {
				_ = sc.writeAck(protocol.FrameSeq(ft, payload), "malformed", err.Error())
				return err
			}
			seq, now := hb.Seq, hb.Now
			// Heartbeat time advances the session clock under a
			// monotonicity contract (docs/protocol.md): backwards values
			// are clamped — a faulted or malicious client must not move
			// session time back past nonce/ticket expiry decisions — and
			// a jump past MaxHeartbeatSkew kills the connection with a
			// typed ack. The echo stays verbatim either way: it reports
			// what the server heard, which is what lets the device detect
			// in-flight tampering by comparing against what it sent.
			switch {
			case sc.lastNow > 0 && now > sc.lastNow+MaxHeartbeatSkew:
				s.tel.hbRejected.Add(1)
				err := fmt.Errorf("%w: heartbeat time %v jumps %v past session time %v", ErrMalformed, now, now-sc.lastNow, sc.lastNow)
				_ = sc.writeAck(seq, wireCode(err), err.Error())
				return err
			case now < sc.lastNow:
				s.tel.hbClamped.Add(1)
			default:
				sc.lastNow = now
			}
			if err := sc.write(protocol.FrameHeartbeat, protocol.EncodeHeartbeat(seq, now)); err != nil {
				return err
			}
		case protocol.FrameBye:
			return nil
		default:
			_ = sc.writeAck(protocol.FrameSeq(ft, payload), "malformed", "unexpected "+ft.String()+" frame")
			return fmt.Errorf("%w: unexpected %s frame on stream", ErrMalformed, ft)
		}
	}
}

// handleBatch applies a touch batch in order, answering each request
// with a page frame. The first rejection acks the error and abandons
// the rest of the batch — later requests echo nonces the chain will
// now never reach, so they could only fail too. Responses are framed
// directly into the connection's scratch buffer and go out as one
// write: same frames, same order, one syscall for the whole batch and
// no intermediate payload copies.
func (sc *streamConn) handleBatch(tb *protocol.TouchBatch) error {
	out := sc.out[:0]
	var err error
	for i, req := range tb.Requests {
		cp, herr := sc.s.handlePageRequest(tb.Now, req, sc.nextNonce)
		if herr != nil {
			// Flush the pages already answered, then the ack that ends
			// the batch — the wire order a per-frame writer would have
			// produced.
			out, err = protocol.AppendFrame(out, protocol.FrameAck, protocol.EncodeAck(tb.Seq, wireCode(herr), herr.Error()))
			if err != nil {
				return err
			}
			sc.out = out[:0]
			return sc.writeRaw(out)
		}
		out, err = protocol.AppendPageFrame(out, tb.Seq, i, cp)
		if err != nil {
			return err
		}
	}
	sc.out = out[:0]
	return sc.writeRaw(out)
}

// acceptStreamHello validates a hello against the session store and
// resets the session's nonce to the head of a fresh per-connection
// chain.
func (s *Server) acceptStreamHello(rwc io.ReadWriteCloser, h *protocol.StreamHello) (*streamConn, error) {
	if h == nil || h.Domain != s.domain {
		return nil, s.reject(fmt.Errorf("%w: stream hello", ErrMalformed))
	}
	sess, ok := s.sessions.get(h.SessionID)
	if !ok || sess.account != h.Account {
		return nil, s.reject(ErrUnknownSession)
	}
	mb, err := h.MACBytes()
	if err != nil {
		return nil, s.reject(fmt.Errorf("%w: %v", ErrMalformed, err))
	}
	if !pki.CheckMAC(sess.key, mb, h.MAC) {
		return nil, s.reject(ErrBadMAC)
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.revoked {
		return nil, s.reject(ErrUnknownSession)
	}
	sc := s.newStreamConn(rwc, sess)
	sess.lastNonce = sc.chain.At(0)
	return sc, nil
}

// acceptStreamResume is the stream-first resume handshake: verify the
// presented ticket exactly as the HTTP handler does (shared
// verifyResume core), then create the resumed session already bound to
// a per-connection nonce chain — the session's first nonce is the
// chain head, so the device starts streaming page requests without any
// interim HTTP hop. Returns the connection and the first content page
// (carrying the replacement ticket); the caller writes
// welcome-then-page before registering the stream.
func (s *Server) acceptStreamResume(rwc io.ReadWriteCloser, now time.Duration, sub *protocol.ResumeSubmit) (*streamConn, *protocol.ContentPage, error) {
	st, acct, err := s.verifyResume(now, sub)
	if err != nil {
		return nil, nil, err
	}
	sess := s.resumedSession(st, acct)
	sc := s.newStreamConn(rwc, sess)
	return sc, s.establishSession(now, acct, sess, sub.FrameHash, sc.chain.At(0)), nil
}

// newStreamConn binds a connection to sess under a fresh nonce-chain
// seed. The seed is the only entropy draw the whole stream will ever
// make.
func (s *Server) newStreamConn(rwc io.ReadWriteCloser, sess *session) *streamConn {
	seed := make([]byte, 16)
	s.entropyMu.Lock()
	s.entropy.Read(seed)
	s.entropyMu.Unlock()
	return &streamConn{s: s, rwc: rwc, sess: sess, seed: seed, chain: protocol.NewNonceChain(sess.key, seed)}
}

// appendWelcome appends the connection's framed welcome to out: the
// nonce seed and the active risk policy, MAC'd under the session key.
func (sc *streamConn) appendWelcome(out []byte) ([]byte, error) {
	p := sc.s.riskPolicy()
	welcome := &protocol.StreamWelcome{
		Domain:      sc.s.domain,
		SessionID:   sc.sess.id,
		NonceSeed:   sc.seed,
		Window:      p.Window,
		MinVerified: p.MinVerified,
	}
	mb, err := welcome.MACBytes()
	if err != nil {
		return nil, err
	}
	welcome.MAC = pki.MAC(sc.sess.key, mb)
	wp, err := protocol.EncodeBinary(welcome)
	if err != nil {
		return nil, err
	}
	return protocol.AppendFrame(out, protocol.FrameWelcome, wp)
}

// registerStream adds a connection to the policy-push registry.
func (s *Server) registerStream(sc *streamConn) {
	s.streamsMu.Lock()
	if s.streams == nil {
		s.streams = make(map[*streamConn]struct{})
	}
	s.streams[sc] = struct{}{}
	s.streamsMu.Unlock()
}

// unregisterStream removes a connection from the registry.
func (s *Server) unregisterStream(sc *streamConn) {
	s.streamsMu.Lock()
	delete(s.streams, sc)
	s.streamsMu.Unlock()
}

// StreamCount reports the number of live device streams.
func (s *Server) StreamCount() int {
	s.streamsMu.Lock()
	defer s.streamsMu.Unlock()
	return len(s.streams)
}

// pushPolicy sends a MAC'd policy update to every live stream, in
// session-id order so the push sequence is deterministic. A write
// error just means that connection is already dying; its read loop
// will notice and tear it down.
func (s *Server) pushPolicy(p RiskPolicy) {
	s.streamsMu.Lock()
	conns := make([]*streamConn, 0, len(s.streams))
	for sc := range s.streams {
		conns = append(conns, sc)
	}
	s.streamsMu.Unlock()
	sort.Slice(conns, func(i, j int) bool { return conns[i].sess.id < conns[j].sess.id })
	for _, sc := range conns {
		sc.wmu.Lock()
		sc.pushSeq++
		msg := &protocol.PolicyPush{
			Domain:      s.domain,
			SessionID:   sc.sess.id,
			Window:      p.Window,
			MinVerified: p.MinVerified,
			Seq:         sc.pushSeq,
		}
		// A policy the wire cannot carry (a negative window) is not
		// pushed; the next welcome fails the same way.
		if mb, err := msg.MACBytes(); err == nil {
			msg.MAC = pki.MAC(sc.sess.key, mb)
			if payload, err := protocol.EncodeBinary(msg); err == nil {
				_ = protocol.WriteFrame(sc.rwc, protocol.FramePolicyPush, payload)
			}
		}
		sc.wmu.Unlock()
	}
}

// ServeStreamListener accepts stream connections until the listener is
// closed, running one ServeStream goroutine per connection. It is the
// raw-socket counterpart of Handler(): the trustserver binary (and
// loadgen) point a TCP listener here while HTTP keeps serving the
// request/response fallback on its own port.
func (s *Server) ServeStreamListener(l net.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go func() { _ = s.ServeStream(conn) }()
	}
}
