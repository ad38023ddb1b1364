package pki

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Session-resumption ticket sealing (TLS-1.3-shaped). The server hands
// every successfully logged-in device an opaque ticket — the session
// key plus account binding AEAD-sealed under a server-side ticket key —
// and a later ResumeSubmit presenting that ticket re-establishes a
// session with symmetric crypto only. Ticket keys rotate on the virtual
// clock in fixed epochs: the sealing key for epoch e is derived from a
// master secret with HMAC-SHA256, so rotation needs no stored state and
// stays deterministic under the repo's virtual-time contract. A ticket
// carries its epoch in clear (and bound into the AEAD's associated
// data); Open accepts only the current epoch and the configured window
// of past epochs, which bounds every ticket's lifetime to
// (window+1) x period regardless of server uptime.

// ticketEpochLabel domain-separates epoch-key derivation from every
// other HMAC use of the master secret.
const ticketEpochLabel = "trust-ticket-epoch-v1"

// Default ticket rotation: 5 virtual minutes per epoch, current plus
// one past epoch accepted, so a ticket lives 5–10 minutes — inside the
// webserver nonce table's default TTL, which backs single-use
// enforcement.
const (
	DefaultTicketPeriod = 5 * time.Minute
	DefaultTicketWindow = 1
)

// ErrTicketEpoch is returned by TicketKeys.Open for a ticket sealed in
// an epoch outside the acceptance window (expired, or from the future).
var ErrTicketEpoch = errors.New("pki: ticket epoch outside acceptance window")

// TicketKeys holds the server's ticket-sealing master secret and the
// epoch-rotation policy. Immutable after construction and safe for
// concurrent use: epoch keys are re-derived per call (one HMAC), so
// there is no shared mutable state.
type TicketKeys struct {
	master [32]byte
	period time.Duration
	window uint64
}

// NewTicketKeys draws a fresh master secret from rand. period is the
// epoch length on the virtual clock; window is how many past epochs
// Open accepts besides the current one.
func NewTicketKeys(rand io.Reader, period time.Duration, window int) (*TicketKeys, error) {
	if period <= 0 {
		return nil, fmt.Errorf("pki: ticket epoch period must be positive, got %v", period)
	}
	if window < 0 {
		return nil, fmt.Errorf("pki: ticket epoch window must be non-negative, got %d", window)
	}
	t := &TicketKeys{period: period, window: uint64(window)}
	if _, err := io.ReadFull(rand, t.master[:]); err != nil {
		return nil, fmt.Errorf("pki: drawing ticket master secret: %w", err)
	}
	return t, nil
}

// Epoch returns the rotation epoch containing the virtual instant now.
func (t *TicketKeys) Epoch(now time.Duration) uint64 {
	return uint64(now / t.period)
}

// Window returns how many past epochs Open accepts.
func (t *TicketKeys) Window() int { return int(t.window) }

// epochKey derives the sealing key for one epoch from the master
// secret.
func (t *TicketKeys) epochKey(epoch uint64) []byte {
	var e [8]byte
	binary.BigEndian.PutUint64(e[:], epoch)
	h := hmac.New(sha256.New, t.master[:])
	h.Write([]byte(ticketEpochLabel))
	h.Write(e[:])
	return h.Sum(nil)
}

// ticketAAD binds the clear epoch prefix into the associated data, so
// rewriting the prefix to shift a ticket into a different epoch's key
// fails outright rather than merely failing to decrypt.
func ticketAAD(epoch [8]byte, aad []byte) []byte {
	out := make([]byte, 0, len(aad)+len(epoch))
	out = append(out, aad...)
	return append(out, epoch[:]...)
}

// Seal encrypts plaintext under the key of the epoch containing now,
// prefixing the epoch number in clear: [8B epoch | Seal output]. aad
// binds caller context (domain, message type) exactly as in Seal.
func (t *TicketKeys) Seal(now time.Duration, plaintext, aad []byte, rand io.Reader) ([]byte, error) {
	epoch := t.Epoch(now)
	var e [8]byte
	binary.BigEndian.PutUint64(e[:], epoch)
	sealed, err := Seal(t.epochKey(epoch), plaintext, ticketAAD(e, aad), rand)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(e)+len(sealed))
	out = append(out, e[:]...)
	return append(out, sealed...), nil
}

// Open decrypts a Seal output if its epoch is the current one or at
// most Window epochs old at the virtual instant now. Expired (or
// future-dated) tickets return ErrTicketEpoch; tampered ones return
// ErrDecrypt.
func (t *TicketKeys) Open(now time.Duration, ticket, aad []byte) ([]byte, error) {
	if len(ticket) < 8 {
		return nil, ErrDecrypt
	}
	var e [8]byte
	copy(e[:], ticket[:8])
	epoch := binary.BigEndian.Uint64(e[:])
	cur := t.Epoch(now)
	if epoch > cur || cur-epoch > t.window {
		return nil, ErrTicketEpoch
	}
	return Open(t.epochKey(epoch), ticket[8:], ticketAAD(e, aad))
}
