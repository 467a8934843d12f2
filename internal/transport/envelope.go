package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

// The TCP envelope. A link opens with a preamble each side sends once —
// four magic bytes and the envelope version — and then carries one
// envelope per Message:
//
//	prefix   uint32 header length, uint32 payload length (big-endian)
//	header   flags byte (bit 0 IsReply), uvarint ID,
//	         string Type, string From, string To, string Err
//	payload  the Message's bytes, as the sender holds them
//
// The header uses the fast-frame field codec (fast.go). The payload is
// written from the sender's slices, which may be several (Request's
// parts), and read into one fresh slice, so a multi-megabyte check-in
// crosses the socket without a user-space copy.

// envVersion is the envelope generation this build speaks. A flag bit or
// header field a peer must understand bumps it.
const envVersion byte = 1

// envMagic opens the preamble. A gob stream — what a build from before
// the envelope writes and reads — opens with a message length whose
// first byte is below 0x80 or above 0xf7, so neither side can take the
// other's first bytes for its own: a gob reader fails on 0xe1 at once
// and closes, and an acceptor sees a gob dialer's first bytes as a
// wrong magic.
var envMagic = [4]byte{0xe1, 'M', 'D', 'E'}

const (
	envFlagReply byte = 1 << 0

	envPrefixLen   = 8
	envPreambleLen = len(envMagic) + 1

	// envHeaderMax caps a header: names and an error text, never bulk.
	envHeaderMax = 64 << 10
	// envErrMax is where a sender cuts an error reply's text, so that no
	// handler error can push a header past envHeaderMax; a reader refuses
	// a longer one.
	envErrMax = 16 << 10
	// envAllocMax is the largest payload allocated at the length the
	// prefix claims; a longer one grows chunk by chunk as its bytes
	// arrive, so a peer that claims 4 GiB and sends ten bytes costs one
	// chunk (encoding/gob bounds its message reads the same way).
	envAllocMax = 10 << 20

	// handshakeTimeout bounds each side's wait for the other's preamble.
	handshakeTimeout = 3 * time.Second
)

// errBadEnvelope reports bytes on a link that are not an envelope this
// build reads; the link is closed.
var errBadEnvelope = errors.New("transport: malformed envelope")

// appendEnvelope appends msg's prefix and header to b. The body is not
// copied: the caller writes its parts behind the returned bytes.
func appendEnvelope(b []byte, msg Message) ([]byte, error) {
	body := msg.bodyLen()
	if uint64(body) > math.MaxUint32 {
		return b, fmt.Errorf("%w: %d-byte payload", errBadEnvelope, body)
	}
	if len(msg.Err) > envErrMax {
		msg.Err = msg.Err[:envErrMax]
	}
	start := len(b)
	b = append(b, make([]byte, envPrefixLen)...)
	var flags byte
	if msg.IsReply {
		flags |= envFlagReply
	}
	b = append(b, flags)
	b = AppendUint(b, msg.ID)
	b = AppendString(b, msg.Type)
	b = AppendString(b, msg.From)
	b = AppendString(b, msg.To)
	b = AppendString(b, msg.Err)
	hl := len(b) - start - envPrefixLen
	if hl > envHeaderMax {
		return b[:start], fmt.Errorf("%w: %d-byte header (max %d)", errBadEnvelope, hl, envHeaderMax)
	}
	binary.BigEndian.PutUint32(b[start:], uint32(hl))
	binary.BigEndian.PutUint32(b[start+4:], uint32(body))
	return b, nil
}

// envelopeLen is the length of msg on a TCP link: what appendEnvelope
// writes, then the body. The in-process fabric charges it to the
// simulated network, so both fabrics price a message alike.
func envelopeLen(msg Message) int {
	str := func(n int) int { return uvarintLen(uint64(n)) + n }
	return envPrefixLen + 1 + uvarintLen(msg.ID) + str(len(msg.Type)) + str(len(msg.From)) +
		str(len(msg.To)) + str(min(len(msg.Err), envErrMax)) + msg.bodyLen()
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// readEnvelope reads one envelope from r. scratch holds the prefix and
// the header and is returned, possibly grown, for the next call; the
// payload is a fresh slice the handler owns. A stream that ends cleanly
// between envelopes returns io.EOF.
func readEnvelope(r io.Reader, scratch []byte) (Message, []byte, error) {
	if cap(scratch) < envPrefixLen {
		scratch = make([]byte, 0, 256)
	}
	pre := scratch[:envPrefixLen]
	if _, err := io.ReadFull(r, pre); err != nil {
		return Message{}, scratch, err
	}
	hl := binary.BigEndian.Uint32(pre)
	pl := binary.BigEndian.Uint32(pre[4:])
	if hl > envHeaderMax {
		return Message{}, scratch, fmt.Errorf("%w: %d-byte header (max %d)", errBadEnvelope, hl, envHeaderMax)
	}
	if cap(scratch) < int(hl) {
		scratch = make([]byte, 0, hl)
	}
	hdr := scratch[:hl]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Message{}, scratch, noEOF(err)
	}
	msg, err := parseHeader(hdr)
	if err != nil {
		return Message{}, scratch, err
	}
	if msg.Payload, err = readPayload(r, pl); err != nil {
		return Message{}, scratch, noEOF(err)
	}
	return msg, scratch, nil
}

// parseHeader decodes a header; every field must be present and nothing
// may follow the last one.
func parseHeader(hdr []byte) (Message, error) {
	fr := NewFastReader(hdr)
	var msg Message
	if f := fr.Fixed(1); len(f) == 1 {
		if f[0]&^envFlagReply != 0 {
			return Message{}, fmt.Errorf("%w: unknown flag bits %#x", errBadEnvelope, f[0])
		}
		msg.IsReply = f[0]&envFlagReply != 0
	}
	msg.ID = fr.Uint()
	msg.Type = fr.String()
	msg.From = fr.String()
	msg.To = fr.String()
	msg.Err = fr.String()
	if err := fr.Err(); err != nil {
		return Message{}, fmt.Errorf("%w: %v", errBadEnvelope, err)
	}
	if len(msg.Err) > envErrMax {
		return Message{}, fmt.Errorf("%w: %d-byte error text (max %d)", errBadEnvelope, len(msg.Err), envErrMax)
	}
	if rest := fr.Rest(); len(rest) != 0 {
		return Message{}, fmt.Errorf("%w: %d bytes after the header's last field", errBadEnvelope, len(rest))
	}
	return msg, nil
}

// readPayload reads an n-byte payload: at its length up to envAllocMax,
// beyond that one chunk at a time.
func readPayload(r io.Reader, n uint32) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	if n <= envAllocMax {
		b := make([]byte, n)
		_, err := io.ReadFull(r, b)
		return b, err
	}
	var b []byte
	for left := int(n); left > 0; {
		c := min(left, envAllocMax)
		if cap(b)-len(b) < c {
			b = append(make([]byte, 0, min(max(2*cap(b), len(b)+c), int(n))), b...)
		}
		b = b[:len(b)+c]
		if _, err := io.ReadFull(r, b[len(b)-c:]); err != nil {
			return nil, err
		}
		left -= c
	}
	return b, nil
}

// noEOF reports a stream that ended inside an envelope as truncated.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// preamble is what each side of a link sends once, before any envelope.
func preamble() []byte { return append(envMagic[:len(envMagic):len(envMagic)], envVersion) }

// checkPreamble refuses a peer preamble of another magic or version with
// ErrVersion.
func checkPreamble(got []byte) error {
	if !bytes.Equal(got[:len(envMagic)], envMagic[:]) {
		return fmt.Errorf("%w: peer does not speak the envelope (preamble % x)", ErrVersion, got)
	}
	if v := got[len(envMagic)]; v != envVersion {
		return fmt.Errorf("%w: envelope version: got %d, want %d", ErrVersion, v, envVersion)
	}
	return nil
}

// dialHandshake sends the dialer's preamble and waits, at most
// handshakeTimeout, for the acceptor's. An acceptor that closes instead
// of answering cannot read a preamble — a build from before the envelope
// fails on its first byte — so that is ErrVersion too.
func (l *tcpLink) dialHandshake() error {
	l.conn.SetDeadline(time.Now().Add(handshakeTimeout))
	defer l.conn.SetDeadline(time.Time{})
	if _, err := l.conn.Write(preamble()); err != nil {
		return fmt.Errorf("transport: handshake: %w", err)
	}
	got := make([]byte, envPreambleLen)
	if _, err := io.ReadFull(l.r, got); err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return fmt.Errorf("transport: handshake: no preamble from the peer within %v", handshakeTimeout)
		}
		return fmt.Errorf("%w: the peer closed the link at the handshake (%v)", ErrVersion, err)
	}
	return checkPreamble(got)
}

// acceptHandshake reads the dialer's preamble and answers with this
// build's, also when the dialer's is wrong, so that a dialer of another
// envelope version learns both versions before the link closes.
func (l *tcpLink) acceptHandshake() error {
	l.conn.SetDeadline(time.Now().Add(handshakeTimeout))
	defer l.conn.SetDeadline(time.Time{})
	got := make([]byte, envPreambleLen)
	if _, err := io.ReadFull(l.r, got); err != nil {
		return err
	}
	bad := checkPreamble(got)
	if _, err := l.conn.Write(preamble()); err != nil && bad == nil {
		return err
	}
	return bad
}
