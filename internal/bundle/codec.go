package bundle

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"mdagent/internal/app"
	"mdagent/internal/gobcodec"
	"mdagent/internal/state"
)

// Wire layout:
//
//	[4B magic "MDAB"] [1B version]
//	repeated sections, each:
//	  [1B kind] [4B BE payload length] [payload] [4B BE CRC32(payload)]
//
// Section kinds 1 (manifest, gob) and 2 (initial state, one MDST wrap
// frame) are content; kind 3 (signature) must come last and carries the
// raw 32-byte Ed25519 public key followed by the 64-byte signature.
// Unknown section kinds are CRC-checked and skipped, so a future minor
// revision can add sections without breaking old readers — but they sit
// *inside* the signed span, so a reader that skips one still verifies
// it. The signature covers SHA-256 over every byte from the magic up to
// (excluding) the signature section's kind byte.

// magic identifies MDAgent application bundles.
var magic = [4]byte{'M', 'D', 'A', 'B'}

const headerLen = 5 // magic(4) + version(1)

// Section kinds.
const (
	secManifest byte = 1
	secState    byte = 2
	secSig      byte = 3
)

// sectionOverhead = kind(1) + length(4) + crc(4).
const sectionOverhead = 9

// sigBodyLen = ed25519 public key (32) + signature (64).
const sigBodyLen = ed25519.PublicKeySize + ed25519.SignatureSize

// appendSection frames one section onto buf.
func appendSection(buf []byte, kind byte, payload []byte) []byte {
	buf = append(buf, kind)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
}

// Pack serializes, CRC-sections, and signs a bundle. The manifest must
// validate; when w is non-nil it becomes the initial-state section and
// must describe the manifest's app using only declared components.
func Pack(m Manifest, w *app.Wrap, key ed25519.PrivateKey) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(key) != ed25519.PrivateKeySize {
		return nil, fmt.Errorf("bundle: pack %s: bad private key length %d", m.App, len(key))
	}
	if w != nil {
		if err := checkWrap(&m, w); err != nil {
			return nil, err
		}
	}

	manifestBody, err := gobcodec.Encode(&m)
	if err != nil {
		return nil, fmt.Errorf("bundle: pack %s: encode manifest: %w", m.App, err)
	}

	buf := make([]byte, 0, headerLen+2*sectionOverhead+len(manifestBody))
	buf = append(buf, magic[:]...)
	buf = append(buf, Version)
	buf = appendSection(buf, secManifest, manifestBody)
	if w != nil {
		frame, err := state.EncodeWrap(*w)
		if err != nil {
			return nil, fmt.Errorf("bundle: pack %s: %w", m.App, err)
		}
		buf = appendSection(buf, secState, frame)
	}

	digest := sha256.Sum256(buf)
	sig := make([]byte, 0, sigBodyLen)
	sig = append(sig, key.Public().(ed25519.PublicKey)...)
	sig = append(sig, ed25519.Sign(key, digest[:])...)
	return appendSection(buf, secSig, sig), nil
}

// section is one parsed wire section.
type section struct {
	kind    byte
	payload []byte
	// start is the offset of the section's kind byte in the raw bundle
	// — the signature's digest span ends at the signature section's
	// start.
	start int
}

// parseSections validates the header and walks the section chain,
// CRC-checking every payload (including unknown kinds).
func parseSections(raw []byte) ([]section, error) {
	if len(raw) < headerLen || !bytes.Equal(raw[0:4], magic[:]) {
		return nil, fmt.Errorf("%w (%d bytes)", ErrNotBundle, len(raw))
	}
	if v := raw[4]; v == 0 || v > Version {
		return nil, fmt.Errorf("%w: bundle v%d, codec v%d", ErrVersion, raw[4], Version)
	}
	var secs []section
	off := headerLen
	for off < len(raw) {
		if len(raw)-off < sectionOverhead {
			return nil, fmt.Errorf("%w: truncated section header at offset %d", ErrCorrupt, off)
		}
		kind := raw[off]
		n := int(binary.BigEndian.Uint32(raw[off+1 : off+5]))
		if n > len(raw)-off-sectionOverhead {
			return nil, fmt.Errorf("%w: section %d claims %d bytes, %d remain",
				ErrCorrupt, kind, n, len(raw)-off-sectionOverhead)
		}
		payload := raw[off+5 : off+5+n]
		sum := binary.BigEndian.Uint32(raw[off+5+n : off+sectionOverhead+n])
		if got := crc32.ChecksumIEEE(payload); got != sum {
			return nil, fmt.Errorf("%w: section %d crc %08x, header %08x", ErrCorrupt, kind, got, sum)
		}
		secs = append(secs, section{kind: kind, payload: payload, start: off})
		off += sectionOverhead + n
	}
	return secs, nil
}

// Inspect parses a bundle and verifies its signature against the
// embedded public key — integrity without a trust decision. Use Open
// before instantiating; Inspect is for tooling (mdctl bundle inspect)
// and for naming a bundle before a push.
func Inspect(raw []byte) (*Bundle, error) {
	return decode(raw, nil, false)
}

// Open parses a bundle, verifies its signature, and requires the
// signing key to be in the trusted set. An empty trusted set refuses
// every bundle — trust is opt-in, never default-open.
func Open(raw []byte, trusted []ed25519.PublicKey) (*Bundle, error) {
	return decode(raw, trusted, true)
}

func decode(raw []byte, trusted []ed25519.PublicKey, checkTrust bool) (*Bundle, error) {
	secs, err := parseSections(raw)
	if err != nil {
		return nil, err
	}

	var manifestSec, stateSec, sigSec *section
	for i := range secs {
		s := &secs[i]
		switch s.kind {
		case secManifest:
			if manifestSec != nil {
				return nil, fmt.Errorf("%w: duplicate manifest section", ErrCorrupt)
			}
			manifestSec = s
		case secState:
			if stateSec != nil {
				return nil, fmt.Errorf("%w: duplicate state section", ErrCorrupt)
			}
			stateSec = s
		case secSig:
			if sigSec != nil {
				return nil, fmt.Errorf("%w: duplicate signature section", ErrCorrupt)
			}
			sigSec = s
		default:
			// Unknown kinds were CRC-checked by parseSections and sit
			// inside the signed span; skip them.
		}
	}
	if sigSec == nil {
		return nil, fmt.Errorf("%w: no signature section", ErrUnsigned)
	}
	if sigSec != &secs[len(secs)-1] {
		return nil, fmt.Errorf("%w: signature section is not last", ErrCorrupt)
	}
	if manifestSec == nil {
		return nil, fmt.Errorf("%w: no manifest section", ErrCorrupt)
	}
	if len(sigSec.payload) != sigBodyLen {
		return nil, fmt.Errorf("%w: signature section is %d bytes, want %d",
			ErrCorrupt, len(sigSec.payload), sigBodyLen)
	}

	pub := ed25519.PublicKey(append([]byte(nil), sigSec.payload[:ed25519.PublicKeySize]...))
	sig := sigSec.payload[ed25519.PublicKeySize:]
	digest := sha256.Sum256(raw[:sigSec.start])
	if !ed25519.Verify(pub, digest[:], sig) {
		return nil, fmt.Errorf("%w: key %s", ErrBadSignature, FormatPublicKey(pub))
	}
	if checkTrust && !keyTrusted(pub, trusted) {
		return nil, fmt.Errorf("%w: key %s", ErrUntrustedKey, FormatPublicKey(pub))
	}

	b := &Bundle{Key: pub}
	if err := gobcodec.Decode(manifestSec.payload, &b.Manifest); err != nil {
		return nil, fmt.Errorf("%w: decode manifest: %v", ErrCorrupt, err)
	}
	if err := b.Manifest.Validate(); err != nil {
		return nil, err
	}
	if stateSec != nil {
		w, err := state.DecodeWrap(stateSec.payload)
		if err != nil {
			return nil, fmt.Errorf("%w: state frame: %v", ErrCorrupt, err)
		}
		if err := checkWrap(&b.Manifest, &w); err != nil {
			return nil, err
		}
		b.State = &w
	}
	return b, nil
}

// checkWrap enforces manifest/state coherence: the wrap must belong to
// the manifest's app and carry only declared components, with matching
// kinds.
func checkWrap(m *Manifest, w *app.Wrap) error {
	if w.App != m.App {
		return fmt.Errorf("%w: state wrap is for %q, manifest for %q", ErrCorrupt, w.App, m.App)
	}
	for name := range w.Components {
		kind, ok := m.Component(name)
		if !ok {
			return fmt.Errorf("%w: state wrap carries undeclared component %q", ErrCorrupt, name)
		}
		if wk, ok := w.Kinds[name]; ok && wk != kind {
			return fmt.Errorf("%w: component %q is %s in the wrap, %s in the manifest",
				ErrCorrupt, name, wk, kind)
		}
	}
	return nil
}

func keyTrusted(pub ed25519.PublicKey, trusted []ed25519.PublicKey) bool {
	for _, t := range trusted {
		if bytes.Equal(pub, t) {
			return true
		}
	}
	return false
}
