package bundle

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"

	"mdagent/internal/app"
)

// Keys are plain Ed25519 pairs, carried as hex on the command line and
// in key files: the 32-byte public key (64 hex chars) in -trust-key
// flags, the 32-byte seed (64 hex chars) in signing-key files. Hex —
// not PEM — keeps the format greppable and diffable; there is no
// certificate machinery, just a flat trusted set per daemon.

// GenerateKey creates a fresh Ed25519 signing pair.
func GenerateKey() (ed25519.PublicKey, ed25519.PrivateKey, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, nil, fmt.Errorf("bundle: generate key: %w", err)
	}
	return pub, priv, nil
}

// FormatPublicKey renders a public key as lowercase hex.
func FormatPublicKey(pub ed25519.PublicKey) string {
	return hex.EncodeToString(pub)
}

// ParsePublicKey parses a hex public key (as printed by FormatPublicKey
// and passed to -trust-key).
func ParsePublicKey(s string) (ed25519.PublicKey, error) {
	b, err := hex.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("bundle: parse public key: %w", err)
	}
	if len(b) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("bundle: public key is %d bytes, want %d", len(b), ed25519.PublicKeySize)
	}
	return ed25519.PublicKey(b), nil
}

// TrustList is a flag.Value accumulating repeated -trust-key hex
// Ed25519 public keys.
type TrustList []ed25519.PublicKey

func (t *TrustList) String() string {
	parts := make([]string, 0, len(*t))
	for _, k := range *t {
		parts = append(parts, FormatPublicKey(k))
	}
	return strings.Join(parts, ",")
}

func (t *TrustList) Set(v string) error {
	k, err := ParsePublicKey(v)
	if err != nil {
		return err
	}
	*t = append(*t, k)
	return nil
}

// FormatPrivateKey renders a private key's 32-byte seed as hex — the
// content of a signing-key file.
func FormatPrivateKey(priv ed25519.PrivateKey) string {
	return hex.EncodeToString(priv.Seed())
}

// ParsePrivateKey parses a hex private key: either the 32-byte seed
// (FormatPrivateKey's output) or a full 64-byte expanded key.
func ParsePrivateKey(s string) (ed25519.PrivateKey, error) {
	b, err := hex.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("bundle: parse private key: %w", err)
	}
	switch len(b) {
	case ed25519.SeedSize:
		return ed25519.NewKeyFromSeed(b), nil
	case ed25519.PrivateKeySize:
		return ed25519.PrivateKey(b), nil
	default:
		return nil, fmt.Errorf("bundle: private key is %d bytes, want %d or %d",
			len(b), ed25519.SeedSize, ed25519.PrivateKeySize)
	}
}

// ParseKind maps a spec kind string ("logic", "ui", "data", "state") —
// app.ComponentKind.String()'s vocabulary — back to the kind.
func ParseKind(s string) (app.ComponentKind, bool) {
	switch s {
	case "logic":
		return app.KindLogic, true
	case "ui":
		return app.KindUI, true
	case "data":
		return app.KindData, true
	case "state":
		return app.KindState, true
	default:
		return 0, false
	}
}
