package bundle

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"mdagent/internal/app"
	"mdagent/internal/transport"
	"mdagent/internal/wsdl"
)

func testManifest() Manifest {
	return Manifest{
		App: "bundled-notepad",
		Description: wsdl.Description{
			Name: "bundled-notepad",
			Services: []wsdl.Service{{
				Name: "notepad",
				Ports: []wsdl.Port{{
					Name:       "main",
					Operations: []wsdl.Operation{{Name: "edit"}},
				}},
			}},
		},
		Components: []ComponentSpec{
			{Name: "editor-logic", Kind: app.KindLogic},
			{Name: "document", Kind: app.KindData},
			{Name: "session", Kind: app.KindState},
		},
		Resources: []string{"sharedDisplay-1"},
		Profile:   app.UserProfile{User: "alice", Preferences: map[string]string{"handedness": "left"}},
		Secrets: []SecretRef{
			{Key: "api-token", Ref: "ref://env/NOTEPAD_TOKEN"},
			{Key: "sync-password", Ref: "ref://file/sync"},
		},
	}
}

// testWrap builds the initial-state frame a packed bundle carries: a
// real application's WrapComponents output, so the test exercises the
// same path mdctl bundle pack does.
func testWrap(t *testing.T, m Manifest) *app.Wrap {
	t.Helper()
	a := app.New(m.App, "packer", m.Description)
	logic := app.NewBlob("editor-logic", app.KindLogic, []byte("logic-bytes"))
	doc := app.NewBlob("document", app.KindData, []byte("dear diary"))
	sess := app.NewState("session")
	sess.Set("cursor", "42")
	sess.Set("mode", "insert")
	for _, c := range []app.Component{logic, doc, sess} {
		if err := a.AddComponent(c); err != nil {
			t.Fatal(err)
		}
	}
	w, err := a.WrapComponents(nil)
	if err != nil {
		t.Fatal(err)
	}
	return &w
}

func testResolver() Resolver {
	return Resolver{
		LookupEnv: func(name string) (string, bool) {
			if name == "NOTEPAD_TOKEN" {
				return "tok-123", true
			}
			return "", false
		},
		File: map[string]string{"sync": "hunter2"},
	}
}

func packTest(t *testing.T) ([]byte, ed25519.PublicKey) {
	t.Helper()
	pub, priv, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	m := testManifest()
	raw, err := Pack(m, testWrap(t, m), priv)
	if err != nil {
		t.Fatal(err)
	}
	return raw, pub
}

func TestPackOpenInstantiateRoundTrip(t *testing.T) {
	raw, pub := packTest(t)

	b, err := Open(raw, []ed25519.PublicKey{pub})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if b.Manifest.App != "bundled-notepad" {
		t.Fatalf("manifest app = %q", b.Manifest.App)
	}
	if b.State == nil {
		t.Fatal("bundle lost its initial-state frame")
	}

	factory, err := Instantiate(b, testResolver())
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	a := factory("host-x")
	if a.Host() != "host-x" || a.Name() != "bundled-notepad" {
		t.Fatalf("instance = %s@%s", a.Name(), a.Host())
	}
	// Components match the manifest, in declared order.
	want := []string{"editor-logic", "document", "session"}
	got := a.Components()
	if len(got) != len(want) {
		t.Fatalf("components = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("components = %v, want %v", got, want)
		}
	}
	// Initial state restored value-correct.
	c, _ := a.Component("document")
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(snap) != "dear diary" {
		t.Fatalf("document = %q", snap)
	}
	sess, _ := a.Component("session")
	if v, ok := sess.(*app.StateComponent).Get("cursor"); !ok || v != "42" {
		t.Fatalf("session cursor = %q, %v", v, ok)
	}
	// Secrets resolved into the profile, by reference only.
	p := a.Profile()
	if p.Preferences["api-token"] != "tok-123" || p.Preferences["sync-password"] != "hunter2" {
		t.Fatalf("secrets not resolved: %v", p.Preferences)
	}
	if p.Preferences["handedness"] != "left" {
		t.Fatalf("profile default lost: %v", p.Preferences)
	}
	// Instances must not share preference maps.
	b2 := factory("host-y")
	b2.Profile().Preferences["api-token"] = "mutated"
	if factory("host-z").Profile().Preferences["api-token"] != "tok-123" {
		t.Fatal("instances share a preferences map")
	}
	// The packed bundle itself never contains a secret value.
	for _, secret := range []string{"tok-123", "hunter2"} {
		if containsBytes(raw, []byte(secret)) {
			t.Fatalf("bundle bytes contain secret %q", secret)
		}
	}
}

func containsBytes(haystack, needle []byte) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		match := true
		for j := range needle {
			if haystack[i+j] != needle[j] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

func TestInspectWithoutTrust(t *testing.T) {
	raw, pub := packTest(t)
	b, err := Inspect(raw)
	if err != nil {
		t.Fatalf("Inspect: %v", err)
	}
	if FormatPublicKey(b.Key) != FormatPublicKey(pub) {
		t.Fatal("Inspect returned the wrong signing key")
	}
	// Open with no trusted keys must refuse — trust is opt-in.
	if _, err := Open(raw, nil); !errors.Is(err, ErrUntrustedKey) {
		t.Fatalf("Open with empty trust set: %v, want ErrUntrustedKey", err)
	}
}

// TestTamperRejection covers the ISSUE's four mandated tamper cases
// plus a CRC-repaired flip: every altered copy is refused with its
// typed sentinel before any state is touched.
func TestTamperRejection(t *testing.T) {
	raw, pub := packTest(t)
	trusted := []ed25519.PublicKey{pub}

	t.Run("flipped payload byte", func(t *testing.T) {
		cp := append([]byte(nil), raw...)
		cp[headerLen+sectionOverhead] ^= 0xff // inside the manifest payload
		if _, err := Open(cp, trusted); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("flipped byte with repaired crc", func(t *testing.T) {
		cp := append([]byte(nil), raw...)
		// Flip a manifest byte AND recompute the section CRC so the
		// integrity check passes — only the signature catches it.
		n := int(binary.BigEndian.Uint32(cp[headerLen+1 : headerLen+5]))
		payload := cp[headerLen+5 : headerLen+5+n]
		payload[0] ^= 0xff
		binary.BigEndian.PutUint32(cp[headerLen+5+n:headerLen+9+n], crc32.ChecksumIEEE(payload))
		if _, err := Open(cp, trusted); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("got %v, want ErrBadSignature", err)
		}
	})

	t.Run("wrong signing key", func(t *testing.T) {
		_, otherPriv, err := GenerateKey()
		if err != nil {
			t.Fatal(err)
		}
		m := testManifest()
		other, err := Pack(m, testWrap(t, m), otherPriv)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Open(other, trusted); !errors.Is(err, ErrUntrustedKey) {
			t.Fatalf("got %v, want ErrUntrustedKey", err)
		}
	})

	t.Run("truncated manifest", func(t *testing.T) {
		if _, err := Open(raw[:headerLen+sectionOverhead+4], trusted); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("future version byte", func(t *testing.T) {
		cp := append([]byte(nil), raw...)
		cp[4] = Version + 1
		if _, err := Open(cp, trusted); !errors.Is(err, ErrVersion) {
			t.Fatalf("got %v, want ErrVersion", err)
		}
	})

	t.Run("not a bundle", func(t *testing.T) {
		if _, err := Open([]byte("MDST garbage"), trusted); !errors.Is(err, ErrNotBundle) {
			t.Fatalf("got %v, want ErrNotBundle", err)
		}
	})

	t.Run("signature stripped", func(t *testing.T) {
		// Cut the signature section off entirely: structurally valid
		// sections, no signature.
		cut := len(raw) - (sectionOverhead + sigBodyLen)
		if _, err := Open(raw[:cut], trusted); !errors.Is(err, ErrUnsigned) {
			t.Fatalf("got %v, want ErrUnsigned", err)
		}
	})
}

func TestSentinelsSurviveTheWire(t *testing.T) {
	for _, sentinel := range []error{
		ErrNotBundle, ErrVersion, ErrCorrupt, ErrUnsigned,
		ErrBadSignature, ErrUntrustedKey, ErrSecret,
	} {
		remote := &transport.RemoteError{Endpoint: "host-b", Msg: "install: " + sentinel.Error()}
		if !errors.Is(remote, sentinel) {
			t.Fatalf("%v does not survive the wire", sentinel)
		}
	}
}

func TestStateWrapMustMatchManifest(t *testing.T) {
	_, priv, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	m := testManifest()

	w := testWrap(t, m)
	w.App = "some-other-app"
	if _, err := Pack(m, w, priv); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("foreign wrap: %v, want ErrCorrupt", err)
	}

	w2 := testWrap(t, m)
	w2.Components["smuggled"] = []byte("x")
	w2.Kinds["smuggled"] = app.KindData
	if _, err := Pack(m, w2, priv); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("undeclared component: %v, want ErrCorrupt", err)
	}
}

func TestSecretResolution(t *testing.T) {
	r := testResolver()
	if v, err := r.Resolve("ref://env/NOTEPAD_TOKEN"); err != nil || v != "tok-123" {
		t.Fatalf("env resolve: %q, %v", v, err)
	}
	if v, err := r.Resolve("ref://file/sync"); err != nil || v != "hunter2" {
		t.Fatalf("file resolve: %q, %v", v, err)
	}
	for _, bad := range []string{
		"ref://env/MISSING", "ref://file/missing", "ref://vault/x", "env/NOPE", "ref://env/",
	} {
		if _, err := r.Resolve(bad); !errors.Is(err, ErrSecret) {
			t.Fatalf("Resolve(%q): %v, want ErrSecret", bad, err)
		}
	}
}

func TestInstantiateFailsEagerlyOnMissingSecret(t *testing.T) {
	raw, pub := packTest(t)
	b, err := Open(raw, []ed25519.PublicKey{pub})
	if err != nil {
		t.Fatal(err)
	}
	// A resolver with no sources cannot satisfy the manifest's refs.
	empty := Resolver{LookupEnv: func(string) (string, bool) { return "", false }}
	if _, err := Instantiate(b, empty); !errors.Is(err, ErrSecret) {
		t.Fatalf("Instantiate: %v, want ErrSecret", err)
	}
}

func TestKeyHexRoundTrip(t *testing.T) {
	pub, priv, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	pub2, err := ParsePublicKey(FormatPublicKey(pub))
	if err != nil || FormatPublicKey(pub2) != FormatPublicKey(pub) {
		t.Fatalf("public key round trip: %v", err)
	}
	priv2, err := ParsePrivateKey(FormatPrivateKey(priv))
	if err != nil || !priv2.Equal(priv) {
		t.Fatalf("private key round trip: %v", err)
	}
	if _, err := ParsePublicKey("zz"); err == nil {
		t.Fatal("ParsePublicKey accepted junk")
	}
}

func TestUnknownSectionIsSkippedButSigned(t *testing.T) {
	pub, priv, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	m := testManifest()
	m.Secrets = nil

	// Hand-build a bundle with an extra (future) section kind between
	// manifest and signature, signed over as usual.
	var manifestBody []byte
	{
		packed, err := Pack(m, nil, priv)
		if err != nil {
			t.Fatal(err)
		}
		secs, err := parseSections(packed)
		if err != nil {
			t.Fatal(err)
		}
		manifestBody = append([]byte(nil), secs[0].payload...)
	}
	buf := append([]byte(nil), magic[:]...)
	buf = append(buf, Version)
	buf = appendSection(buf, secManifest, manifestBody)
	buf = appendSection(buf, 9, []byte("future extension"))
	digest := sha256.Sum256(buf)
	sig := append(append([]byte(nil), priv.Public().(ed25519.PublicKey)...), ed25519.Sign(priv, digest[:])...)
	buf = appendSection(buf, secSig, sig)

	b, err := Open(buf, []ed25519.PublicKey{pub})
	if err != nil {
		t.Fatalf("Open with unknown section: %v", err)
	}
	if b.Manifest.App != m.App {
		t.Fatalf("manifest app = %q", b.Manifest.App)
	}

	// Tampering with the unknown section (CRC repaired) still breaks
	// the signature — skipped is not unsigned.
	idx := bytes.Index(buf, []byte("future extension"))
	if idx < 0 {
		t.Fatal("unknown section payload not found")
	}
	cp := append([]byte(nil), buf...)
	cp[idx] ^= 0xff
	binary.BigEndian.PutUint32(cp[idx+len("future extension"):], crc32.ChecksumIEEE(cp[idx:idx+len("future extension")]))
	if _, err := Open(cp, []ed25519.PublicKey{pub}); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered unknown section: %v, want ErrBadSignature", err)
	}
}

// TestAdmitBooksRejections pins the one admission gate every binary
// shares: an accepted bundle books nothing (push, bytes and install are
// the caller's to book once its write landed), each refusal books
// exactly one rejection and keeps its typed sentinel.
func TestAdmitBooksRejections(t *testing.T) {
	raw, pub := packTest(t)
	otherPub, _, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	app := testManifest().App
	for _, tc := range []struct {
		label    string
		name     string
		trusted  []ed25519.PublicKey
		wantErr  error
		rejected int64
	}{
		{"good", app, []ed25519.PublicKey{pub}, nil, 0},
		{"wrong name", app + "-evil-twin", []ed25519.PublicKey{pub}, ErrCorrupt, 1},
		{"untrusted key", app, []ed25519.PublicKey{otherPub}, ErrUntrustedKey, 1},
	} {
		t.Run(tc.label, func(t *testing.T) {
			before := [...]int64{Rejected.Value(), Pushes.Value(), Bytes.Value(), Installs.Value()}
			b, err := Admit(tc.name, raw, tc.trusted)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Admit err = %v, want %v", err, tc.wantErr)
			}
			if (b != nil) != (tc.wantErr == nil) {
				t.Fatalf("Admit returned bundle %v alongside err %v", b != nil, err)
			}
			after := [...]int64{Rejected.Value(), Pushes.Value(), Bytes.Value(), Installs.Value()}
			before[0] += tc.rejected
			if after != before {
				t.Fatalf("counters [rejected pushes bytes installs] = %v, want %v", after, before)
			}
		})
	}
}

// TestBundleWithV1StateSectionStillInstalls: testdata/bundle-v1-state.mdab
// was packed and signed by the last commit whose state.EncodeWrap wrote
// version 1 wrap frames (08d5f9d; key seed 00 01 .. 1f). A signature pins
// a bundle's bytes, so bundles at rest keep their v1 state section for
// good: it must open, verify, and install value-correct, while a bundle
// packed today carries a version 2 frame.
func TestBundleWithV1StateSectionStillInstalls(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "bundle-v1-state.mdab"))
	if err != nil {
		t.Fatal(err)
	}
	seed := make([]byte, ed25519.SeedSize)
	for i := range seed {
		seed[i] = byte(i)
	}
	priv := ed25519.NewKeyFromSeed(seed)
	stateVersion := func(raw []byte) byte {
		secs, err := parseSections(raw)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range secs {
			if s.kind == secState {
				return s.payload[4] // MDST: magic(4), version
			}
		}
		t.Fatal("bundle has no state section")
		return 0
	}
	if v := stateVersion(raw); v != 1 {
		t.Fatalf("fixture's state section is a v%d frame", v)
	}

	b, err := Open(raw, []ed25519.PublicKey{priv.Public().(ed25519.PublicKey)})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	factory, err := Instantiate(b, Resolver{})
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	a := factory("host-x")
	doc, _ := a.Component("document")
	if snap, _ := doc.Snapshot(); string(snap) != "dear diary" {
		t.Fatalf("document = %q", snap)
	}
	sess, _ := a.Component("session")
	if v, ok := sess.(*app.StateComponent).Get("cursor"); !ok || v != "42" {
		t.Fatalf("session cursor = %q, %v", v, ok)
	}
	if v, _ := a.Coordinator().Get("page"); v != "3" || a.Profile().User != "bob" {
		t.Fatalf("coordinator page = %q, profile %+v", v, a.Profile())
	}
	// Instances share the bundle's bytes; replacing one's content must
	// not reach the next.
	doc.(*app.BlobComponent).SetContent([]byte("scribbled over"))
	other, _ := factory("host-y").Component("document")
	if snap, _ := other.Snapshot(); string(snap) != "dear diary" {
		t.Fatalf("a second instance starts from %q", snap)
	}

	repacked, err := Pack(b.Manifest, b.State, priv)
	if err != nil {
		t.Fatal(err)
	}
	if v := stateVersion(repacked); v != 2 {
		t.Fatalf("a bundle packed today carries a v%d state frame", v)
	}
	if again, err := Open(repacked, []ed25519.PublicKey{priv.Public().(ed25519.PublicKey)}); err != nil ||
		string(again.State.Components["document"]) != "dear diary" {
		t.Fatalf("repacked bundle: %v", err)
	}
}
