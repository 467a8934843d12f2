package bundle

import (
	"crypto/ed25519"
	"fmt"

	"mdagent/internal/obs"
)

// Bundle accounting, process-wide. Every binary books through these four
// handles, so /metrics reads identically across the fleet: Admit books
// Rejected; its callers book Pushes and Bytes once the store write
// succeeded, Installs once the installed app is registered, and Rejected
// again when Instantiate refuses an admitted bundle.
var (
	Pushes   = obs.Default.Counter("mdagent_bundle_pushes_total")
	Installs = obs.Default.Counter("mdagent_bundle_installs_total")
	Rejected = obs.Default.Counter("mdagent_bundle_rejected_total")
	Bytes    = obs.Default.Counter("mdagent_bundle_bytes_total")
)

// Admit is the gate every push and install goes through: it opens raw
// against the trusted keys and checks that the manifest names the app
// the bundle is pushed or stored as — storing it under any other key
// would let an installer fetch a verified-but-wrong artifact. A refusal
// books one rejection.
func Admit(name string, raw []byte, trusted []ed25519.PublicKey) (*Bundle, error) {
	b, err := Open(raw, trusted)
	if err != nil {
		Rejected.Inc()
		return nil, fmt.Errorf("refuse bundle %q: %w", name, err)
	}
	if b.Manifest.App != name {
		Rejected.Inc()
		return nil, fmt.Errorf("refuse bundle: %w: named %q but manifest declares %q",
			ErrCorrupt, name, b.Manifest.App)
	}
	return b, nil
}
