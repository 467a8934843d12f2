// Package transport provides the message fabric MDAgent's layers
// communicate over: typed, correlated request/response messages between
// named endpoints. Two fabrics are provided — an in-process fabric that
// charges transfer costs to the netsim network (used by tests, examples
// and the benchmark harness, where it stands in for the paper's 10 Mbps
// Ethernet), and a TCP fabric with length-prefixed gob frames for real
// multi-process deployments (cmd/mdagentd, cmd/mdregistry).
package transport

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"mdagent/internal/gobcodec"
)

// Message is the unit of communication between endpoints.
type Message struct {
	Type    string // routing key, e.g. "registry.lookup", "acl", "migrate.checkin"
	From    string // sender endpoint name
	To      string // recipient endpoint name
	ID      uint64 // correlation id (assigned by Request)
	IsReply bool   // set on responses
	Err     string // non-empty on error replies
	Payload []byte // opaque body (typically gob- or JSON-encoded)
}

// ErrClosed is returned when sending through a closed endpoint or fabric.
var ErrClosed = errors.New("transport: closed")

// ErrNoRoute is returned when the destination endpoint is unknown.
var ErrNoRoute = errors.New("transport: no route to endpoint")

// ErrNoHandler is returned (as an error reply) when the destination has no
// handler for the message type.
var ErrNoHandler = errors.New("transport: no handler for message type")

// RemoteError wraps an error string carried back in a reply message.
type RemoteError struct {
	Endpoint string
	Msg      string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("transport: remote %s: %s", e.Endpoint, e.Msg)
}

// wireSentinels holds the errors RemoteError.Is is allowed to match by
// text. Restricting the match to registered sentinels keeps the
// cross-wire errors.Is contract without false positives: a remote
// message that merely contains "context deadline exceeded" or "EOF"
// must NOT satisfy errors.Is against those stdlib errors — the failure
// happened on the other side.
var (
	sentinelMu    sync.Mutex
	wireSentinels = make(map[error]string)
)

// RegisterWireSentinel marks err as a cross-wire sentinel: a
// *RemoteError whose carried message contains err's text will satisfy
// errors.Is(remoteErr, err). Packages register their typed sentinels
// at init; texts must be distinctive.
func RegisterWireSentinel(err error) {
	sentinelMu.Lock()
	wireSentinels[err] = err.Error()
	sentinelMu.Unlock()
}

func init() { RegisterWireSentinel(ErrVersion) }

// Is makes registered typed sentinels survive the wire: a handler's
// error crosses as its string, so a remote error matches a registered
// sentinel when that sentinel's text appears in the carried message.
// This keeps errors.Is(err, transport.ErrVersion) — and the control
// plane's ErrUnknownHost / ErrAppNotFound contracts — identical for
// in-process and remote callers. Unregistered targets never match.
func (e *RemoteError) Is(target error) bool {
	sentinelMu.Lock()
	t, ok := wireSentinels[target]
	sentinelMu.Unlock()
	return ok && t != "" && strings.Contains(e.Msg, t)
}

// Encode gob-encodes a value into a payload.
func Encode(v any) ([]byte, error) {
	b, err := gobcodec.Encode(v)
	if err != nil {
		return nil, fmt.Errorf("transport: encode: %w", err)
	}
	return b, nil
}

// MustEncode is Encode for values that cannot fail (no channels/funcs);
// it panics on error and is intended for fixed internal types.
func MustEncode(v any) []byte {
	b, err := Encode(v)
	if err != nil {
		panic(err)
	}
	return b
}

// Decode gob-decodes a payload into v (a pointer).
func Decode(payload []byte, v any) error {
	if err := gobcodec.Decode(payload, v); err != nil {
		return fmt.Errorf("transport: decode: %w", err)
	}
	return nil
}
