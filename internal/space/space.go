// Package space models smart spaces: rooms served by hosts, grouped into
// administrative spaces bridged by gateways (paper §3.2, Fig. 1 — one
// smart space covers a specific area; "Migration across the space boundary
// requires additional gateway support"). The Directory answers the two
// questions autonomous agents ask when a user moves: which host serves the
// room the user entered, and is that host in the same space or across a
// gateway.
package space

import (
	"errors"
	"fmt"
	"sync"
)

// ErrUnknownHost reports a host no space holds.
var ErrUnknownHost = errors.New("space: unknown host")

// Space is one administrative smart space.
type Space struct {
	Name    string
	Gateway string // gateway host id ("" when the space has none)
}

// Directory maps rooms to serving hosts and hosts to spaces.
type Directory struct {
	mu        sync.RWMutex
	spaces    map[string]*Space
	hostSpace map[string]string // host -> space
	roomHost  map[string]string // room -> serving host
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{
		spaces:    make(map[string]*Space),
		hostSpace: make(map[string]string),
		roomHost:  make(map[string]string),
	}
}

// AddSpace declares a space.
func (d *Directory) AddSpace(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.spaces[name]; dup {
		return fmt.Errorf("space: %q already exists", name)
	}
	d.spaces[name] = &Space{Name: name}
	return nil
}

// SetGateway names the gateway host of a space.
func (d *Directory) SetGateway(spaceName, gatewayHost string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	s, ok := d.spaces[spaceName]
	if !ok {
		return fmt.Errorf("space: unknown space %q", spaceName)
	}
	s.Gateway = gatewayHost
	return nil
}

// AddHost places a host in a space.
func (d *Directory) AddHost(host, spaceName string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.spaces[spaceName]; !ok {
		return fmt.Errorf("space: unknown space %q", spaceName)
	}
	if existing, dup := d.hostSpace[host]; dup {
		return fmt.Errorf("space: host %q already in space %q", host, existing)
	}
	d.hostSpace[host] = spaceName
	return nil
}

// AssignRoom declares that a room is served by a host (the machine an
// application migrates to when the user enters the room).
func (d *Directory) AssignRoom(room, host string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.hostSpace[host]; !ok {
		return fmt.Errorf("%w %q", ErrUnknownHost, host)
	}
	if existing, dup := d.roomHost[room]; dup {
		return fmt.Errorf("space: room %q already served by %q", room, existing)
	}
	d.roomHost[room] = host
	return nil
}

// HostForRoom returns the host serving a room.
func (d *Directory) HostForRoom(room string) (string, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	h, ok := d.roomHost[room]
	return h, ok
}

// SpaceOfHost returns the space a host belongs to.
func (d *Directory) SpaceOfHost(host string) (string, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	s, ok := d.hostSpace[host]
	return s, ok
}

// CrossesSpaces reports whether moving between two hosts crosses a space
// boundary, and whether the crossing is possible (both spaces need
// gateways). Same-space moves are always possible.
func (d *Directory) CrossesSpaces(fromHost, toHost string) (crosses, possible bool, err error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	sa, ok := d.hostSpace[fromHost]
	if !ok {
		return false, false, fmt.Errorf("%w %q", ErrUnknownHost, fromHost)
	}
	sb, ok := d.hostSpace[toHost]
	if !ok {
		return false, false, fmt.Errorf("%w %q", ErrUnknownHost, toHost)
	}
	if sa == sb {
		return false, true, nil
	}
	gwA := d.spaces[sa].Gateway
	gwB := d.spaces[sb].Gateway
	return true, gwA != "" && gwB != "", nil
}
