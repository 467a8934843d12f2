// Package registry holds the records and the wire protocol of MDAgent's
// application and resource registry center (paper §4.1: mobile agents
// "retrieve complied resource and application information (maybe
// owl-enabled as can match in a semantic way) from the registry center";
// §5: backed by Juddi + MySQL). Its records describe which applications
// (and their WSDL-like interface descriptions) and which resources exist
// on which hosts, and the device profile of each host; it defines the
// registry.* ops, their request and reply bodies, and their Client. The
// center that serves those ops — reads, semantic rebinding plans against
// the owl class tree, durable records — is internal/cluster's Center; a
// standalone registry is a center with no peers.
package registry

import (
	"fmt"

	"mdagent/internal/owl"
	"mdagent/internal/wsdl"
)

// AppRecord is one application installation on one host.
type AppRecord struct {
	Name        string           // application name, e.g. "smart-media-player"
	Host        string           // host id the installation lives on
	Space       string           // smart space of the host
	Description wsdl.Description // interface description
	Components  []string         // component factory names installed on the host
	Running     bool             // a live instance (vs an installed skeleton) — failover re-homes only these
}

// Key returns the storage key for the record.
func (a AppRecord) Key() string { return "app/" + a.Host + "/" + a.Name }

// Validate checks the record is storable.
func (a AppRecord) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("registry: app record has no name")
	}
	if a.Host == "" {
		return fmt.Errorf("registry: app %q has no host", a.Name)
	}
	if err := a.Description.Validate(); err != nil {
		return err
	}
	return nil
}

// Clone returns a deep copy of the record, so a center neither keeps a
// caller's slices nor hands out its own.
func (a AppRecord) Clone() AppRecord {
	a.Components = cloneSlice(a.Components)
	d := &a.Description
	d.Services = cloneSlice(d.Services)
	for i := range d.Services {
		ports := cloneSlice(d.Services[i].Ports)
		for j := range ports {
			ports[j].Operations = cloneSlice(ports[j].Operations)
		}
		d.Services[i].Ports = ports
	}
	d.Preferences = cloneSlice(d.Preferences)
	return a
}

// cloneSlice copies s; an empty slice comes back nil, as it does from a
// gob round trip.
func cloneSlice[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append([]T(nil), s...)
}

// HasComponent reports whether the installation provides a component
// factory by name.
func (a AppRecord) HasComponent(name string) bool {
	for _, c := range a.Components {
		if c == name {
			return true
		}
	}
	return false
}

// MovePlan is everything a follow-me's source asks the registry before
// it captures: the application's installation at the destination, if
// any, and one rebinding plan per resource, in the order asked.
type MovePlan struct {
	Dest       AppRecord
	DestFound  bool
	Rebindings []owl.Rebinding
}
