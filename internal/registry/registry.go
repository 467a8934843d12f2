// Package registry holds the records, the index and the wire protocol of
// MDAgent's application and resource registry center (paper §4.1: mobile
// agents "retrieve complied resource and application information (maybe
// owl-enabled as can match in a semantic way) from the registry center";
// §5: backed by Juddi + MySQL). It describes which applications (and their
// WSDL-like interface descriptions) and which resources exist on which
// hosts and the device profile of each host, answers semantic OWL-QL
// queries and rebinding plans for autonomous agents, and defines the
// registry.* ops and their Client. The center that serves those ops and
// keeps the records durable is internal/cluster's Center; a standalone
// registry is a center with no peers.
package registry

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"mdagent/internal/owl"
	"mdagent/internal/store"
	"mdagent/internal/transport"
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

// Registry is a registry center's in-memory index: the reads the center
// answers — apps by host and name, the resource ontology, device profiles
// — over records the center owns. It keeps nothing durable; a center
// rebuilds it from its replication table on every open. It is safe for
// concurrent use.
type Registry struct {
	mu      sync.RWMutex
	db      *store.Store // app records, in memory
	onto    *owl.Ontology
	devices map[string]wsdl.DeviceProfile
}

// New creates an empty index whose ontology is preloaded with the
// standard resource classes.
func New() *Registry {
	r := &Registry{
		db:      store.OpenMemory(),
		onto:    owl.New(),
		devices: make(map[string]wsdl.DeviceProfile),
	}
	r.onto.StandardResourceClasses()
	return r
}

// Ontology exposes the registry's resource ontology (read-mostly).
func (r *Registry) Ontology() *owl.Ontology { return r.onto }

// RegisterApp stores (or replaces) an application installation record.
func (r *Registry) RegisterApp(rec AppRecord) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	raw, err := transport.Encode(rec)
	if err != nil {
		return err
	}
	return r.db.Put(rec.Key(), raw)
}

// UnregisterApp removes an installation record.
func (r *Registry) UnregisterApp(name, host string) error {
	return r.db.Delete(AppRecord{Name: name, Host: host}.Key())
}

// LookupApp returns the installation of an app on a specific host.
func (r *Registry) LookupApp(name, host string) (AppRecord, bool, error) {
	raw, err := r.db.Get(AppRecord{Name: name, Host: host}.Key())
	if err != nil {
		if errors.Is(err, store.ErrNotFound) {
			return AppRecord{}, false, nil
		}
		return AppRecord{}, false, err
	}
	var rec AppRecord
	if err := transport.Decode(raw, &rec); err != nil {
		return AppRecord{}, false, err
	}
	return rec, true, nil
}

// FindApp returns every installation of an app across hosts, sorted by host.
func (r *Registry) FindApp(name string) ([]AppRecord, error) {
	var out []AppRecord
	err := r.db.Scan("app/", func(key string, raw []byte) error {
		var rec AppRecord
		if err := transport.Decode(raw, &rec); err != nil {
			return err
		}
		if rec.Name == name {
			out = append(out, rec)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Host < out[j].Host })
	return out, nil
}

// Apps lists every application installation record, sorted by host then
// name — the control plane's `ps` view.
func (r *Registry) Apps() ([]AppRecord, error) {
	var out []AppRecord
	err := r.db.Scan("app/", func(key string, raw []byte) error {
		var rec AppRecord
		if err := transport.Decode(raw, &rec); err != nil {
			return err
		}
		out = append(out, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Host != out[j].Host {
			return out[i].Host < out[j].Host
		}
		return out[i].Name < out[j].Name
	})
	return out, nil
}

// AppsOnHost lists every application installed on a host, sorted by name.
func (r *Registry) AppsOnHost(host string) ([]AppRecord, error) {
	var out []AppRecord
	err := r.db.Scan("app/"+host+"/", func(key string, raw []byte) error {
		var rec AppRecord
		if err := transport.Decode(raw, &rec); err != nil {
			return err
		}
		out = append(out, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// RegisterResource asserts a resource description into the ontology.
func (r *Registry) RegisterResource(res owl.Resource) error {
	if err := res.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.onto.AddResource(res)
}

// ResourcesOnHost returns the resource descriptions hosted on host.
func (r *Registry) ResourcesOnHost(host string) ([]owl.Resource, error) {
	r.mu.RLock()
	ids := r.onto.ResourcesOnHost(host)
	r.mu.RUnlock()
	out := make([]owl.Resource, 0, len(ids))
	for _, id := range ids {
		res, err := r.onto.ResourceFromGraph(id)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// RegisterDevice stores a host's device profile.
func (r *Registry) RegisterDevice(dev wsdl.DeviceProfile) error {
	if dev.Host == "" {
		return fmt.Errorf("registry: device profile has no host")
	}
	r.mu.Lock()
	r.devices[dev.Host] = dev
	r.mu.Unlock()
	return nil
}

// Device returns a host's device profile.
func (r *Registry) Device(host string) (wsdl.DeviceProfile, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.devices[host]
	return d, ok
}

// Query answers an OWL-QL-style textual query over the resource ontology.
func (r *Registry) Query(q string) ([]map[string]string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	bs, err := r.onto.QueryText(q)
	if err != nil {
		return nil, err
	}
	out := make([]map[string]string, 0, len(bs))
	for _, b := range bs {
		row := make(map[string]string, len(b))
		for v, t := range b {
			row[v] = r.onto.Namespaces().Compact(t)
		}
		out = append(out, row)
	}
	return out, nil
}

// PlanRebinding answers the rebinding question for a source resource
// against a destination host's inventory, using the given match mode.
func (r *Registry) PlanRebinding(src owl.Resource, destHost string, mode owl.MatchMode) (owl.Rebinding, error) {
	plans, err := r.rebindings([]owl.Resource{src}, destHost, mode)
	if err != nil {
		return owl.Rebinding{}, err
	}
	return plans[0], nil
}

// rebindings plans each resource against destHost's inventory, read once.
func (r *Registry) rebindings(resources []owl.Resource, destHost string, mode owl.MatchMode) ([]owl.Rebinding, error) {
	avail, err := r.ResourcesOnHost(destHost)
	if err != nil {
		return nil, err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	m := owl.NewMatcher(r.onto, mode)
	plans := make([]owl.Rebinding, len(resources))
	for i, res := range resources {
		plans[i] = m.PlanRebinding(res, avail)
	}
	return plans, nil
}

// MovePlan is everything a follow-me's source asks the registry before
// it captures: the application's installation at the destination, if
// any, and one rebinding plan per resource, in the order asked.
type MovePlan struct {
	Dest       AppRecord
	DestFound  bool
	Rebindings []owl.Rebinding
}

// PlanMove answers a follow-me source's one read from the same reads
// LookupApp and PlanRebinding make.
func (r *Registry) PlanMove(appName, destHost string, resources []owl.Resource, mode owl.MatchMode) (MovePlan, error) {
	var plan MovePlan
	var err error
	if plan.Dest, plan.DestFound, err = r.LookupApp(appName, destHost); err != nil {
		return MovePlan{}, err
	}
	if len(resources) > 0 {
		if plan.Rebindings, err = r.rebindings(resources, destHost, mode); err != nil {
			return MovePlan{}, err
		}
	}
	return plan, nil
}
