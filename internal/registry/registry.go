// Package registry implements MDAgent's application and resource registry
// center (paper §4.1: mobile agents "retrieve complied resource and
// application information (maybe owl-enabled as can match in a semantic
// way) from the registry center"; §5: backed by Juddi + MySQL, here by
// internal/store). It records which applications (and their WSDL-like
// interface descriptions) and which resources exist on which hosts, the
// device profile of each host, and answers semantic OWL-QL queries and
// rebinding plans for autonomous agents.
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

// Registry is the registry center state. It is safe for concurrent use
// and can be embedded in-process or exposed over the network via Service.
type Registry struct {
	mu      sync.RWMutex
	db      *store.Store
	onto    *owl.Ontology
	devices map[string]wsdl.DeviceProfile
}

// New creates a registry over db (use store.OpenMemory() for volatile).
// The ontology is preloaded with the standard resource classes and any
// resources already present in db are re-asserted into it.
func New(db *store.Store) (*Registry, error) {
	r := &Registry{
		db:      db,
		onto:    owl.New(),
		devices: make(map[string]wsdl.DeviceProfile),
	}
	r.onto.StandardResourceClasses()
	// Recover resource descriptions into the ontology. Scan hands each
	// value in a single pass (no per-key Get) — Decode only reads the
	// buffer, which the zero-copy contract permits.
	err := db.Scan("res/", func(key string, raw []byte) error {
		var res owl.Resource
		if err := transport.Decode(raw, &res); err != nil {
			return fmt.Errorf("registry: corrupt resource %s: %w", key, err)
		}
		return r.onto.AddResource(res)
	})
	if err != nil {
		return nil, err
	}
	// Recover device profiles.
	err = db.Scan("dev/", func(key string, raw []byte) error {
		var dev wsdl.DeviceProfile
		if err := transport.Decode(raw, &dev); err != nil {
			return fmt.Errorf("registry: corrupt device %s: %w", key, err)
		}
		r.devices[dev.Host] = dev
		return nil
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Ontology exposes the registry's resource ontology (read-mostly).
func (r *Registry) Ontology() *owl.Ontology { return r.onto }

// Store exposes the backing store so cooperating layers (the federated
// cluster centers) can persist their replication metadata with the same
// durability as the records themselves.
func (r *Registry) Store() *store.Store { return r.db }

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

// RegisterResource stores a resource description and asserts it into the
// ontology.
func (r *Registry) RegisterResource(res owl.Resource) error {
	if err := res.Validate(); err != nil {
		return err
	}
	raw, err := transport.Encode(res)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.db.Put("res/"+res.ID, raw); err != nil {
		return err
	}
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
	raw, err := transport.Encode(dev)
	if err != nil {
		return err
	}
	if err := r.db.Put("dev/"+dev.Host, raw); err != nil {
		return err
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

// MoveApp is a follow-me's commit point: it demotes the application's
// running record at from, then stores rec running — demotion first, so a
// crash between the writes leaves none running, never two. An empty from
// (a clone arriving) makes it a plain register. It reports whether the
// source's record is taken care of: always, on success, since a
// standalone registry is the only place that record lives.
func (r *Registry) MoveApp(rec AppRecord, from string) (bool, error) {
	rec.Running = true
	if err := rec.Validate(); err != nil {
		return false, err
	}
	if from != "" && from != rec.Host {
		src, found, err := r.LookupApp(rec.Name, from)
		if err != nil {
			return false, err
		}
		if found && src.Running {
			src.Running = false
			if err := r.RegisterApp(src); err != nil {
				return false, err
			}
		}
	}
	if err := r.RegisterApp(rec); err != nil {
		return false, err
	}
	return true, nil
}
