package owl

import (
	"fmt"

	"mdagent/internal/rdf"
)

// The paper's §4.4 resource axes: "Some are transferable, others are not;
// some can be easily substituted, others can not. For example, a printer is
// not transferable but can be substituted while database is neither
// transferable nor easily substituted, and a PDA is transferable but not
// easily to be substituted."
//
// Resource describes one concrete resource instance on a host.
type Resource struct {
	ID            string            // individual local name, e.g. "hpLaserJet-821"
	Class         rdf.Term          // ontology class, e.g. imcl:Printer
	Transferable  bool              // can the bytes/device move with the app?
	Substitutable bool              // can an equivalent at the destination stand in?
	Host          string            // owning host id
	Location      string            // room / space the resource is located in
	SizeBytes     int64             // payload size when transferable (0 otherwise)
	Attrs         map[string]string // free-form attributes (model, format, ...)
}

// Validate checks the description is usable.
func (r Resource) Validate() error {
	if r.ID == "" {
		return fmt.Errorf("owl: resource has no ID")
	}
	if r.Class.Zero() {
		return fmt.Errorf("owl: resource %s has no class", r.ID)
	}
	if r.Host == "" {
		return fmt.Errorf("owl: resource %s has no host", r.ID)
	}
	if r.SizeBytes < 0 {
		return fmt.Errorf("owl: resource %s has negative size", r.ID)
	}
	return nil
}
