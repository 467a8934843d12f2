// Package wsdl implements the WSDL-like interface descriptions with which
// applications register at the registry center (paper §4.2.2:
// "Applications first register themselves to the application and resource
// registry centers with their interface descriptions and other parameters
// such as specific device requirements, user preferences, etc, in a
// WSDL-like format").
//
// A Description declares the services an application exposes (ports of
// operations), the device requirements the destination must satisfy, and
// user preference defaults; its field tags mirror wsdl:definitions.
package wsdl

import (
	"encoding/xml"
	"fmt"
)

// Description is the root document, loosely mirroring wsdl:definitions.
type Description struct {
	XMLName     xml.Name     `xml:"definitions"`
	Name        string       `xml:"name,attr"`
	Provider    string       `xml:"provider,attr,omitempty"`
	Version     string       `xml:"version,attr,omitempty"`
	Doc         string       `xml:"documentation,omitempty"`
	Services    []Service    `xml:"service"`
	Requires    Requirements `xml:"deviceRequirements"`
	Preferences []Preference `xml:"userPreference"`
}

// Service groups ports under a name, mirroring wsdl:service.
type Service struct {
	Name  string `xml:"name,attr"`
	Ports []Port `xml:"port"`
}

// Port exposes a set of operations at a binding name.
type Port struct {
	Name       string      `xml:"name,attr"`
	Operations []Operation `xml:"operation"`
}

// Operation is one invocable method with named input/output messages.
type Operation struct {
	Name   string `xml:"name,attr"`
	Input  string `xml:"input,omitempty"`
	Output string `xml:"output,omitempty"`
}

// Requirements are the minimum device properties an application needs at
// the destination (paper §3.1: "Different devices usually have different
// properties, such as screen size, resolution ratio, and computation
// capability").
type Requirements struct {
	MinScreenWidth  int    `xml:"minScreenWidth,omitempty"`
	MinScreenHeight int    `xml:"minScreenHeight,omitempty"`
	MinMemoryMB     int    `xml:"minMemoryMB,omitempty"`
	NeedsAudio      bool   `xml:"needsAudio,omitempty"`
	NeedsDisplay    bool   `xml:"needsDisplay,omitempty"`
	Platform        string `xml:"platform,omitempty"` // "" = any
}

// Preference is a user preference default, e.g. handedness=left.
type Preference struct {
	Key   string `xml:"key,attr"`
	Value string `xml:"value,attr"`
}

// Validate checks structural well-formedness.
func (d *Description) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("wsdl: description has no name")
	}
	if len(d.Services) == 0 {
		return fmt.Errorf("wsdl: %s: no services", d.Name)
	}
	seenSvc := make(map[string]bool)
	for _, s := range d.Services {
		if s.Name == "" {
			return fmt.Errorf("wsdl: %s: unnamed service", d.Name)
		}
		if seenSvc[s.Name] {
			return fmt.Errorf("wsdl: %s: duplicate service %q", d.Name, s.Name)
		}
		seenSvc[s.Name] = true
		if len(s.Ports) == 0 {
			return fmt.Errorf("wsdl: %s: service %q has no ports", d.Name, s.Name)
		}
		for _, p := range s.Ports {
			if p.Name == "" {
				return fmt.Errorf("wsdl: %s: service %q has an unnamed port", d.Name, s.Name)
			}
			if len(p.Operations) == 0 {
				return fmt.Errorf("wsdl: %s: port %q has no operations", d.Name, p.Name)
			}
			for _, op := range p.Operations {
				if op.Name == "" {
					return fmt.Errorf("wsdl: %s: port %q has an unnamed operation", d.Name, p.Name)
				}
			}
		}
	}
	r := d.Requires
	if r.MinScreenWidth < 0 || r.MinScreenHeight < 0 || r.MinMemoryMB < 0 {
		return fmt.Errorf("wsdl: %s: negative device requirement", d.Name)
	}
	return nil
}

// DeviceProfile describes a concrete device's capabilities: what a host
// registers at its center and what an arriving application adapts to.
type DeviceProfile struct {
	Host         string
	ScreenWidth  int
	ScreenHeight int
	MemoryMB     int
	HasAudio     bool
	HasDisplay   bool
	Platform     string
}
