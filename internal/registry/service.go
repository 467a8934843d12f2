package registry

import (
	"context"

	"mdagent/internal/owl"
	"mdagent/internal/transport"
	"mdagent/internal/wsdl"
)

// Message types served by the registry center.
const (
	MsgRegisterApp      = "registry.register-app"
	MsgUnregisterApp    = "registry.unregister-app"
	MsgLookupApp        = "registry.lookup-app"
	MsgFindApp          = "registry.find-app"
	MsgAppsOnHost       = "registry.apps-on-host"
	MsgRegisterResource = "registry.register-resource"
	MsgResourcesOnHost  = "registry.resources-on-host"
	MsgRegisterDevice   = "registry.register-device"
	MsgDevice           = "registry.device"
	MsgQuery            = "registry.query"
	MsgPlanRebinding    = "registry.plan-rebinding"
	MsgListApps         = "registry.list-apps"
	MsgGetBundle        = "registry.get-bundle"
	MsgListBundles      = "registry.list-bundles"
)

// Every request payload is sealed with a protocol version byte
// (transport.Seal); handlers refuse versions they do not speak with a
// typed transport.ErrVersion reply instead of misparsing the gob body.

// Request/reply bodies (gob-encoded).
type (
	appKeyReq struct{ Name, Host string }

	lookupAppReply struct {
		Rec   AppRecord
		Found bool
	}

	hostReq struct{ Host string }

	queryReq struct{ Query string }

	rebindingReq struct {
		Src      owl.Resource
		DestHost string
		Mode     owl.MatchMode
	}

	deviceReply struct {
		Dev   wsdl.DeviceProfile
		Found bool
	}

	getBundleReq struct{ Name string }

	getBundleReply struct {
		Raw   []byte
		Found bool
	}
)

// Serve binds the registry's operations onto a transport endpoint so
// remote clients can call it. It returns the registry for chaining.
func (r *Registry) Serve(ep *transport.Endpoint) *Registry {
	ep.Handle(MsgRegisterApp, func(msg transport.Message) ([]byte, error) {
		var rec AppRecord
		if err := transport.DecodeSealed(msg.Payload, &rec); err != nil {
			return nil, err
		}
		return nil, r.RegisterApp(rec)
	})
	ep.Handle(MsgUnregisterApp, func(msg transport.Message) ([]byte, error) {
		var req appKeyReq
		if err := transport.DecodeSealed(msg.Payload, &req); err != nil {
			return nil, err
		}
		return nil, r.UnregisterApp(req.Name, req.Host)
	})
	ep.Handle(MsgLookupApp, func(msg transport.Message) ([]byte, error) {
		var req appKeyReq
		if err := transport.DecodeSealed(msg.Payload, &req); err != nil {
			return nil, err
		}
		rec, found, err := r.LookupApp(req.Name, req.Host)
		if err != nil {
			return nil, err
		}
		return transport.Encode(lookupAppReply{Rec: rec, Found: found})
	})
	ep.Handle(MsgFindApp, func(msg transport.Message) ([]byte, error) {
		var req appKeyReq
		if err := transport.DecodeSealed(msg.Payload, &req); err != nil {
			return nil, err
		}
		recs, err := r.FindApp(req.Name)
		if err != nil {
			return nil, err
		}
		return transport.Encode(recs)
	})
	ep.Handle(MsgAppsOnHost, func(msg transport.Message) ([]byte, error) {
		var req hostReq
		if err := transport.DecodeSealed(msg.Payload, &req); err != nil {
			return nil, err
		}
		recs, err := r.AppsOnHost(req.Host)
		if err != nil {
			return nil, err
		}
		return transport.Encode(recs)
	})
	ep.Handle(MsgRegisterResource, func(msg transport.Message) ([]byte, error) {
		var res owl.Resource
		if err := transport.DecodeSealed(msg.Payload, &res); err != nil {
			return nil, err
		}
		return nil, r.RegisterResource(res)
	})
	ep.Handle(MsgResourcesOnHost, func(msg transport.Message) ([]byte, error) {
		var req hostReq
		if err := transport.DecodeSealed(msg.Payload, &req); err != nil {
			return nil, err
		}
		res, err := r.ResourcesOnHost(req.Host)
		if err != nil {
			return nil, err
		}
		return transport.Encode(res)
	})
	ep.Handle(MsgRegisterDevice, func(msg transport.Message) ([]byte, error) {
		var dev wsdl.DeviceProfile
		if err := transport.DecodeSealed(msg.Payload, &dev); err != nil {
			return nil, err
		}
		return nil, r.RegisterDevice(dev)
	})
	ep.Handle(MsgDevice, func(msg transport.Message) ([]byte, error) {
		var req hostReq
		if err := transport.DecodeSealed(msg.Payload, &req); err != nil {
			return nil, err
		}
		dev, found := r.Device(req.Host)
		return transport.Encode(deviceReply{Dev: dev, Found: found})
	})
	ep.Handle(MsgListApps, func(msg transport.Message) ([]byte, error) {
		if _, err := transport.Open(msg.Payload); err != nil {
			return nil, err
		}
		recs, err := r.Apps()
		if err != nil {
			return nil, err
		}
		return transport.Encode(recs)
	})
	ep.Handle(MsgQuery, func(msg transport.Message) ([]byte, error) {
		var req queryReq
		if err := transport.DecodeSealed(msg.Payload, &req); err != nil {
			return nil, err
		}
		rows, err := r.Query(req.Query)
		if err != nil {
			return nil, err
		}
		return transport.Encode(rows)
	})
	ep.Handle(MsgPlanRebinding, func(msg transport.Message) ([]byte, error) {
		var req rebindingReq
		if err := transport.DecodeSealed(msg.Payload, &req); err != nil {
			return nil, err
		}
		plan, err := r.PlanRebinding(req.Src, req.DestHost, req.Mode)
		if err != nil {
			return nil, err
		}
		return transport.Encode(plan)
	})
	ep.Handle(MsgGetBundle, func(msg transport.Message) ([]byte, error) {
		var req getBundleReq
		if err := transport.DecodeSealed(msg.Payload, &req); err != nil {
			return nil, err
		}
		raw, found, err := r.GetBundle(req.Name)
		if err != nil {
			return nil, err
		}
		return transport.Encode(getBundleReply{Raw: raw, Found: found})
	})
	ep.Handle(MsgListBundles, func(msg transport.Message) ([]byte, error) {
		if _, err := transport.Open(msg.Payload); err != nil {
			return nil, err
		}
		infos, err := r.Bundles()
		if err != nil {
			return nil, err
		}
		return transport.Encode(infos)
	})
	return r
}

// Client is a typed remote handle to a registry center endpoint.
type Client struct {
	ep     *transport.Endpoint
	server string
}

// NewClient creates a client that calls the registry served at server
// through ep.
func NewClient(ep *transport.Endpoint, server string) *Client {
	return &Client{ep: ep, server: server}
}

func (c *Client) call(ctx context.Context, msgType string, req, out any) error {
	payload, err := transport.EncodeSealed(req)
	if err != nil {
		return err
	}
	return c.ep.RequestDecode(ctx, c.server, msgType, payload, out)
}

// RegisterApp registers an application installation.
func (c *Client) RegisterApp(ctx context.Context, rec AppRecord) error {
	return c.call(ctx, MsgRegisterApp, rec, nil)
}

// UnregisterApp removes an application installation.
func (c *Client) UnregisterApp(ctx context.Context, name, host string) error {
	return c.call(ctx, MsgUnregisterApp, appKeyReq{Name: name, Host: host}, nil)
}

// LookupApp fetches one installation record.
func (c *Client) LookupApp(ctx context.Context, name, host string) (AppRecord, bool, error) {
	var reply lookupAppReply
	if err := c.call(ctx, MsgLookupApp, appKeyReq{Name: name, Host: host}, &reply); err != nil {
		return AppRecord{}, false, err
	}
	return reply.Rec, reply.Found, nil
}

// FindApp lists installations of an app on every host.
func (c *Client) FindApp(ctx context.Context, name string) ([]AppRecord, error) {
	var recs []AppRecord
	if err := c.call(ctx, MsgFindApp, appKeyReq{Name: name}, &recs); err != nil {
		return nil, err
	}
	return recs, nil
}

// Apps lists every application installation record at the center.
func (c *Client) Apps(ctx context.Context) ([]AppRecord, error) {
	var recs []AppRecord
	if err := c.call(ctx, MsgListApps, struct{}{}, &recs); err != nil {
		return nil, err
	}
	return recs, nil
}

// AppsOnHost lists every app installed on a host.
func (c *Client) AppsOnHost(ctx context.Context, host string) ([]AppRecord, error) {
	var recs []AppRecord
	if err := c.call(ctx, MsgAppsOnHost, hostReq{Host: host}, &recs); err != nil {
		return nil, err
	}
	return recs, nil
}

// RegisterResource registers a resource description.
func (c *Client) RegisterResource(ctx context.Context, res owl.Resource) error {
	return c.call(ctx, MsgRegisterResource, res, nil)
}

// ResourcesOnHost lists the resources on a host.
func (c *Client) ResourcesOnHost(ctx context.Context, host string) ([]owl.Resource, error) {
	var res []owl.Resource
	if err := c.call(ctx, MsgResourcesOnHost, hostReq{Host: host}, &res); err != nil {
		return nil, err
	}
	return res, nil
}

// RegisterDevice registers a host device profile.
func (c *Client) RegisterDevice(ctx context.Context, dev wsdl.DeviceProfile) error {
	return c.call(ctx, MsgRegisterDevice, dev, nil)
}

// Device fetches a host device profile.
func (c *Client) Device(ctx context.Context, host string) (wsdl.DeviceProfile, bool, error) {
	var reply deviceReply
	if err := c.call(ctx, MsgDevice, hostReq{Host: host}, &reply); err != nil {
		return wsdl.DeviceProfile{}, false, err
	}
	return reply.Dev, reply.Found, nil
}

// Query runs a textual OWL-QL query at the registry.
func (c *Client) Query(ctx context.Context, q string) ([]map[string]string, error) {
	var rows []map[string]string
	if err := c.call(ctx, MsgQuery, queryReq{Query: q}, &rows); err != nil {
		return nil, err
	}
	return rows, nil
}

// GetBundle fetches a stored bundle's bytes.
func (c *Client) GetBundle(ctx context.Context, name string) ([]byte, bool, error) {
	var reply getBundleReply
	if err := c.call(ctx, MsgGetBundle, getBundleReq{Name: name}, &reply); err != nil {
		return nil, false, err
	}
	return reply.Raw, reply.Found, nil
}

// Bundles lists the bundles stored at the center.
func (c *Client) Bundles(ctx context.Context) ([]BundleInfo, error) {
	var infos []BundleInfo
	if err := c.call(ctx, MsgListBundles, struct{}{}, &infos); err != nil {
		return nil, err
	}
	return infos, nil
}

// PlanRebinding asks the registry for a rebinding plan.
func (c *Client) PlanRebinding(ctx context.Context, src owl.Resource, destHost string, mode owl.MatchMode) (owl.Rebinding, error) {
	var plan owl.Rebinding
	if err := c.call(ctx, MsgPlanRebinding, rebindingReq{Src: src, DestHost: destHost, Mode: mode}, &plan); err != nil {
		return owl.Rebinding{}, err
	}
	return plan, nil
}
