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
	MsgRegisterResource = "registry.register-resource"
	MsgRegisterDevice   = "registry.register-device"
	MsgDevice           = "registry.device"
	MsgPlanRebinding    = "registry.plan-rebinding"
	MsgPlanMove         = "registry.plan-move"
	MsgMoveApp          = "registry.move-app"
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

	rebindingReq struct {
		Src      owl.Resource
		DestHost string
		Mode     owl.MatchMode
	}

	planMoveReq struct {
		App       string
		DestHost  string
		Resources []owl.Resource
		Mode      owl.MatchMode
	}

	moveAppReq struct {
		Rec  AppRecord
		From string
	}

	moveAppReply struct{ SourceDemoted bool }

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
	ep.Handle(MsgRegisterResource, func(msg transport.Message) ([]byte, error) {
		var res owl.Resource
		if err := transport.DecodeSealed(msg.Payload, &res); err != nil {
			return nil, err
		}
		return nil, r.RegisterResource(res)
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
	ep.Handle(MsgPlanMove, func(msg transport.Message) ([]byte, error) {
		var req planMoveReq
		if err := transport.DecodeSealed(msg.Payload, &req); err != nil {
			return nil, err
		}
		plan, err := r.PlanMove(req.App, req.DestHost, req.Resources, req.Mode)
		if err != nil {
			return nil, err
		}
		return transport.Encode(plan)
	})
	ep.Handle(MsgMoveApp, MoveAppHandler(r.MoveApp))
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

// MoveAppHandler serves registry.move-app with move: a registry's own
// MoveApp, or a federated center's replicating one.
func MoveAppHandler(move func(rec AppRecord, from string) (bool, error)) transport.Handler {
	return func(msg transport.Message) ([]byte, error) {
		var req moveAppReq
		if err := transport.DecodeSealed(msg.Payload, &req); err != nil {
			return nil, err
		}
		demoted, err := move(req.Rec, req.From)
		if err != nil {
			return nil, err
		}
		return transport.Encode(moveAppReply{SourceDemoted: demoted})
	}
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

// Apps lists every application installation record at the center.
func (c *Client) Apps(ctx context.Context) ([]AppRecord, error) {
	var recs []AppRecord
	if err := c.call(ctx, MsgListApps, struct{}{}, &recs); err != nil {
		return nil, err
	}
	return recs, nil
}

// RegisterResource registers a resource description.
func (c *Client) RegisterResource(ctx context.Context, res owl.Resource) error {
	return c.call(ctx, MsgRegisterResource, res, nil)
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

// PlanMove asks for a follow-me's plan in one round trip: the app's
// installation at destHost and a rebinding plan per resource.
func (c *Client) PlanMove(ctx context.Context, appName, destHost string, resources []owl.Resource, mode owl.MatchMode) (MovePlan, error) {
	var plan MovePlan
	if err := c.call(ctx, MsgPlanMove, planMoveReq{App: appName, DestHost: destHost, Resources: resources, Mode: mode}, &plan); err != nil {
		return MovePlan{}, err
	}
	return plan, nil
}

// MoveApp commits a follow-me at the center: the record at from is
// demoted and rec stored running, in one write. It reports whether the
// center took care of the source's record (see Registry.MoveApp and
// cluster.Center.MoveApp).
func (c *Client) MoveApp(ctx context.Context, rec AppRecord, from string) (bool, error) {
	var reply moveAppReply
	if err := c.call(ctx, MsgMoveApp, moveAppReq{Rec: rec, From: from}, &reply); err != nil {
		return false, err
	}
	return reply.SourceDemoted, nil
}
