package registry

import (
	"context"

	"mdagent/internal/owl"
	"mdagent/internal/transport"
	"mdagent/internal/wsdl"
)

// Message types served by the registry center (cluster.Center.Serve).
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

// Every request payload but plan-move's, move-app's and lookup-app's
// (fast frames, see fast.go) is sealed with a protocol version byte
// (transport.Seal); handlers refuse versions they do not speak with a
// typed transport.ErrVersion reply instead of misparsing the gob body.

// Request/reply bodies (gob-encoded). Gob writes a struct's unqualified
// type name into the stream, so the center that serves them uses the
// exported aliases below and the bytes keep these lower-case names.
type (
	appKeyReq struct{ Name, Host string }

	hostReq struct{ Host string }

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

// The bodies the serving center decodes and encodes.
type (
	AppKeyReq      = appKeyReq
	HostReq        = hostReq
	RebindingReq   = rebindingReq
	DeviceReply    = deviceReply
	GetBundleReq   = getBundleReq
	GetBundleReply = getBundleReply
)

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
	reply, err := c.ep.Request(ctx, c.server, MsgLookupApp, encodeLookupAppReq(appKeyReq{Name: name, Host: host}))
	if err != nil {
		return AppRecord{}, false, err
	}
	p, err := decodeLookupAppReply(reply.Payload)
	return p.Rec, p.Found, err
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
	reply, err := c.ep.Request(ctx, c.server, MsgPlanMove,
		encodePlanMoveReq(planMoveReq{App: appName, DestHost: destHost, Resources: resources, Mode: mode}))
	if err != nil {
		return MovePlan{}, err
	}
	return decodeMovePlan(reply.Payload)
}

// MoveApp commits a follow-me at the center: the record at from is
// demoted and rec stored running, in one write. It reports whether the
// center took care of the source's record (see cluster.Center.MoveApp).
func (c *Client) MoveApp(ctx context.Context, rec AppRecord, from string) (bool, error) {
	reply, err := c.ep.Request(ctx, c.server, MsgMoveApp, encodeMoveAppReq(moveAppReq{Rec: rec, From: from}))
	if err != nil {
		return false, err
	}
	return decodeMoveAppReply(reply.Payload)
}
