package media

import (
	"context"
	"fmt"

	"mdagent/internal/transport"
)

// Transport message types for remote media streaming.
const (
	MsgFetch = "media.fetch" // ranged read of a file
	MsgMeta  = "media.meta"  // size + checksum lookup
)

type fetchReq struct {
	Name   string
	Offset int64
	Length int64 // <= 0 means "to end"
}

type fetchReply struct {
	Data []byte
	EOF  bool
}

type metaReply struct {
	Size     int64
	Checksum string
	Found    bool
}

// ServeLibrary exposes a library on a transport endpoint so remote hosts
// can stream files by URL.
func ServeLibrary(lib *Library, ep *transport.Endpoint) {
	ep.Handle(MsgFetch, func(m transport.Message) ([]byte, error) {
		var req fetchReq
		if err := transport.Decode(m.Payload, &req); err != nil {
			return nil, err
		}
		f, ok := lib.Get(req.Name)
		if !ok {
			return nil, fmt.Errorf("media: %s has no file %q", lib.Host(), req.Name)
		}
		if req.Offset < 0 || req.Offset > f.Size() {
			return nil, fmt.Errorf("media: offset %d out of range for %q (%d bytes)", req.Offset, req.Name, f.Size())
		}
		// Offset is in [0, Size], so end-Offset cannot overflow; a sum
		// with a wire-given Length can.
		end := f.Size()
		if req.Length > 0 && req.Length < end-req.Offset {
			end = req.Offset + req.Length
		}
		// Encode only reads the slice; the reply is its own copy.
		return transport.Encode(fetchReply{Data: f.Data[req.Offset:end], EOF: end == f.Size()})
	})
	ep.Handle(MsgMeta, func(m transport.Message) ([]byte, error) {
		var req fetchReq
		if err := transport.Decode(m.Payload, &req); err != nil {
			return nil, err
		}
		f, ok := lib.Get(req.Name)
		if !ok {
			return transport.Encode(metaReply{Found: false})
		}
		return transport.Encode(metaReply{Size: f.Size(), Checksum: f.Checksum, Found: true})
	})
}

// RemoteStream reads a file from a remote library in chunks — the
// "played remotely through URL" path. server is the endpoint name the
// library is served on.
type RemoteStream struct {
	ep     *transport.Endpoint
	server string
	name   string
	size   int64
	sum    string
	pos    int64
}

// OpenRemote resolves the URL's file metadata and returns a stream.
func OpenRemote(ctx context.Context, ep *transport.Endpoint, server, url string) (*RemoteStream, error) {
	_, name, err := ParseURL(url)
	if err != nil {
		return nil, err
	}
	payload, err := transport.Encode(fetchReq{Name: name})
	if err != nil {
		return nil, err
	}
	var meta metaReply
	if err := ep.RequestDecode(ctx, server, MsgMeta, payload, &meta); err != nil {
		return nil, err
	}
	if !meta.Found {
		return nil, fmt.Errorf("media: remote %s has no file %q", server, name)
	}
	return &RemoteStream{ep: ep, server: server, name: name, size: meta.Size, sum: meta.Checksum}, nil
}

// Size returns the remote file size.
func (r *RemoteStream) Size() int64 { return r.size }

// Checksum returns the remote file checksum.
func (r *RemoteStream) Checksum() string { return r.sum }

// Pos returns the current read position.
func (r *RemoteStream) Pos() int64 { return r.pos }

// ReadChunk fetches up to n bytes from the current position, advancing it.
// It returns the chunk and whether the end of file was reached.
func (r *RemoteStream) ReadChunk(ctx context.Context, n int64) ([]byte, bool, error) {
	payload, err := transport.Encode(fetchReq{Name: r.name, Offset: r.pos, Length: n})
	if err != nil {
		return nil, false, err
	}
	var reply fetchReply
	if err := r.ep.RequestDecode(ctx, r.server, MsgFetch, payload, &reply); err != nil {
		return nil, false, err
	}
	r.pos += int64(len(reply.Data))
	return reply.Data, reply.EOF, nil
}

// Prebuffer reads the initial window a player needs before starting
// playback, returning the bytes buffered.
func (r *RemoteStream) Prebuffer(ctx context.Context, window int64) (int64, error) {
	data, _, err := r.ReadChunk(ctx, window)
	if err != nil {
		return 0, err
	}
	return int64(len(data)), nil
}
