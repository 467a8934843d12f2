package media

import (
	"context"
	"fmt"

	"mdagent/internal/transport"
)

// MsgRead is the one remote media op: a ranged read of a file that also
// answers the file's size and checksum. It is a fast frame both ways:
//
//	OpMediaRead       string name, uvarint offset, uvarint length
//	OpMediaReadReply  uvarint size, string checksum, bool eof, then the
//	                  range's bytes as the rest of the body
//
// A length of 0 reads no bytes (an open); a range past the end of the
// file is cut at the end. A peer built before this op answers
// transport.ErrNoHandler; the gob ops it replaced, media.meta and
// media.fetch, are retired (do not reuse the names).
const MsgRead = "media.read"

type readReq struct {
	Name   string
	Offset uint64
	Length uint64
}

func encodeReadReq(q readReq) []byte {
	b := make([]byte, 0, 24+len(q.Name))
	b = append(b, transport.ProtoV2, transport.OpMediaRead)
	b = transport.AppendString(b, q.Name)
	b = transport.AppendUint(b, q.Offset)
	return transport.AppendUint(b, q.Length)
}

func decodeReadReq(payload []byte) (readReq, error) {
	r, err := transport.OpenFastOp(payload, transport.OpMediaRead, MsgRead)
	if err != nil {
		return readReq{}, err
	}
	q := readReq{Name: r.String(), Offset: r.Uint(), Length: r.Uint()}
	return q, r.Err()
}

// readReply is a decoded media.read reply; Data aliases the payload.
type readReply struct {
	Size     uint64
	Checksum string
	EOF      bool
	Data     []byte
}

func decodeReadReply(payload []byte) (readReply, error) {
	r, err := transport.OpenFastOp(payload, transport.OpMediaReadReply, MsgRead)
	if err != nil {
		return readReply{}, err
	}
	rep := readReply{Size: r.Uint(), Checksum: r.String(), EOF: r.Bool(), Data: r.Rest()}
	return rep, r.Err()
}

// ServeLibrary exposes a library on a transport endpoint so remote hosts
// can stream files by URL.
func ServeLibrary(lib *Library, ep *transport.Endpoint) {
	ep.Handle(MsgRead, func(m transport.Message) ([]byte, error) {
		q, err := decodeReadReq(m.Payload)
		if err != nil {
			return nil, err
		}
		f, ok := lib.Get(q.Name)
		if !ok {
			return nil, fmt.Errorf("media: %s has no file %q", lib.Host(), q.Name)
		}
		size := uint64(f.Size())
		if q.Offset > size {
			return nil, fmt.Errorf("media: offset %d out of range for %q (%d bytes)", q.Offset, q.Name, size)
		}
		// Offset is in [0, size], so size-Offset cannot overflow; a sum
		// with a wire-given Length can.
		end := size
		if q.Length < size-q.Offset {
			end = q.Offset + q.Length
		}
		// The reply is the one copy of the range: the link writes it as
		// it is, and the client's data aliases what the link read.
		b := make([]byte, 0, 16+len(f.Checksum)+int(end-q.Offset))
		b = append(b, transport.ProtoV2, transport.OpMediaReadReply)
		b = transport.AppendUint(b, size)
		b = transport.AppendString(b, f.Checksum)
		b = transport.AppendBool(b, end == size)
		return append(b, f.Data[q.Offset:end]...), nil
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
	rs, _, err := OpenRemoteWindow(ctx, ep, server, url, 0)
	return rs, err
}

// OpenRemoteWindow opens the URL's file and reads its first window bytes
// — the prebuffer a player needs before it starts — in one round trip.
// It returns the stream, positioned after the window, and the window's
// bytes, which alias the reply.
func OpenRemoteWindow(ctx context.Context, ep *transport.Endpoint, server, url string, window int64) (*RemoteStream, []byte, error) {
	_, name, err := ParseURL(url)
	if err != nil {
		return nil, nil, err
	}
	rs := &RemoteStream{ep: ep, server: server, name: name}
	rep, err := rs.read(ctx, window)
	if err != nil {
		return nil, nil, err
	}
	rs.size, rs.sum = int64(rep.Size), rep.Checksum
	return rs, rep.Data, nil
}

// read asks for up to n bytes at the stream's position and advances it.
func (r *RemoteStream) read(ctx context.Context, n int64) (readReply, error) {
	reply, err := r.ep.Request(ctx, r.server, MsgRead,
		encodeReadReq(readReq{Name: r.name, Offset: uint64(r.pos), Length: uint64(max(n, 0))}))
	if err != nil {
		return readReply{}, err
	}
	rep, err := decodeReadReply(reply.Payload)
	if err != nil {
		return readReply{}, err
	}
	r.pos += int64(len(rep.Data))
	return rep, nil
}

// Size returns the remote file size.
func (r *RemoteStream) Size() int64 { return r.size }
