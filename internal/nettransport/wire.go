// Package nettransport is the real-socket plane: a stdlib-only payload
// RPC over UDP datagrams with per-type frame accounting, so the live
// overlay engines, the resilience detector, and the chaos tooling can run
// as N actual processes on localhost or a LAN. The simulated transport
// (internal/transport) stays the reference for experiments — it is pure
// and byte-identical per seed — while this plane trades that purity for
// wall-clock reality: real sockets, real timeouts, real RTTs feeding the
// same metrics types. It does not imitate the simulator's Transport; the
// one thing the two planes share is the failure-detection seam, which
// internal/livenode bridges with a small adapter over Call("fd_ping").
//
// The package splits into four pieces:
//
//	wire.go  — the length-prefixed binary frame codec
//	book.go  — the peer address book (underlay.HostID → netip.AddrPort)
//	net.go   — Net: payload RPC (Handle/Call, HandleData/SendPayload)
//	  and frame accounting
//	realtime.go — Pacer, a wall-clock driver for a sim.Kernel, so
//	  sim-time components (the resilience failure detector) run
//	  unmodified against wall time
package nettransport

import (
	"encoding/binary"
	"errors"
	"fmt"

	"unap2p/internal/underlay"
)

// Kind classifies a frame on the wire.
type Kind uint8

const (
	// KindData is a one-way message (Net.SendPayload).
	KindData Kind = iota
	// KindReq opens a round trip; the receiver must answer with a
	// KindResp frame echoing the request id.
	KindReq
	// KindResp closes a round trip.
	KindResp
)

func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindReq:
		return "req"
	case KindResp:
		return "resp"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Frame is one decoded wire message. Every UDP datagram carries exactly
// one frame; the explicit payload length prefix makes the codec
// transport-agnostic (the same bytes would frame correctly over a TCP
// stream) and doubles as a truncation check on datagrams.
type Frame struct {
	Kind Kind
	// Type is the transport message type ("fd_ping", "kad:find_node", …).
	// Well-known types travel as a one-byte id (see typeTable); others as
	// an inline length-prefixed string.
	Type string
	// From and To are cluster-wide host ids from the address book.
	From, To underlay.HostID
	// ReqID correlates a KindResp with its KindReq. 0 for KindData.
	ReqID uint64
	// Payload carries the application bytes.
	Payload []byte
}

const (
	magic0, magic1 = 'u', 'N'
	// wireVersion 2 dropped v1's respbytes header field — the reply size
	// a requester could demand of a handler-less receiver. v1 frames are
	// rejected with ErrBadVersion.
	wireVersion = 2

	// inlineType marks a message type encoded as an inline string rather
	// than a table id.
	inlineType = 0xFF

	// MaxPayload bounds a frame's payload so an encoded frame always fits
	// a single UDP datagram with headroom for the header.
	MaxPayload = 60000

	// headerLen is the fixed part of the encoding: magic(2) version(1)
	// kind(1) typeid(1) from(4) to(4) reqid(8) paylen(4).
	headerLen = 2 + 1 + 1 + 1 + 4 + 4 + 8 + 4
)

// typeTable is the static registry of well-known message types: the
// protocol vocabulary of the daemon (join handshake, failure detector,
// per-overlay RPCs). One byte on the wire instead of a string; types
// outside the table still travel, inline.
var typeTable = []string{
	"probe",
	"fd_ping",
	"fd_ack",
	"hello",
	"welcome",
	"bye",
	"kad:find_node",
	"kad:nodes",
	"chord:find_succ",
	"chord:succ",
	"gnu:query",
	"gnu:hit",
	"data",
}

var typeIDs = func() map[string]uint8 {
	m := make(map[string]uint8, len(typeTable))
	for i, t := range typeTable {
		m[t] = uint8(i)
	}
	return m
}()

// Errors the decoder distinguishes. All malformed input returns an
// error — Decode never panics, which FuzzWireCodec pins.
var (
	ErrBadMagic   = errors.New("nettransport: bad frame magic")
	ErrBadVersion = errors.New("nettransport: unsupported wire version")
	ErrTruncated  = errors.New("nettransport: truncated frame")
	ErrBadType    = errors.New("nettransport: unknown message type id")
	ErrTooLarge   = errors.New("nettransport: payload exceeds MaxPayload")
)

// AppendFrame encodes f onto buf and returns the extended slice. The
// frame layout is fixed-width fields followed by the length-prefixed
// payload; integers are big-endian.
func AppendFrame(buf []byte, f *Frame) ([]byte, error) {
	if len(f.Payload) > MaxPayload {
		return buf, ErrTooLarge
	}
	if len(f.Type) > 254 {
		return buf, fmt.Errorf("nettransport: message type %.20q… too long", f.Type)
	}
	buf = append(buf, magic0, magic1, wireVersion, byte(f.Kind))
	if id, ok := typeIDs[f.Type]; ok {
		buf = append(buf, id)
	} else {
		buf = append(buf, inlineType, byte(len(f.Type)))
		buf = append(buf, f.Type...)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(f.From)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(f.To)))
	buf = binary.BigEndian.AppendUint64(buf, f.ReqID)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(f.Payload)))
	buf = append(buf, f.Payload...)
	return buf, nil
}

// DecodeFrame parses one frame from b. The returned frame's Payload is a
// fresh copy, so callers may retain it after the read buffer is reused.
// Arbitrary input never panics: every length is checked before use.
func DecodeFrame(b []byte) (Frame, error) {
	var f Frame
	if len(b) < 5 {
		return f, ErrTruncated
	}
	if b[0] != magic0 || b[1] != magic1 {
		return f, ErrBadMagic
	}
	if b[2] != wireVersion {
		return f, ErrBadVersion
	}
	f.Kind = Kind(b[3])
	if f.Kind > KindResp {
		return f, fmt.Errorf("nettransport: unknown frame kind %d", b[3])
	}
	rest := b[4:]
	switch id := rest[0]; {
	case id == inlineType:
		if len(rest) < 2 {
			return f, ErrTruncated
		}
		n := int(rest[1])
		if len(rest) < 2+n {
			return f, ErrTruncated
		}
		f.Type = string(rest[2 : 2+n])
		rest = rest[2+n:]
	case int(id) < len(typeTable):
		f.Type = typeTable[id]
		rest = rest[1:]
	default:
		return f, ErrBadType
	}
	if len(rest) < 4+4+8+4 {
		return f, ErrTruncated
	}
	f.From = underlay.HostID(int32(binary.BigEndian.Uint32(rest[0:4])))
	f.To = underlay.HostID(int32(binary.BigEndian.Uint32(rest[4:8])))
	f.ReqID = binary.BigEndian.Uint64(rest[8:16])
	payLen := binary.BigEndian.Uint32(rest[16:20])
	rest = rest[20:]
	if payLen > MaxPayload {
		return f, ErrTooLarge
	}
	if uint32(len(rest)) < payLen {
		return f, ErrTruncated
	}
	if payLen > 0 {
		f.Payload = append([]byte(nil), rest[:payLen]...)
	}
	return f, nil
}
