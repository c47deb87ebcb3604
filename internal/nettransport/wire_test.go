package nettransport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

func frameEqual(a, b *Frame) bool {
	return a.Kind == b.Kind && a.Type == b.Type && a.From == b.From &&
		a.To == b.To && a.ReqID == b.ReqID && bytes.Equal(a.Payload, b.Payload)
}

// v1Frame is a well-formed wire-version-1 fd_ping request — the layout
// that still carried the respbytes field, here asking for a MaxPayload
// reply to a 29-byte datagram.
func v1Frame() []byte {
	b := []byte{magic0, magic1, 1, byte(KindReq), typeIDs["fd_ping"]}
	b = binary.BigEndian.AppendUint32(b, 1)          // from
	b = binary.BigEndian.AppendUint32(b, 2)          // to
	b = binary.BigEndian.AppendUint64(b, 9)          // reqid
	b = binary.BigEndian.AppendUint32(b, MaxPayload) // respbytes
	b = binary.BigEndian.AppendUint32(b, 0)          // paylen
	return b
}

func TestWireRoundTrip(t *testing.T) {
	cases := []Frame{
		{Kind: KindData, Type: "data", From: 0, To: 1},
		{Kind: KindReq, Type: "fd_ping", From: 3, To: 7, ReqID: 42, Payload: make([]byte, 32)},
		{Kind: KindResp, Type: "fd_ack", From: 7, To: 3, ReqID: 42, Payload: make([]byte, 64)},
		{Kind: KindReq, Type: "kad:find_node", From: 1, To: 2, ReqID: 1, Payload: []byte("key")},
		// A type outside the static table must travel inline.
		{Kind: KindData, Type: "custom:exotic", From: 9, To: 10, Payload: []byte{0, 1, 2, 255}},
		// Largest allowed payload.
		{Kind: KindData, Type: "data", From: 0, To: 0, Payload: bytes.Repeat([]byte{0xAB}, MaxPayload)},
	}
	for _, f := range cases {
		buf, err := AppendFrame(nil, &f)
		if err != nil {
			t.Fatalf("encode %v %s: %v", f.Kind, f.Type, err)
		}
		got, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("decode %v %s: %v", f.Kind, f.Type, err)
		}
		if !frameEqual(&f, &got) {
			t.Fatalf("round trip mismatch:\n in %+v\nout %+v", f, got)
		}
	}
}

func TestWireKnownTypesUseOneByte(t *testing.T) {
	known := Frame{Kind: KindData, Type: "kad:find_node"}
	inline := Frame{Kind: KindData, Type: "kad_find_node_x"}
	bk, _ := AppendFrame(nil, &known)
	bi, _ := AppendFrame(nil, &inline)
	if len(bk) != headerLen {
		t.Fatalf("table-known type encoded to %d bytes, want headerLen=%d", len(bk), headerLen)
	}
	if len(bi) != headerLen+1+len(inline.Type) {
		t.Fatalf("inline type encoded to %d bytes, want %d", len(bi), headerLen+1+len(inline.Type))
	}
}

func TestWireDecodeErrors(t *testing.T) {
	good, _ := AppendFrame(nil, &Frame{Kind: KindReq, Type: "probe", ReqID: 1, Payload: []byte("xy")})
	cases := []struct {
		name string
		b    []byte
		err  error
	}{
		{"empty", nil, ErrTruncated},
		{"short", []byte{magic0, magic1}, ErrTruncated},
		{"magic", append([]byte("XX"), good[2:]...), ErrBadMagic},
		{"version", append([]byte{magic0, magic1, 99}, good[3:]...), ErrBadVersion},
		{"v1 frame", v1Frame(), ErrBadVersion},
		{"type id", append(append([]byte{}, good[:4]...), 200), ErrBadType},
		{"truncated payload", good[:len(good)-1], ErrTruncated},
	}
	for _, tc := range cases {
		if _, err := DecodeFrame(tc.b); !errors.Is(err, tc.err) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.err)
		}
	}
	// Oversized payloads are refused at both ends.
	big := Frame{Kind: KindData, Type: "data", Payload: make([]byte, MaxPayload+1)}
	if _, err := AppendFrame(nil, &big); !errors.Is(err, ErrTooLarge) {
		t.Errorf("encode oversized: got %v, want ErrTooLarge", err)
	}
	// Unknown frame kind.
	bad := append([]byte{}, good...)
	bad[3] = 7
	if _, err := DecodeFrame(bad); err == nil {
		t.Error("decode accepted unknown frame kind")
	}
}

func TestWirePayloadIsCopied(t *testing.T) {
	f := Frame{Kind: KindData, Type: "data", Payload: []byte("hold")}
	buf, _ := AppendFrame(nil, &f)
	got, err := DecodeFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0
	}
	if string(got.Payload) != "hold" {
		t.Fatalf("decoded payload aliases the read buffer: %q", got.Payload)
	}
}
