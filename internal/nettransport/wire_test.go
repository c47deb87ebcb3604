package nettransport

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"net/netip"
	"testing"

	"unap2p/internal/underlay"
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

// TestWireGoldenBytes pins the encoded bytes of a request frame, a peer
// list and a response frame carrying it (inline type, negative sender)
// to what the codec produced before the receive path stopped copying:
// the wire format is a contract between processes of different builds.
func TestWireGoldenBytes(t *testing.T) {
	req := Frame{Kind: KindReq, Type: "kad:find_node", From: 3, To: 12, ReqID: 7<<32 | 2,
		Payload: []byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4}}
	book := NewAddressBook()
	book.Set(1, netip.MustParseAddrPort("127.0.0.1:40001"))
	book.Set(5, netip.MustParseAddrPort("10.0.255.7:9"))
	book.Set(9, netip.MustParseAddrPort("[::1]:65535"))
	peers := book.EncodeIDs([]underlay.HostID{9, 1, 4, 5})
	resp := Frame{Kind: KindResp, Type: "custom:x", From: -1, To: 3, ReqID: 7<<32 | 2, Payload: peers}
	const (
		wantReq   = "754e020106000000030000000c000000070000000200000008deadbeef01020304"
		wantPeers = "00000003000000090b5b3a3a315d3a3635353335000000010f3132372e302e302e313a3430303031000000050c31302e302e3235352e373a39"
		wantResp  = "754e0202ff08637573746f6d3a78ffffffff000000030000000700000002000000390000000300000009" +
			"0b5b3a3a315d3a3635353335000000010f3132372e302e302e313a3430303031000000050c31302e302e3235352e373a39"
	)
	reqBytes, _ := AppendFrame(nil, &req)
	respBytes, _ := AppendFrame([]byte("prefix"), &resp)
	for _, c := range []struct {
		name string
		got  []byte
		want string
	}{
		{"request frame", reqBytes, wantReq},
		{"peer list", peers, wantPeers},
		{"peer list appended", book.AppendEncodedIDs([]byte("prefix"), []underlay.HostID{9, 1, 4, 5})[6:], wantPeers},
		{"response frame", respBytes[6:], wantResp},
	} {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
	var back Frame
	if err := decodeFrame(respBytes[6:], &back); err != nil || !frameEqual(&back, &resp) {
		t.Fatalf("decodeFrame of the response: %+v, %v", back, err)
	}
	entries, err := DecodePeers(back.Payload)
	if err != nil || len(entries) != 3 || entries[0].Addr != netip.MustParseAddrPort("[::1]:65535") ||
		entries[2].Addr != netip.MustParseAddrPort("10.0.255.7:9") {
		t.Fatalf("DecodePeers of the golden list: %v, %v", entries, err)
	}
}
