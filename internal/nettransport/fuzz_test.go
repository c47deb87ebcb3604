package nettransport

import (
	"bytes"
	"net/netip"
	"slices"
	"testing"

	"unap2p/internal/underlay"
)

// FuzzDecodePeers pins the address-book codec's safety and round-trip
// properties: DecodePeers never panics and never over-allocates on a
// lying count (the huge-count hazard), and any payload a book accepts
// re-encodes canonically — Merge(Encode(Merge(data))) is a fixpoint. And
// no payload re-admits an id the merging book has evicted.
func FuzzDecodePeers(f *testing.F) {
	// Valid encodings seed the format…
	b := NewAddressBook()
	for i, addr := range []string{"127.0.0.1:4001", "127.0.0.1:4002", "[::1]:4003"} {
		b.Set(underlay.HostID(i), netip.MustParseAddrPort(addr))
	}
	f.Add(b.Encode())
	f.Add(NewAddressBook().Encode())
	// …and the known attack shapes seed the reject paths.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0, 0, 0, 2, 0, 0, 0, 1})
	f.Add([]byte{})
	// A host name where an address belongs, and the IPv4-mapped spelling
	// of an IPv4 address (one entry with its short form).
	f.Add(payload(entry(1, "127.0.0.1:4001"), entry(2, "localhost:9000")))
	f.Add(payload(entry(1, "127.0.0.1:9"), entry(1, "[::ffff:127.0.0.1]:9")))

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := DecodePeers(data)
		// Safety: every returned entry must have been physically present
		// in the buffer — the allocation bound in action.
		if len(entries) > len(data)/5 {
			t.Fatalf("%d entries decoded from %d bytes (min 5 bytes/entry)", len(entries), len(data))
		}
		// No entry is anything but a literal address: nothing in a payload
		// reaches a resolver.
		for _, e := range entries {
			if !e.Addr.IsValid() {
				t.Fatalf("host %d decoded to the invalid address %v", e.ID, e.Addr)
			}
		}
		// Whatever the payload names, a book that evicted an id keeps it
		// out: the seeds name host 1.
		held := NewAddressBook()
		held.Set(1, netip.MustParseAddrPort("127.0.0.1:4001"))
		held.Remove(1)
		held.Merge(data)
		if a, ok := held.Get(1); ok || slices.Contains(held.IDs(), 1) {
			t.Fatalf("merge re-admitted evicted host 1 at %v", a)
		}
		if err != nil && len(entries) == 0 {
			return // rejected outright, nothing more to check
		}
		// Round trip: merge what decoded into a book (partial decodes
		// merge their prefix), encode, and the re-encoding must describe
		// exactly the same peer set — a fixpoint under a second
		// merge+encode.
		book := NewAddressBook()
		book.Merge(data)
		once := book.Encode()
		again := NewAddressBook()
		if _, err := again.Merge(once); err != nil {
			t.Fatalf("re-merge of canonical encoding failed: %v", err)
		}
		if twice := again.Encode(); !bytes.Equal(once, twice) {
			t.Fatalf("encode not a fixpoint:\n once %x\ntwice %x", once, twice)
		}
	})
}

// FuzzWireCodec pins the two wire-codec safety properties the daemon
// relies on: decode(encode(m)) == m for every encodable frame, and
// DecodeFrame never panics on arbitrary bytes (a malformed datagram
// must be droppable, not fatal).
func FuzzWireCodec(f *testing.F) {
	// Seed with valid encodings so the fuzzer starts inside the format…
	seeds := []Frame{
		{Kind: KindData, Type: "data"},
		{Kind: KindReq, Type: "fd_ping", From: 1, To: 2, ReqID: 9, Payload: make([]byte, 16)},
		{Kind: KindResp, Type: "fd_ack", From: 2, To: 1, ReqID: 9, Payload: []byte{1, 2, 3}},
		{Kind: KindReq, Type: "weird/type", From: -1, To: 1 << 30, ReqID: ^uint64(0), Payload: []byte("p")},
	}
	for _, s := range seeds {
		b, err := AppendFrame(nil, &s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// …and with raw garbage so it also explores the reject paths.
	f.Add([]byte{})
	f.Add([]byte{magic0, magic1, wireVersion, 0, 0xFF, 200})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Add(v1Frame())

	f.Fuzz(func(t *testing.T, data []byte) {
		// Property 1: decoding arbitrary bytes never panics (the testing
		// harness converts a panic into a failure automatically).
		frame, err := DecodeFrame(data)
		if err != nil {
			return
		}
		// Property 2: anything that decodes must re-encode and decode back
		// to the same frame — the codec is a bijection on its valid set.
		buf, err := AppendFrame(nil, &frame)
		if err != nil {
			t.Fatalf("re-encode of decoded frame failed: %v (frame %+v)", err, frame)
		}
		again, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v (frame %+v)", err, frame)
		}
		if !frameEqual(&frame, &again) {
			t.Fatalf("decode/encode/decode mismatch:\n first %+v\nsecond %+v", frame, again)
		}
	})
}

// FuzzPeerAddr pins the peer codec's IPv4 fast path to its reference:
// for every input, parseAddrPort4 either declines it or returns exactly
// what netip.ParseAddrPort returns, which must then accept it. And it
// declines no IPv4 address in the canonical form every encoder writes.
func FuzzPeerAddr(f *testing.F) {
	for _, s := range []string{
		"127.0.0.1:4001", "0.0.0.0:0", "255.255.255.255:65535", "10.0.255.7:09", "1.2.3.4:00000",
		"256.1.1.1:1", "01.2.3.4:5", "1.2.3.4:65536", "1.2.3.4:", "1.2.3:4", "1.2.3.4.5:6",
		"1.2.3.4:123456", "[::1]:80", "[::ffff:1.2.3.4]:9", "localhost:9000", "1.2.3.4:+5", "",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		want, err := netip.ParseAddrPort(string(b))
		if got, ok := parseAddrPort4(b); ok && (err != nil || got != want) {
			t.Fatalf("%q: fast path %v, ParseAddrPort %v (%v)", b, got, want, err)
		}
		if err == nil && want.Addr().Is4() {
			canon := want.String()
			if got, ok := parseAddrPort4([]byte(canon)); !ok || got != want {
				t.Fatalf("%q: fast path declines or misreads the canonical %q (%v, %v)", b, canon, got, ok)
			}
		}
	})
}
