package nettransport

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net"
	"net/netip"
	"testing"
	"testing/quick"

	"unap2p/internal/underlay"
)

// The peer codec used to keep *net.UDPAddr entries, print them with
// UDPAddr.String and parse them back with net.ResolveUDPAddr. That codec
// is kept here as the reference: for literal addresses the new one must
// produce the same wire bytes and decode to the same endpoints.

func refEncode(ids []underlay.HostID, addrs map[underlay.HostID]*net.UDPAddr) []byte {
	var body []byte
	n := 0
	for _, id := range ids {
		a, ok := addrs[id]
		if !ok {
			continue
		}
		s := a.String()
		body = binary.BigEndian.AppendUint32(body, uint32(int32(id)))
		body = append(body, byte(len(s)))
		body = append(body, s...)
		n++
	}
	out := binary.BigEndian.AppendUint32(make([]byte, 0, 4+len(body)), uint32(n))
	return append(out, body...)
}

func refDecodeAddr(text string) (*net.UDPAddr, error) { return net.ResolveUDPAddr("udp", text) }

func TestPeersCodecMatchesReference(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		book := NewAddressBook()
		ref := map[underlay.HostID]*net.UDPAddr{}
		var ids []underlay.HostID
		for i, n := 0, rng.Intn(12); i < n; i++ {
			id := underlay.HostID(rng.Intn(40) - 2)
			raw := make([]byte, 4)
			if rng.Intn(3) == 0 {
				raw = make([]byte, 16)
			}
			rng.Read(raw)
			ip, _ := netip.AddrFromSlice(raw)
			if ip.Is4In6() {
				continue
			}
			port := rng.Intn(1 << 16)
			book.Set(id, netip.AddrPortFrom(ip, uint16(port)))
			ref[id] = &net.UDPAddr{IP: net.IP(raw), Port: port}
			ids = append(ids, id, underlay.HostID(rng.Intn(40)-2)) // some unknown, some repeated
		}
		wire := book.EncodeIDs(ids)
		if want := refEncode(ids, ref); !bytes.Equal(wire, want) {
			t.Logf("EncodeIDs(%v):\n got %x\nwant %x", ids, wire, want)
			return false
		}
		entries, err := DecodePeers(wire)
		if err != nil {
			t.Logf("DecodePeers of own encoding: %v", err)
			return false
		}
		for _, e := range entries {
			want, err := refDecodeAddr(e.Addr.String())
			if err != nil || !want.IP.Equal(ref[e.ID].IP) || want.Port != ref[e.ID].Port ||
				e.Addr != want.AddrPort() && e.Addr != unmap(want.AddrPort()) {
				t.Logf("host %d decoded to %v, reference %v (%v)", e.ID, e.Addr, want, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// entry builds one wire entry by hand, so a test can put any text where
// the address goes.
func entry(id underlay.HostID, addr string) []byte {
	p := binary.BigEndian.AppendUint32(nil, uint32(int32(id)))
	return append(append(p, byte(len(addr))), addr...)
}

func payload(entries ...[]byte) []byte {
	p := binary.BigEndian.AppendUint32(nil, uint32(len(entries)))
	return append(p, bytes.Join(entries, nil)...)
}

// TestDecodePeersRejectsHostnames: an address in a peer's payload is a
// literal or an error. Handed to a resolver, it would let any peer make a
// node issue DNS queries of its choosing.
func TestDecodePeersRejectsHostnames(t *testing.T) {
	for _, name := range []string{"localhost:9000", "example.org:1", "node-7:4000", ":9000", "127.0.0.1:http", "127.0.0.1"} {
		good := entry(1, "127.0.0.1:4001")
		entries, err := DecodePeers(payload(good, entry(2, name), good))
		if err == nil {
			t.Errorf("%q accepted as a peer address: %v", name, entries)
			continue
		}
		// The valid prefix is still returned, as for a truncated payload.
		if len(entries) != 1 || entries[0].ID != 1 {
			t.Errorf("%q: decoded prefix %v, want the one entry before it", name, entries)
		}
		b := NewAddressBook()
		if _, err := b.Merge(payload(entry(2, name))); err == nil || b.Len() != 0 {
			t.Errorf("%q merged into a book: err %v, %d entries", name, err, b.Len())
		}
	}
}

// TestBookFoldsIPv4Mapped: the IPv4-mapped IPv6 spelling of an address
// and its IPv4 spelling are one entry, encoded in the short form.
func TestBookFoldsIPv4Mapped(t *testing.T) {
	b := NewAddressBook()
	changed, err := b.Merge(payload(entry(5, "[::ffff:127.0.0.1]:9")))
	if err != nil || changed != 1 {
		t.Fatalf("Merge of a mapped address: changed %d, err %v", changed, err)
	}
	v := b.Version()
	if b.Set(5, netip.MustParseAddrPort("127.0.0.1:9")) || b.Version() != v {
		t.Fatal("the IPv4 form of a held mapped address counted as a change")
	}
	if b.Set(5, netip.MustParseAddrPort("[::ffff:127.0.0.1]:9")) || b.Len() != 1 {
		t.Fatal("the mapped form of a held address counted as a change")
	}
	if got, want := b.Encode(), payload(entry(5, "127.0.0.1:9")); !bytes.Equal(got, want) {
		t.Fatalf("encoded %x, want the short form %x", got, want)
	}
	if got, _ := b.Get(5); got != netip.MustParseAddrPort("127.0.0.1:9") {
		t.Fatalf("Get = %v, want the unmapped value", got)
	}
}

// eightPeers is the find_node reply shape: a book of eight loopback
// peers and their ids.
func eightPeers() (*AddressBook, []underlay.HostID) {
	book := NewAddressBook()
	var ids []underlay.HostID
	for i := 1; i <= 8; i++ {
		book.Set(underlay.HostID(i), netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), uint16(40000+i)))
		ids = append(ids, underlay.HostID(i))
	}
	return book, ids
}

func TestCodecAllocs(t *testing.T) {
	book, ids := eightPeers()
	var wire []byte
	if allocs := testing.AllocsPerRun(200, func() { wire = book.EncodeIDs(ids) }); allocs > 1 {
		t.Errorf("EncodeIDs of 8 entries allocates %.0f objects, want ≤ 1 (the result)", allocs)
	}
	// Two, not one: the entries, and one string of the payload for
	// netip.ParseAddrPort to slice (it keeps its argument in its errors,
	// so a converted argument is always a heap copy; per entry that was 8).
	var entries []PeerEntry
	if allocs := testing.AllocsPerRun(200, func() { entries, _ = DecodePeers(wire) }); allocs > 2 || len(entries) != 8 {
		t.Errorf("DecodePeers of 8 entries allocates %.0f objects for %d entries, want ≤ 2", allocs, len(entries))
	}
	f := Frame{Kind: KindResp, Type: "kad:nodes", From: 1, To: 2, ReqID: 7, Payload: wire}
	buf := make([]byte, 0, 512)
	if allocs := testing.AllocsPerRun(200, func() { buf, _ = AppendFrame(buf[:0], &f) }); allocs != 0 {
		t.Errorf("AppendFrame into a reused buffer allocates %.0f objects, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { book.Set(3, netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), 40003)) }); allocs != 0 {
		t.Errorf("Set of an unchanged entry allocates %.0f objects, want 0", allocs)
	}
}

// BenchmarkPeersCodec is one find_node reply through the peer codec:
// encode eight entries, decode them back.
func BenchmarkPeersCodec(b *testing.B) {
	book, ids := eightPeers()
	b.ReportAllocs()
	n := 0
	for i := 0; i < b.N; i++ {
		entries, _ := DecodePeers(book.EncodeIDs(ids))
		n += len(entries)
	}
	if n != 8*b.N {
		b.Fatalf("decoded %d entries in %d round trips", n, b.N)
	}
}

// BenchmarkNetCallLoopback is one Call round trip between two sockets of
// this process: encode, sendto, receive loop, handler goroutine, reply,
// waiter wake-up. The payloads are find_node's: 8 bytes out, a
// mini-book of eight back.
func BenchmarkNetCallLoopback(b *testing.B) {
	x, err := Listen(Config{Self: 1})
	if err != nil {
		b.Skipf("environment forbids UDP sockets: %v", err)
	}
	defer x.Close()
	y, err := Listen(Config{Self: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer y.Close()
	x.Book().Set(2, y.LocalAddr())
	y.Book().Set(1, x.LocalAddr())
	book, ids := eightPeers()
	reply := book.EncodeIDs(ids)
	y.Handle("kad:find_node", func(underlay.HostID, []byte) []byte { return reply })
	req := make([]byte, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := x.Call(2, "kad:find_node", req); err != nil {
			b.Fatal(err)
		}
	}
}
