package nettransport

import (
	"bytes"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"unap2p/internal/underlay"
)

func udpAddr(t *testing.T, s string) netip.AddrPort {
	t.Helper()
	a, err := netip.ParseAddrPort(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAddressBookSetGetRemove(t *testing.T) {
	b := NewAddressBook()
	a1 := udpAddr(t, "127.0.0.1:4001")
	if !b.Set(1, a1) {
		t.Fatal("first Set reported no change")
	}
	if b.Set(1, udpAddr(t, "127.0.0.1:4001")) {
		t.Fatal("identical re-Set reported a change")
	}
	if !b.Set(1, udpAddr(t, "127.0.0.1:4002")) {
		t.Fatal("rebind did not report a change")
	}
	got, ok := b.Get(1)
	if !ok || got.Port() != 4002 {
		t.Fatalf("Get(1) = %v, %v after rebind", got, ok)
	}
	v := b.Version()
	if !b.Remove(1) || b.Remove(1) {
		t.Fatal("Remove semantics broken")
	}
	if b.Version() <= v {
		t.Fatal("Remove did not bump the version")
	}
	if b.Len() != 0 {
		t.Fatalf("Len = %d after removal", b.Len())
	}
	// Removal is an eviction: no later Set or Merge brings the id back.
	if b.Set(1, a1) {
		t.Fatal("Set re-admitted an evicted id")
	}
	if changed, err := b.Merge(payload(entry(1, "127.0.0.1:4003"))); err != nil || changed != 0 {
		t.Fatalf("Merge changed %d entries (err %v), want 0: the only one is evicted", changed, err)
	}
	if _, ok := b.Get(1); ok || b.Len() != 0 {
		t.Fatal("an evicted id came back")
	}
}

// bookModel is the address book's specification over plain maps: Pin and
// eviction close an id, Set and Merge write only open ids and store
// addresses unmapped, and every change bumps the version.
type bookModel struct {
	addrs   map[underlay.HostID]netip.AddrPort
	closed  map[underlay.HostID]bool
	version uint64
}

func (m *bookModel) set(id underlay.HostID, a netip.AddrPort) bool {
	a = netip.AddrPortFrom(a.Addr().Unmap(), a.Port())
	if m.closed[id] || m.addrs[id] == a {
		return false
	}
	m.addrs[id] = a
	m.version++
	return true
}

func (m *bookModel) evict(id underlay.HostID) bool {
	if m.closed[id] {
		return false
	}
	delete(m.addrs, id)
	m.closed[id] = true
	m.version++
	return true
}

// agrees reports whether every read of b matches the model: IDs,
// AppendIDs, Len, Encode, Get and Version.
func (m *bookModel) agrees(b *AddressBook) bool {
	ids := make([]underlay.HostID, 0, len(m.addrs))
	for id := range m.addrs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var entries [][]byte
	for _, id := range ids {
		entries = append(entries, entry(id, m.addrs[id].String()))
	}
	appended := b.AppendIDs(nil)
	slices.Sort(appended)
	if !slices.Equal(b.IDs(), ids) || !slices.Equal(appended, ids) || b.Len() != len(ids) ||
		!bytes.Equal(b.Encode(), payload(entries...)) || b.Version() != m.version {
		return false
	}
	for id := underlay.HostID(-1); id <= 8; id++ {
		got, ok := b.Get(id)
		want, wantOK := m.addrs[id]
		if got != want || ok != wantOK {
			return false
		}
	}
	return true
}

// TestQuickBookMatchesModel applies random sequences of Set, Merge,
// eviction and attempted rewrites of the pinned self entry to a book and
// to bookModel, and checks every read after every step. Independently of
// the model, no evicted id may reappear and self must keep its pinned
// address.
func TestQuickBookMatchesModel(t *testing.T) {
	const self = 0
	addrs := []netip.AddrPort{
		netip.MustParseAddrPort("127.0.0.1:4001"), netip.MustParseAddrPort("127.0.0.1:4002"),
		netip.MustParseAddrPort("10.0.0.9:4001"), netip.MustParseAddrPort("[::ffff:127.0.0.1]:4002"),
		netip.MustParseAddrPort("[::1]:4001"),
	}
	f := func(ops []uint16) bool {
		b := NewAddressBook()
		m := &bookModel{addrs: map[underlay.HostID]netip.AddrPort{}, closed: map[underlay.HostID]bool{}}
		b.Pin(self, addrs[0])
		m.addrs[self], m.closed[self] = addrs[0], true
		m.version++
		evicted := map[underlay.HostID]bool{}
		for _, op := range ops {
			id := underlay.HostID(op>>3) % 8
			a, other := addrs[int(op>>6)%len(addrs)], addrs[int(op>>9)%len(addrs)]
			switch op & 7 {
			case 0, 1, 2:
				if b.Set(id, a) != m.set(id, a) {
					return false
				}
			case 3, 4, 5: // a two-entry book, the second naming the next id
				next := (id + 1) % 8
				changed, err := b.Merge(payload(entry(id, a.String()), entry(next, other.String())))
				want := 0
				for _, e := range []struct {
					id underlay.HostID
					a  netip.AddrPort
				}{{id, a}, {next, other}} {
					if m.set(e.id, e.a) {
						want++
					}
				}
				if err != nil || changed != want {
					return false
				}
			case 6:
				if b.Remove(id) != m.evict(id) {
					return false
				}
				if id != self {
					evicted[id] = true
				}
			case 7:
				if b.Set(self, a) || b.Remove(self) {
					return false
				}
			}
			for id := range evicted {
				if _, ok := b.Get(id); ok {
					return false
				}
			}
			if got, _ := b.Get(self); got != addrs[0] || !m.agrees(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// A pinned entry is closed to Set and Merge; every other entry is not.
func TestAddressBookPin(t *testing.T) {
	b := NewAddressBook()
	own := udpAddr(t, "127.0.0.1:4001")
	b.Pin(1, own)
	forged := NewAddressBook()
	forged.Set(1, udpAddr(t, "203.0.113.7:4444"))
	forged.Set(2, udpAddr(t, "127.0.0.1:4002"))
	if b.Set(1, udpAddr(t, "203.0.113.7:4444")) {
		t.Fatal("Set rewrote the pinned entry")
	}
	if changed, err := b.Merge(forged.Encode()); err != nil || changed != 1 {
		t.Fatalf("Merge changed %d entries (err %v), want 1: the unpinned one", changed, err)
	}
	if got, _ := b.Get(1); got != own {
		t.Fatalf("pinned entry reads %v, want %v", got, own)
	}
	if _, ok := b.Get(2); !ok {
		t.Fatal("Merge dropped the entry beside the pinned one")
	}
}

func TestAddressBookEncodeMerge(t *testing.T) {
	b := NewAddressBook()
	b.Set(3, udpAddr(t, "127.0.0.1:4003"))
	b.Set(1, udpAddr(t, "127.0.0.1:4001"))
	b.Set(2, udpAddr(t, "127.0.0.1:4002"))

	other := NewAddressBook()
	other.Set(1, udpAddr(t, "127.0.0.1:4001")) // already known
	changed, err := other.Merge(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if changed != 2 {
		t.Fatalf("Merge changed %d entries, want 2", changed)
	}
	if got := other.IDs(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("merged IDs = %v", got)
	}

	// Subset encoding carries only the requested ids.
	entries, err := DecodePeers(b.EncodeIDs([]underlay.HostID{2, 99}))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].ID != 2 || entries[0].Addr.Port() != 4002 {
		t.Fatalf("EncodeIDs subset decoded to %v", entries)
	}

	// Malformed payloads error instead of panicking.
	if _, err := DecodePeers([]byte{0, 0}); err == nil {
		t.Fatal("truncated header accepted")
	}
	trunc := b.Encode()
	if _, err := DecodePeers(trunc[:len(trunc)-3]); err == nil {
		t.Fatal("truncated entry accepted")
	}
}

// TestDecodePeersHugeCount is the regression test for the
// attacker-controlled allocation: a 4-byte payload claiming 0xFFFFFFFF
// entries must be rejected before make() sizes a slice to the claim —
// one welcome datagram must not pin ~100 GB. The count is validated
// against what the remaining buffer can physically hold (≥5 bytes per
// entry).
func TestDecodePeersHugeCount(t *testing.T) {
	cases := [][]byte{
		{0xFF, 0xFF, 0xFF, 0xFF},             // max count, empty body
		{0x00, 0x00, 0x01, 0x00},             // modest lie, still empty body
		{0x00, 0x00, 0x00, 0x02, 0, 0, 0, 1}, // claims 2, holds < 1 entry
	}
	for _, p := range cases {
		entries, err := DecodePeers(p)
		if err == nil {
			t.Fatalf("DecodePeers(%x) accepted an impossible count", p)
		}
		if len(entries) != 0 {
			t.Fatalf("DecodePeers(%x) returned %d entries with its error", p, len(entries))
		}
	}

	// The bound must not reject honest payloads at the boundary: one
	// real entry is exactly count(4)+id(4)+len(1)+addr bytes.
	b := NewAddressBook()
	b.Set(7, udpAddr(t, "127.0.0.1:4007"))
	if _, err := DecodePeers(b.Encode()); err != nil {
		t.Fatalf("valid single-entry payload rejected: %v", err)
	}
}

// TestBookEvictionWinsRace: Set calls from several goroutines, each a
// rebind that takes the write path, race the eviction of every id they
// write. Once all have returned, no evicted id is in the book.
func TestBookEvictionWinsRace(t *testing.T) {
	b := NewAddressBook()
	const ids, rounds = 64, 200
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				port := uint16(1 + w*rounds + r)
				for id := underlay.HostID(0); id < ids; id++ {
					b.Set(id, netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), port))
				}
			}
		}(w)
	}
	for id := underlay.HostID(0); id < ids; id++ {
		b.Remove(id)
	}
	wg.Wait()
	if b.Len() != 0 {
		t.Fatalf("%d evicted ids back in the book: %v", b.Len(), b.IDs())
	}
}
