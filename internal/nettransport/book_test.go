package nettransport

import (
	"net/netip"
	"testing"

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
