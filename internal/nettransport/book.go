package nettransport

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"
	"sync"

	"unap2p/internal/underlay"
)

// AddressBook maps cluster-wide host ids to UDP addresses — the live
// counterpart of the simulated underlay's host table. It is written
// concurrently by the join handshake and the receive loop (which learns
// sender addresses) and read on every send, so access is guarded by a
// read-write mutex; the entry set is tiny (one per peer), making
// contention irrelevant next to the socket syscalls around it. Addresses
// are values, stored unmapped (an IPv4-mapped IPv6 address and its IPv4
// form are one entry), so "unchanged?" is ==.
type AddressBook struct {
	mu      sync.RWMutex
	addrs   map[underlay.HostID]netip.AddrPort
	self    underlay.HostID // the entry Pin closed to Set, once pinned
	pinned  bool
	version uint64 // bumped on every change; Version lets tests await convergence
}

// NewAddressBook returns an empty book.
func NewAddressBook() *AddressBook {
	return &AddressBook{addrs: make(map[underlay.HostID]netip.AddrPort)}
}

// unmap folds an IPv4-mapped IPv6 address onto its IPv4 form — what a
// dual-stack socket reports for an IPv4 sender, and what an IPv4 socket
// refuses to send to.
func unmap(a netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(a.Addr().Unmap(), a.Port())
}

// Pin records addr as this process's own entry and closes that entry to
// Set and Merge from then on. A node's address is where its socket is
// bound; every other write to a book carries what some peer said — a
// hello's or welcome's book, a lookup reply's contacts — and a peer must
// not be able to rewrite what the node goes on to advertise as itself.
func (b *AddressBook) Pin(self underlay.HostID, addr netip.AddrPort) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.addrs[self] = unmap(addr)
	b.self, b.pinned = self, true
	b.version++
}

// Set records (or replaces) the address for id, reporting whether the
// entry changed. Last write wins: a peer that rebinds (NAT, restart)
// overwrites its stale entry the moment any frame arrives from it. The
// receive loop calls Set for every frame, so the unchanged case — all of
// them, on a settled cluster — takes only the read lock.
func (b *AddressBook) Set(id underlay.HostID, addr netip.AddrPort) bool {
	if !addr.IsValid() {
		return false
	}
	addr = unmap(addr)
	b.mu.RLock()
	old := b.addrs[id] // the zero AddrPort of a missing entry equals no valid addr
	closed := b.pinned && id == b.self
	b.mu.RUnlock()
	if old == addr || closed {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.addrs[id] == addr {
		return false
	}
	b.addrs[id] = addr
	b.version++
	return true
}

// Remove drops the entry for id (after an eviction), reporting whether
// it existed.
func (b *AddressBook) Remove(id underlay.HostID) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.addrs[id]; !ok {
		return false
	}
	delete(b.addrs, id)
	b.version++
	return true
}

// Get returns the address for id.
func (b *AddressBook) Get(id underlay.HostID) (netip.AddrPort, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	a, ok := b.addrs[id]
	return a, ok
}

// IDs returns every known host id, sorted.
func (b *AddressBook) IDs() []underlay.HostID {
	b.mu.RLock()
	ids := make([]underlay.HostID, 0, len(b.addrs))
	for id := range b.addrs {
		ids = append(ids, id)
	}
	b.mu.RUnlock()
	slices.Sort(ids)
	return ids
}

// Len reports the number of entries.
func (b *AddressBook) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.addrs)
}

// Version reports the change counter — it increases on every effective
// Set/Remove, so pollers can detect quiescence.
func (b *AddressBook) Version() uint64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.version
}

// Encode serializes the book (sorted by id) for the hello/welcome
// handshake: count(4), then per entry id(4) + addrlen(1) + "host:port".
// Textual addresses sidestep IPv4/IPv6 representation pitfalls.
func (b *AddressBook) Encode() []byte {
	return b.EncodeIDs(b.IDs())
}

// peerEntryHint is what EncodeIDs reserves per entry: id(4) + addrlen(1)
// + the longest IPv4 "a.b.c.d:port". An IPv6 entry makes append grow the
// buffer instead.
const peerEntryHint = 4 + 1 + len("255.255.255.255:65535")

// EncodeIDs serializes the entries for the given ids in Encode's format,
// silently skipping ids the book does not hold. The Kademlia engine uses
// this to answer find_node with a mini address book of the k closest
// peers, so a querier learns addresses along with ids. The result is one
// fresh buffer the caller owns.
func (b *AddressBook) EncodeIDs(ids []underlay.HostID) []byte {
	out := make([]byte, 4, 4+len(ids)*peerEntryHint)
	n := uint32(0)
	b.mu.RLock()
	for _, id := range ids {
		a, ok := b.addrs[id]
		if !ok {
			continue
		}
		out = binary.BigEndian.AppendUint32(out, uint32(int32(id)))
		at := len(out)
		out = a.AppendTo(append(out, 0))
		out[at] = byte(len(out) - at - 1)
		n++
	}
	b.mu.RUnlock()
	binary.BigEndian.PutUint32(out, n)
	return out
}

// PeerEntry is one decoded address-book entry.
type PeerEntry struct {
	ID   underlay.HostID
	Addr netip.AddrPort
}

// DecodePeers parses an Encode/EncodeIDs payload. Malformed input
// returns an error, never panics. An address must be a literal ip:port:
// the bytes come from a peer, so a host name is a decode error and never
// reaches a resolver.
func DecodePeers(p []byte) ([]PeerEntry, error) {
	if len(p) < 4 {
		return nil, ErrTruncated
	}
	n := binary.BigEndian.Uint32(p)
	p = p[4:]
	// Bound the allocation by what the buffer can actually hold: every
	// entry needs at least id(4)+addrlen(1) bytes, so a count claiming
	// more than len(p)/5 entries is lying. Without this check a 4-byte
	// payload claiming 0xFFFFFFFF entries would allocate ~100 GB.
	if int64(n)*5 > int64(len(p)) {
		return nil, ErrTruncated
	}
	entries := make([]PeerEntry, 0, n)
	// One string for the whole body: ParseAddrPort keeps its argument in
	// the errors it returns, so a per-entry conversion is a heap
	// allocation per entry.
	text := string(p)
	for i := uint32(0); i < n; i++ {
		if len(p) < 5 {
			return entries, ErrTruncated
		}
		id := underlay.HostID(int32(binary.BigEndian.Uint32(p)))
		alen := int(p[4])
		p = p[5:]
		if len(p) < alen {
			return entries, ErrTruncated
		}
		at := len(text) - len(p)
		addr, perr := netip.ParseAddrPort(text[at : at+alen])
		if perr != nil {
			return entries, fmt.Errorf("nettransport: bad book entry for host %d: %w", id, perr)
		}
		p = p[alen:]
		entries = append(entries, PeerEntry{ID: id, Addr: addr})
	}
	return entries, nil
}

// Merge decodes an Encode payload into the book, skipping entries it
// already has verbatim. It returns how many entries were added or
// updated. Malformed input returns an error, never panics.
func (b *AddressBook) Merge(p []byte) (changed int, err error) {
	entries, err := DecodePeers(p)
	for _, e := range entries {
		if b.Set(e.ID, e.Addr) {
			changed++
		}
	}
	return changed, err
}
