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
// counterpart of the simulated underlay's host table, and a live node's
// one membership record. It is written concurrently by the join
// handshake, the receive loop (which learns sender addresses), lookup
// replies and evictions, and read on every send, so access is guarded by
// a read-write mutex; the entry set is tiny (one per peer), making
// contention irrelevant next to the socket syscalls around it. Addresses
// are values, stored unmapped (an IPv4-mapped IPv6 address and its IPv4
// form are one entry), so "unchanged?" is ==.
//
// Some ids are closed to Set and Merge: the pinned self entry, and every
// id Remove evicted. Every write but Pin and Remove carries what some
// peer said, so closing an id is what keeps a peer from rewriting the
// node's own address or re-admitting a member the node declared dead.
type AddressBook struct {
	mu      sync.RWMutex
	addrs   map[underlay.HostID]netip.AddrPort
	closed  map[underlay.HostID]bool // one entry for self, plus one per eviction
	version uint64                   // bumped on every change; Version lets pollers skip an unchanged book
}

// NewAddressBook returns an empty book.
func NewAddressBook() *AddressBook {
	return &AddressBook{
		addrs:  make(map[underlay.HostID]netip.AddrPort),
		closed: make(map[underlay.HostID]bool),
	}
}

// unmap folds an IPv4-mapped IPv6 address onto its IPv4 form — what a
// dual-stack socket reports for an IPv4 sender, and what an IPv4 socket
// refuses to send to.
func unmap(a netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(a.Addr().Unmap(), a.Port())
}

// Pin records addr as this process's own entry and closes that entry to
// Set, Merge and Remove from then on. A node's address is where its
// socket is bound, and a peer must not be able to rewrite what the node
// goes on to advertise as itself.
func (b *AddressBook) Pin(self underlay.HostID, addr netip.AddrPort) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.addrs[self] = unmap(addr)
	b.closed[self] = true
	b.version++
}

// Set records (or replaces) the address for id, reporting whether the
// entry changed; a closed id is left as it is. Last write wins: a peer
// that rebinds (NAT, restart) overwrites its stale entry the moment any
// frame arrives from it. The receive loop calls Set for every frame, so
// the unchanged case — all of them, on a settled cluster — takes only the
// read lock.
func (b *AddressBook) Set(id underlay.HostID, addr netip.AddrPort) bool {
	if !addr.IsValid() {
		return false
	}
	addr = unmap(addr)
	b.mu.RLock()
	keep := b.addrs[id] == addr || b.closed[id] // the zero AddrPort of a missing entry equals no valid addr
	b.mu.RUnlock()
	if keep {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.addrs[id] == addr || b.closed[id] {
		return false
	}
	b.addrs[id] = addr
	b.version++
	return true
}

// Remove evicts id: it drops id's entry and closes id to every later Set
// and Merge, so no stale frame, hello book or lookup reply that still
// names the peer brings it back. It reports whether this call evicted
// id; a closed id (evicted before, or pinned) is left as it is.
func (b *AddressBook) Remove(id underlay.HostID) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed[id] {
		return false
	}
	b.closed[id] = true
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
	ids := b.AppendIDs(make([]underlay.HostID, 0, b.Len()))
	slices.Sort(ids)
	return ids
}

// AppendIDs appends every known host id to dst, in no particular order,
// and returns the extended slice.
func (b *AddressBook) AppendIDs(dst []underlay.HostID) []underlay.HostID {
	b.mu.RLock()
	for id := range b.addrs {
		dst = append(dst, id)
	}
	b.mu.RUnlock()
	return dst
}

// Len reports the number of entries.
func (b *AddressBook) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.addrs)
}

// Version reports the change counter — it increases on every Pin,
// eviction and effective Set, so pollers can detect quiescence.
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
// silently skipping ids the book does not hold. The result is one fresh
// buffer the caller owns.
func (b *AddressBook) EncodeIDs(ids []underlay.HostID) []byte {
	return b.AppendEncodedIDs(make([]byte, 0, 4+len(ids)*peerEntryHint), ids)
}

// AppendEncodedIDs is EncodeIDs appending onto out. The Kademlia engine
// answers find_node this way with a mini address book of the k closest
// peers, so a querier learns addresses along with ids, written into a
// reply buffer the engine reuses.
func (b *AddressBook) AppendEncodedIDs(out []byte, ids []underlay.HostID) []byte {
	start := len(out)
	out = append(out, 0, 0, 0, 0)
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
	binary.BigEndian.PutUint32(out[start:], n)
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
	// Bound the allocation by what the buffer can actually hold (see
	// AppendPeers): without this check a 4-byte payload claiming
	// 0xFFFFFFFF entries would allocate ~100 GB.
	n := binary.BigEndian.Uint32(p)
	if int64(n)*5 > int64(len(p)-4) {
		return nil, ErrTruncated
	}
	return AppendPeers(make([]PeerEntry, 0, n), p)
}

// AppendPeers is DecodePeers appending the entries onto dst, so a caller
// with a stack array decodes a reply without touching the heap. On error
// it returns dst extended by the entries decoded before the bad one.
func AppendPeers(dst []PeerEntry, p []byte) ([]PeerEntry, error) {
	if len(p) < 4 {
		return dst, ErrTruncated
	}
	n := binary.BigEndian.Uint32(p)
	p = p[4:]
	// Every entry needs at least id(4)+addrlen(1) bytes, so a count
	// claiming more than len(p)/5 entries is lying.
	if int64(n)*5 > int64(len(p)) {
		return dst, ErrTruncated
	}
	for i := uint32(0); i < n; i++ {
		if len(p) < 5 {
			return dst, ErrTruncated
		}
		id := underlay.HostID(int32(binary.BigEndian.Uint32(p)))
		alen := int(p[4])
		p = p[5:]
		if len(p) < alen {
			return dst, ErrTruncated
		}
		addr, ok := parseAddrPort4(p[:alen])
		if !ok {
			var perr error
			if addr, perr = netip.ParseAddrPort(string(p[:alen])); perr != nil {
				return dst, fmt.Errorf("nettransport: bad book entry for host %d: %w", id, perr)
			}
		}
		p = p[alen:]
		dst = append(dst, PeerEntry{ID: id, Addr: addr})
	}
	return dst, nil
}

// parseAddrPort4 is netip.ParseAddrPort's IPv4 case, read straight from
// the bytes: four decimal octets without leading zeros, each ≤ 255, then
// a port of one to five digits ≤ 65535. It declines (ok false) anything
// else — IPv6, host names, malformed text — which the caller hands to
// ParseAddrPort, so every input it accepts parses there to the same
// value (FuzzPeerAddr).
func parseAddrPort4(b []byte) (ap netip.AddrPort, ok bool) {
	var ip [4]byte
	i := 0
	for field := 0; field < 4; field++ {
		if field > 0 {
			if i == len(b) || b[i] != '.' {
				return ap, false
			}
			i++
		}
		v, digits := 0, 0
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9' && digits < 3; i++ {
			v = v*10 + int(b[i]-'0')
			digits++
		}
		if digits == 0 || v > 255 || (digits > 1 && b[i-digits] == '0') {
			return ap, false
		}
		ip[field] = byte(v)
	}
	if i == len(b) || b[i] != ':' {
		return ap, false
	}
	i++
	port, digits := 0, len(b)-i
	if digits == 0 || digits > 5 {
		return ap, false
	}
	for ; i < len(b); i++ {
		if b[i] < '0' || b[i] > '9' {
			return ap, false
		}
		port = port*10 + int(b[i]-'0')
	}
	if port > 65535 {
		return ap, false
	}
	return netip.AddrPortFrom(netip.AddrFrom4(ip), uint16(port)), true
}

// Merge decodes an Encode payload into the book through Set, so entries
// it already has verbatim and closed ids are skipped. It returns how many
// entries were added or updated. Malformed input returns an error, never
// panics.
func (b *AddressBook) Merge(p []byte) (changed int, err error) {
	entries, err := DecodePeers(p)
	for _, e := range entries {
		if b.Set(e.ID, e.Addr) {
			changed++
		}
	}
	return changed, err
}
