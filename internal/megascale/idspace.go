package megascale

import (
	"cmp"
	"slices"
	"sort"

	"unap2p/internal/underlay"
)

// IDSpace is the flat-array node-id layer the structured compact
// overlays share: one unique 64-bit id per PeerTable peer, hashed
// deterministically from (seed, peer), plus the sorted view and rank
// maps that exact ground-truth checks, geometric bootstrap contacts and
// compact Chord's derived ring are built from. ID reads by peer; Rank,
// ByRank and IDAt read in ascending-id (ring) order. Everything is
// immutable after construction, so any shard may read it.
type IDSpace struct {
	ids    []uint64 // ids[p] is peer p's node id
	sorted []uint64 // ids ascending
	rank   []int32  // rank[p] is peer p's index in sorted order
	byRank []underlay.PeerID
}

// NewIDSpace assigns n unique ids hashed from the seed. Collisions are
// re-hashed, so ids are unique and still a pure function of (seed, n).
func NewIDSpace(n int, seed uint64) *IDSpace { return newIDSpace(n, seed, Mix64) }

// newIDSpace is NewIDSpace over hash, the seam through which tests force
// collisions. Peer p draws hash(seed ^ p·φ) and, while a peer before it
// holds that id, moves on to the hash of it. Collisions show up as equal
// neighbours in the sorted array index builds anyway; only when there is
// one does rehash walk the peers in order.
func newIDSpace(n int, seed uint64, hash func(uint64) uint64) *IDSpace {
	ids := make([]uint64, n)
	for p := range ids {
		ids[p] = hash(seed ^ uint64(p)*0x9e3779b97f4a7c15)
	}
	s := NewIDSpaceFrom(ids)
	for r := 1; r < n; r++ {
		if s.sorted[r] == s.sorted[r-1] {
			s.rehash(hash)
			s.index()
			break
		}
	}
	return s
}

// NewIDSpaceFrom builds the space over explicit ids (they must be
// unique). Ports with an external id assignment — and the fuzz harness —
// use this; most callers want NewIDSpace.
func NewIDSpaceFrom(ids []uint64) *IDSpace {
	s := &IDSpace{ids: ids}
	s.index()
	return s
}

// idPeer is one peer's sort key.
type idPeer struct {
	id uint64
	p  underlay.PeerID
}

// index builds the sorted view and the rank maps from ids, ordering
// peers that share an id by peer.
func (s *IDSpace) index() {
	n := len(s.ids)
	pairs := make([]idPeer, n)
	for p, id := range s.ids {
		pairs[p] = idPeer{id, underlay.PeerID(p)}
	}
	slices.SortFunc(pairs, func(a, b idPeer) int {
		if c := cmp.Compare(a.id, b.id); c != 0 {
			return c
		}
		return cmp.Compare(a.p, b.p)
	})
	s.sorted = make([]uint64, n)
	s.rank = make([]int32, n)
	s.byRank = make([]underlay.PeerID, n)
	for r, e := range pairs {
		s.sorted[r], s.byRank[r], s.rank[e.p] = e.id, e.p, int32(r)
	}
}

// rehash resolves collisions in peer order, as a walk over every peer
// with a set of the ids taken so far would: peer p keeps the first of
// ids[p], hash(ids[p]), … that no peer before it holds. An id once held
// stays held, so an id that some peer q < p drew is held when p comes:
// by q, or by whoever forced q off it. Before the walk sorted and byRank
// order the drawn ids by (id, peer), so one binary search answers that;
// moved holds the few ids peers were re-hashed onto.
func (s *IDSpace) rehash(hash func(uint64) uint64) {
	moved := map[uint64]bool{}
	held := func(id uint64, p int) bool {
		r, drawn := slices.BinarySearch(s.sorted, id)
		return moved[id] || drawn && int(s.byRank[r]) < p
	}
	for p, drawn := range s.ids {
		id := drawn
		for held(id, p) {
			id = hash(id)
		}
		if id != drawn {
			s.ids[p] = id
			moved[id] = true
		}
	}
}

// Len reports the peer count.
func (s *IDSpace) Len() int { return len(s.ids) }

// ID returns peer p's node id.
func (s *IDSpace) ID(p underlay.PeerID) uint64 { return s.ids[p] }

// Rank returns peer p's index in ascending-id order.
func (s *IDSpace) Rank(p underlay.PeerID) int { return int(s.rank[p]) }

// ByRank returns the peer holding ascending-id rank r.
func (s *IDSpace) ByRank(r int) underlay.PeerID { return s.byRank[r] }

// IDAt returns the id at ascending-id rank r, ID(ByRank(r)) without the
// second lookup.
func (s *IDSpace) IDAt(r int) uint64 { return s.sorted[r] }

// ClosestXOR returns the node id globally XOR-closest to target — exact
// ground truth for Kademlia-style overlays, computed by descending the
// implicit binary trie over the sorted id list: at each bit, follow the
// branch matching the target's bit if any id lives there, else the other
// branch. O(64 log n) per query, no per-peer state.
func (s *IDSpace) ClosestXOR(target uint64) uint64 {
	ids := s.sorted
	lo, hi := 0, len(ids)
	for bit := 63; bit >= 0 && hi-lo > 1; bit-- {
		mask := uint64(1) << uint(bit)
		// Ids in [lo,hi) share all bits above bit; mid splits the
		// 0-branch [lo,mid) from the 1-branch [mid,hi).
		mid := lo + sort.Search(hi-lo, func(i int) bool { return ids[lo+i]&mask != 0 })
		if target&mask == 0 {
			if mid > lo {
				hi = mid
			} else {
				lo = mid
			}
		} else {
			if mid < hi {
				lo = mid
			} else {
				hi = mid
			}
		}
	}
	return ids[lo]
}

// SuccessorRank returns the rank of the first id clockwise from target
// (inclusive) — ring ground truth for Chord-style overlays.
func (s *IDSpace) SuccessorRank(target uint64) int {
	ids := s.sorted
	r := sort.Search(len(ids), func(i int) bool { return ids[i] >= target })
	if r == len(ids) {
		r = 0
	}
	return r
}

// PredecessorID returns the id of the last node strictly counterclockwise
// from target — the node whose successor owns target on the ring.
func (s *IDSpace) PredecessorID(target uint64) uint64 {
	n := len(s.sorted)
	return s.sorted[(s.SuccessorRank(target)+n-1)%n]
}

// CWDist is the clockwise ring distance from id a to id b (how far b is
// ahead of a on the 2^64 ring).
func CWDist(a, b uint64) uint64 { return b - a }

// SeedContacts feeds every peer a deterministic bootstrap contact set
// covering every distance scale: `fanout` pseudo-random peers, the
// `near` successors AND predecessors on the sorted id ring, and finger
// links at geometric rank offsets (±1, ±2, ±4, …). The geometry matters
// at scale. Random contacts alone leave the best candidate ~n/table-size
// ranks from any target, and a local-only ring cannot bridge that gap,
// so requests at 10⁵⁺ peers wander and stall far from the answer;
// geometric fingers put a contact in every distance band, restoring
// O(log n) convergence. Ring links are bidirectional because the closest
// peer is findable only through peers that know it. Call during
// single-threaded setup; observe receives each (peer, contact) pair in a
// fixed order.
func (s *IDSpace) SeedContacts(seed uint64, fanout, near int, observe func(p, q underlay.PeerID)) {
	n := len(s.ids)
	for p := 0; p < n; p++ {
		r := int(s.rank[p])
		for f := 0; f < fanout; f++ {
			q := int(Mix64(seed^uint64(p)<<20^uint64(f)) % uint64(n))
			observe(underlay.PeerID(p), underlay.PeerID(q))
		}
		for step := 1; step <= near; step++ {
			observe(underlay.PeerID(p), s.byRank[(r+step)%n])
			observe(underlay.PeerID(p), s.byRank[(r-step+n)%n])
		}
		for j := 0; 1<<j < n; j++ {
			observe(underlay.PeerID(p), s.byRank[(r+1<<j)%n])
			observe(underlay.PeerID(p), s.byRank[(r-1<<j%n+n)%n])
		}
	}
}
