// Package lookup holds the routing state every iterative lookup in the
// module shares, whichever runtime drives it: the K closest candidates a
// lookup has heard of, sorted by distance to its one target, each flagged
// once queried. The classic DHT's synchronous α-batch rounds
// (overlay/kademlia), the megascale α-in-flight walk (megascale.Iter, under
// compact Kademlia and compact Chord) and the live engine's sequential
// probe loop (livenode) are three drivers over the same Shortlist; a
// routing table's "K nearest to target" is the same list read without
// ever calling Next.
//
// The package is a stdlib-only leaf: it knows no overlay, no metric and no
// transport. Callers hand it distances.
package lookup

// Entry is one candidate. Distance first, so that for a 4-byte id the
// entry packs into 16 bytes.
type Entry[T any] struct {
	Dist    uint64
	ID      T
	Queried bool
}

// Shortlist is the max candidates nearest one target, nearest first. The
// zero value is ready for Reset.
//
// It rests on the distance to one target being injective in the id — true
// of XOR and of clockwise ring distance over distinct ids — which gives
// its two invariants: equal distance means already listed, and a candidate
// beyond the max best can never re-enter (entries are only ever displaced
// by closer ones), so dropping it is the same as keeping it unqueried
// forever. The second is why a lookup needs no queried set beside the
// list.
type Shortlist[T any] struct {
	e   []Entry[T]
	max int
}

// New returns an empty list of at most max entries that lives in buf — a
// caller's stack array, say — when buf has the room.
func New[T any](buf []Entry[T], max int) Shortlist[T] {
	s := Shortlist[T]{e: buf}
	s.Reset(max)
	return s
}

// Reset empties the list and caps it at max entries, keeping its backing
// array when that is large enough.
func (s *Shortlist[T]) Reset(max int) {
	if cap(s.e) < max {
		s.e = make([]Entry[T], 0, max)
	}
	s.e, s.max = s.e[:0], max
}

// Offer inserts id at its sorted position and reports whether it did: a
// candidate already listed, or farther than max listed ones, is dropped.
func (s *Shortlist[T]) Offer(id T, dist uint64, queried bool) bool {
	e := s.e
	i := len(e)
	for i > 0 && e[i-1].Dist > dist {
		i--
	}
	if i == s.max || (i > 0 && e[i-1].Dist == dist) {
		return false
	}
	if len(e) < s.max {
		// Grown in place, not through e: storing a slice read from s back
		// into s would make escape analysis move a caller's stack-resident
		// backing array to the heap.
		s.e = s.e[:len(e)+1]
		e = s.e
	}
	copy(e[i+1:], e[i:])
	e[i] = Entry[T]{Dist: dist, ID: id, Queried: queried}
	return true
}

// Next marks and returns the nearest entry not yet queried; false once
// every listed entry is — the lookup's stop rule.
func (s *Shortlist[T]) Next() (id T, ok bool) {
	for i := range s.e {
		if e := &s.e[i]; !e.Queried {
			e.Queried = true
			return e.ID, true
		}
	}
	return id, false
}

// Entries returns the list, nearest first. It aliases the list's storage:
// valid until the next Offer or Reset, and not to be written.
func (s *Shortlist[T]) Entries() []Entry[T] { return s.e }

// IDs returns the listed ids, nearest first, in a slice of their own.
func (s *Shortlist[T]) IDs() []T { return s.AppendIDs(make([]T, 0, len(s.e))) }

// AppendIDs appends the listed ids, nearest first, to buf and returns the
// extended slice: into a warmed buffer it allocates nothing.
func (s *Shortlist[T]) AppendIDs(buf []T) []T {
	for i := range s.e {
		buf = append(buf, s.e[i].ID)
	}
	return buf
}

// InArc reports whether key lies in the half-open ring arc (from, to];
// from == to is the full ring.
func InArc(key, from, to uint64) bool {
	if from < to {
		return key > from && key <= to
	}
	return key > from || key <= to
}
