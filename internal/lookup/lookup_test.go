package lookup

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// model is the shortlist said the slow way: remember every id ever
// offered, and on demand sort them all by distance and truncate.
type model struct {
	max     int
	dist    func(id uint16) uint64
	offered map[uint16]bool // id → queried (by its first offer, or by next)
}

func (m *model) listed() []Entry[uint16] {
	var all []Entry[uint16]
	for id, q := range m.offered {
		all = append(all, Entry[uint16]{Dist: m.dist(id), ID: id, Queried: q})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Dist < all[j].Dist })
	if len(all) > m.max {
		all = all[:m.max]
	}
	return all
}

// offer reports whether id enters the list: it was never offered before —
// a repeat is either still listed or was displaced, and a displaced id
// never re-enters — and it ranks among the max nearest.
func (m *model) offer(id uint16, queried bool) bool {
	if _, seen := m.offered[id]; seen {
		return false
	}
	m.offered[id] = queried
	for _, e := range m.listed() {
		if e.ID == id {
			return true
		}
	}
	return false
}

func (m *model) next() (uint16, bool) {
	for _, e := range m.listed() {
		if !e.Queried {
			m.offered[e.ID] = true
			return e.ID, true
		}
	}
	return 0, false
}

// TestQuickShortlistMatchesModel drives a Shortlist and the model through
// the same random interleaving of offers (ids from a small range, so
// repeats and re-offers of displaced ids are common; some born queried)
// and nexts, under both metrics the module uses, and after every step
// demands the same verdict and the same list — ids, distances, flags.
func TestQuickShortlistMatchesModel(t *testing.T) {
	check := func(seed int64, target uint64, maxRaw uint8, ring bool) bool {
		rng := rand.New(rand.NewSource(seed))
		max := 1 + int(maxRaw)%12
		if seed%5 == 0 {
			max = 1
		}
		key := func(id uint16) uint64 { return uint64(id) * 0x9e3779b97f4a7c15 } // injective: odd multiplier
		dist := func(id uint16) uint64 { return key(id) ^ target }
		if ring {
			dist = func(id uint16) uint64 { return target - key(id) } // clockwise distance
		}
		m := &model{max: max, dist: dist, offered: map[uint16]bool{}}
		var s Shortlist[uint16]
		s.Reset(max)
		for step := 0; step < 200; step++ {
			if rng.Intn(4) == 0 {
				got, gotOK := s.Next()
				want, wantOK := m.next()
				if got != want || gotOK != wantOK {
					t.Logf("step %d: Next = %d, %v; model says %d, %v", step, got, gotOK, want, wantOK)
					return false
				}
			} else {
				id, queried := uint16(rng.Intn(40)), rng.Intn(8) == 0
				if got, want := s.Offer(id, dist(id), queried), m.offer(id, queried); got != want {
					t.Logf("step %d: Offer(%d) = %v; model says %v", step, id, got, want)
					return false
				}
			}
			if got, want := s.Entries(), m.listed(); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Logf("step %d (max %d):\n got %v\nwant %v", step, max, got, want)
				return false
			}
		}
		ids := s.IDs()
		for i, e := range s.Entries() {
			if ids[i] != e.ID {
				return false
			}
		}
		prefix := []uint16{7}
		app := s.AppendIDs(prefix)
		return len(ids) == len(s.Entries()) && app[0] == 7 && reflect.DeepEqual(app[1:], ids)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// A list over a caller's array lives in it when it fits and allocates its
// own backing when it does not; Reset keeps whichever it has.
func TestShortlistBacking(t *testing.T) {
	var buf [4]Entry[int]
	s := New(buf[:], 3)
	for id := 10; id > 0; id-- {
		s.Offer(id, uint64(id), false)
	}
	if got := s.IDs(); !reflect.DeepEqual(got, []int{1, 2, 3}) || buf[0].ID != 1 {
		t.Fatalf("list %v, backing %v: want the three nearest, held in the caller's array", got, buf)
	}
	if a := testing.AllocsPerRun(100, func() {
		s.Reset(4)
		for id := 10; id > 0; id-- {
			s.Offer(id, uint64(id), false)
		}
	}); a != 0 {
		t.Fatalf("Reset+Offer within the backing's capacity allocates %.0f times", a)
	}
	s.Reset(6)
	for id := 10; id > 0; id-- {
		s.Offer(id, uint64(id), false)
	}
	if got := s.IDs(); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("list %v after outgrowing the caller's array", got)
	}
	ids := make([]int, 0, 8)
	if a := testing.AllocsPerRun(100, func() { ids = s.AppendIDs(ids[:0]) }); a != 0 {
		t.Fatalf("AppendIDs into a buffer with room allocates %.0f times", a)
	}
	s.Reset(0)
	if s.Offer(1, 1, false) || len(s.Entries()) != 0 {
		t.Fatal("a list capped at 0 took an entry")
	}
}

func TestInArc(t *testing.T) {
	const top = ^uint64(0)
	for _, c := range []struct {
		key, from, to uint64
		want          bool
	}{
		{20, 10, 30, true}, {5, 10, 30, false}, {10, 10, 30, false}, {30, 10, 30, true}, // plain arc, open at from, closed at to
		{2, top - 5, 10, true}, {top - 7, top - 5, 10, false}, {top, top - 5, 10, true}, // arc through zero
		{7, 7, 7, true}, {8, 7, 7, true}, {0, 7, 7, true}, // from == to: the full ring
	} {
		if got := InArc(c.key, c.from, c.to); got != c.want {
			t.Errorf("InArc(%d, %d, %d) = %v, want %v", c.key, c.from, c.to, got, c.want)
		}
	}
}
