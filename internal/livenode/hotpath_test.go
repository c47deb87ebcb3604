package livenode

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"unap2p/internal/lookup"
	"unap2p/internal/underlay"
)

// ClosestXor and the Kademlia lookup's candidate handling replaced
// copy-and-sort implementations. Those are kept here as the references
// the new code must match element for element.

func refClosestXor(members []underlay.HostID, target uint64, k int) []underlay.HostID {
	out := append([]underlay.HostID(nil), members...)
	sort.Slice(out, func(i, j int) bool {
		di, dj := NodeKey(out[i])^target, NodeKey(out[j])^target
		if di != dj {
			return di < dj
		}
		return out[i] < out[j]
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func refDedup(ids []underlay.HostID) []underlay.HostID {
	seen := make(map[underlay.HostID]bool, len(ids))
	var out []underlay.HostID
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// lookupModel is a cluster a lookup can run against without sockets: a
// queried node answers with the kadK closest ids of its own view, or not
// at all (down); dead ids are the ones the querier has evicted.
type lookupModel struct {
	self    underlay.HostID
	members []underlay.HostID // the querier's own view, self included
	views   map[underlay.HostID][]underlay.HostID
	down    map[underlay.HostID]bool
	dead    map[underlay.HostID]bool
}

func (m *lookupModel) reply(id underlay.HostID, target uint64) ([]underlay.HostID, bool) {
	if m.down[id] {
		return nil, false
	}
	return refClosestXor(m.views[id], target, kadK), true
}

// refProbes is the lookup loop as it was: a growing, duplicate-laden
// candidate list re-sorted in full before every probe, a queried map, and
// no stop rule but "frontier exhausted" and the probe budget. It returns
// the probe order, the position in it at which the kadK closest known
// candidates had all been dealt with (queried, self or dead) for the
// first time, and the closest candidate known at that point (probing on
// past it can still learn a closer one — what the stop rule gives up).
func refProbes(m *lookupModel, target uint64) (order []underlay.HostID, settled int, got underlay.HostID) {
	candidates := append([]underlay.HostID(nil), m.members...)
	queried := map[underlay.HostID]bool{m.self: true}
	settled = -1
	for probes := 0; probes < kadMaxProbes; probes++ {
		if settled < 0 {
			done := true
			for _, id := range refClosestXor(refDedup(candidates), target, kadK) {
				done = done && (queried[id] || m.dead[id])
			}
			if done {
				settled, got = len(order), refClosestXor(refDedup(candidates), target, 1)[0]
			}
		}
		var next underlay.HostID = -1
		for _, id := range refClosestXor(candidates, target, len(candidates)) {
			if !queried[id] && !m.dead[id] {
				next = id
				break
			}
		}
		if next < 0 {
			break
		}
		queried[next] = true
		order = append(order, next)
		peers, ok := m.reply(next, target)
		if !ok {
			continue
		}
		for _, p := range peers {
			if !m.dead[p] {
				candidates = append(candidates, p)
			}
		}
	}
	if settled < 0 {
		settled, got = len(order), refClosestXor(refDedup(candidates), target, 1)[0]
	}
	return order, settled, got
}

// shortlistProbes is kademlia.Lookup's loop over the model.
func shortlistProbes(m *lookupModel, target uint64) (order []underlay.HostID, got underlay.HostID) {
	var short lookup.Shortlist[underlay.HostID]
	short.Reset(kadK)
	offer := func(id underlay.HostID) { short.Offer(id, NodeKey(id)^target, id == m.self) }
	for _, id := range m.members {
		offer(id)
	}
	for probes := 0; probes < kadMaxProbes; {
		next, ok := short.Next()
		if !ok {
			break
		}
		if m.dead[next] {
			continue
		}
		probes++
		order = append(order, next)
		peers, ok := m.reply(next, target)
		if !ok {
			continue
		}
		for _, p := range peers {
			if !m.dead[p] {
				offer(p)
			}
		}
	}
	return order, short.Entries()[0].ID
}

// randomIDs draws n ids from a small range, so duplicates are common.
func randomIDs(rng *rand.Rand, n int) []underlay.HostID {
	ids := make([]underlay.HostID, n)
	for i := range ids {
		ids[i] = underlay.HostID(rng.Intn(96))
	}
	return ids
}

func TestClosestXorMatchesReference(t *testing.T) {
	check := func(seed int64, target uint64) bool {
		rng := rand.New(rand.NewSource(seed))
		members := randomIDs(rng, rng.Intn(65))
		// The reference ranks what it is given, twice if given twice; a
		// shortlist names a member once.
		distinct := refDedup(members)
		for k := 0; k <= len(members)+1; k++ {
			got, want := ClosestXor(members, target, k), refClosestXor(distinct, target, k)
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Logf("members %v target %#x k %d:\n got %v\nwant %v", members, target, k, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestShortlistProbesReferencePrefix: over random partial views, with
// down and evicted peers, the capped shortlist probes in order exactly
// the reference's probe sequence up to the point where the kadK closest
// are all queried, and resolves to the closest id the reference knew at
// that point.
func TestShortlistProbesReferencePrefix(t *testing.T) {
	stoppedEarly := 0
	check := func(seed int64, target uint64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(47)
		all := make([]underlay.HostID, n)
		for i := range all {
			all[i] = underlay.HostID(i + 1)
		}
		m := &lookupModel{self: all[0], views: map[underlay.HostID][]underlay.HostID{},
			down: map[underlay.HostID]bool{}, dead: map[underlay.HostID]bool{}}
		density := 0.1 + 0.9*rng.Float64()
		view := func(owner underlay.HostID) []underlay.HostID {
			v := []underlay.HostID{owner}
			for _, id := range all {
				if id != owner && rng.Float64() < density {
					v = append(v, id)
				}
			}
			return v
		}
		m.members = view(m.self)
		for _, id := range all[1:] {
			m.views[id] = view(id)
			switch rng.Intn(10) {
			case 0:
				m.down[id] = true
			case 1:
				m.dead[id] = true
			}
		}
		ref, settled, refGot := refProbes(m, target)
		got, shortGot := shortlistProbes(m, target)
		if len(got) != settled || !reflect.DeepEqual(got, ref[:settled]) || shortGot != refGot {
			t.Logf("n %d target %#x:\nshortlist %v → %d\nreference %v (settled after %d) → %d",
				n, target, got, shortGot, ref, settled, refGot)
			return false
		}
		if settled < len(ref) {
			stoppedEarly++
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if stoppedEarly == 0 {
		t.Fatal("no case in which the shortlist stopped before the reference did: the model is too small to test the stop rule")
	}
}

func TestClosestXorAllocs(t *testing.T) {
	members := make([]underlay.HostID, 16)
	for i := range members {
		members[i] = underlay.HostID(i + 1)
	}
	var sink []underlay.HostID
	target := uint64(0)
	allocs := testing.AllocsPerRun(200, func() {
		target += 0x9e3779b97f4a7c15
		sink = ClosestXor(members, target, kadK)
	})
	if allocs > 1 || len(sink) != kadK {
		t.Fatalf("ClosestXor(16 members, %d) allocates %.0f objects, want ≤ 1 (the result)", kadK, allocs)
	}
}

// BenchmarkClosestXor is one kad:find_node handler's ranking: the kadK
// closest of a 16-member view.
func BenchmarkClosestXor(b *testing.B) {
	members := make([]underlay.HostID, 16)
	for i := range members {
		members[i] = underlay.HostID(i + 1)
	}
	b.ReportAllocs()
	n := 0
	for i := 0; i < b.N; i++ {
		n += len(ClosestXor(members, uint64(i)*0x9e3779b97f4a7c15, kadK))
	}
	if n != b.N*kadK {
		b.Fatalf("ranked %d ids in %d calls", n, b.N)
	}
}
