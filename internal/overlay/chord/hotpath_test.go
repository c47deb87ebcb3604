package chord

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"unap2p/internal/core"
	"unap2p/internal/underlay"
)

// refClosestInInterval is the PNS interval walk this package used to run:
// a successorOf binary search for every candidate. closestInInterval must
// choose the same node after the same Proximity calls.
func refClosestInInterval(c *Ring, from *Node, start, span ID) *Node {
	var best *Node
	bestCost := 1e308
	cur := c.successorOf(start)
	for i := 0; i < len(c.nodes); i++ {
		offset := cur.ID - start
		if offset >= span {
			break
		}
		if cur != from {
			if cost, ok := c.sel.Proximity(from.Host, cur.Host); ok && cost < bestCost {
				best, bestCost = cur, cost
			}
		}
		next := c.successorOf(cur.ID + 1)
		if next == cur {
			break
		}
		cur = next
	}
	return best
}

// recordingSelector answers Proximity from a fixed pseudo-random table —
// with ties and "no answer"s, so the strict-< tie rule matters — and logs
// every call.
type recordingSelector struct {
	core.NoPreference
	calls [][2]underlay.HostID
}

func (s *recordingSelector) Proximity(a, b *underlay.Host) (float64, bool) {
	s.calls = append(s.calls, [2]underlay.HostID{a.ID, b.ID})
	h := uint64(a.ID)*0x9e3779b97f4a7c15 ^ uint64(b.ID)*0xc2b2ae3d27d4eb4f
	h ^= h >> 29
	if h%7 == 0 {
		return 0, false
	}
	return float64(h % 5), true
}

// randomRing returns a bare ring of n distinct ids, clustered at random
// so that some intervals hold many nodes and some wrap past zero.
func randomRing(r *rand.Rand, n int) *Ring {
	ids := map[ID]bool{}
	for len(ids) < n {
		id := ID(r.Uint64())
		if r.Intn(3) == 0 {
			id = ID(r.Uint64() >> uint(r.Intn(64))) // near zero
		} else if r.Intn(2) == 0 {
			id = ^ID(r.Uint64() >> uint(r.Intn(64))) // near the top
		}
		ids[id] = true
	}
	c := &Ring{}
	for id := range ids {
		c.nodes = append(c.nodes, &Node{ID: id})
	}
	slices.SortFunc(c.nodes, func(a, b *Node) int { return cmpID(a.ID, b.ID) })
	for i, node := range c.nodes {
		node.Host = &underlay.Host{ID: underlay.HostID(i)}
	}
	return c
}

func cmpID(a, b ID) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func TestQuickClosestInIntervalMatchesReference(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%40
		if seed%5 == 0 {
			n = 1 + int(nRaw)%2 // n = 1 and n = 2 often
		}
		c := randomRing(r, n)
		from := c.nodes[r.Intn(n)]
		type interval struct{ start, span ID }
		var ivs []interval
		for i := 0; i < 64; i++ { // every finger slot of from
			ivs = append(ivs, interval{from.ID + ID(1)<<i, ID(1) << i})
		}
		for i := 0; i < 16; i++ {
			ivs = append(ivs,
				interval{ID(r.Uint64()), ID(r.Uint64())},                      // anywhere, any width
				interval{from.ID - ID(r.Uint64()>>uint(r.Intn(64))), ^ID(0)},  // contains from
				interval{^ID(r.Uint64() >> uint(r.Intn(64))), ID(r.Uint64())}, // wraps past zero
			)
		}
		for _, iv := range ivs {
			got, want := &recordingSelector{}, &recordingSelector{}
			c.sel = got
			g := c.closestInInterval(from, iv.start, iv.span)
			c.sel = want
			w := refClosestInInterval(c, from, iv.start, iv.span)
			if g != w || !reflect.DeepEqual(got.calls, want.calls) {
				t.Logf("n=%d start=%x span=%x: got %v after %v, want %v after %v",
					n, iv.start, iv.span, g, got.calls, w, want.calls)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkBuildPNS measures a full PNS table build over ~1000 hosts: for
// every node and finger slot, a walk over the slot's interval asking the
// selector for each candidate's RTT.
func BenchmarkBuildPNS(b *testing.B) {
	_, ring := buildRing(b, 1000, true, 21)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ring.Build()
	}
}
