package kademlia

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"unap2p/internal/sim"
	"unap2p/internal/underlay"
)

// The hot paths (closest, the lookup shortlist) replaced
// allocate-and-sort implementations. Those are kept here as the
// references the lookup.Shortlist-based code must match element for
// element.

func refClosest(n *Node, target NodeID, k int) []Contact {
	var all []Contact
	for _, b := range n.buckets {
		all = append(all, b...)
	}
	sort.Slice(all, func(i, j int) bool {
		di, dj := Distance(all[i].ID, target), Distance(all[j].ID, target)
		if di != dj {
			return di < dj
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func refLookup(d *DHT, from underlay.HostID, target NodeID) LookupResult {
	origin := d.nodes[from]
	if origin == nil {
		return LookupResult{}
	}

	var res LookupResult
	queried := map[NodeID]bool{origin.ID: true}

	type cand struct {
		c Contact
		d uint64
	}
	var shortlist []cand
	addCand := func(c Contact) {
		for _, have := range shortlist {
			if have.c.ID == c.ID {
				return
			}
		}
		shortlist = append(shortlist, cand{c: c, d: Distance(c.ID, target)})
	}
	for _, c := range refClosest(origin, target, d.Cfg.K) {
		addCand(c)
	}

	sortShort := func() {
		sort.Slice(shortlist, func(i, j int) bool {
			if shortlist[i].d != shortlist[j].d {
				return shortlist[i].d < shortlist[j].d
			}
			return shortlist[i].c.ID < shortlist[j].c.ID
		})
	}
	topContacts := func() []Contact {
		out := make([]Contact, 0, d.Cfg.K)
		for i := 0; i < len(shortlist) && i < d.Cfg.K; i++ {
			out = append(out, shortlist[i].c)
		}
		return out
	}

	for {
		sortShort()
		var batch []Contact
		limit := len(shortlist)
		if limit > d.Cfg.K {
			limit = d.Cfg.K
		}
		for i := 0; i < limit && len(batch) < alpha; i++ {
			if !queried[shortlist[i].c.ID] {
				batch = append(batch, shortlist[i].c)
			}
		}
		if len(batch) == 0 {
			break
		}
		res.Hops++
		var roundLatency sim.Duration
		for _, c := range batch {
			queried[c.ID] = true
			peer := d.byID[c.ID]
			if peer == nil || !peer.host.Up {
				continue
			}
			rt := d.T.RoundTrip(origin.host, peer.host,
				RPCBytes, RPCBytes, "find_node", "response")
			res.Msgs += 2
			if !rt.OK {
				continue
			}
			if rt.Latency > roundLatency {
				roundLatency = rt.Latency
			}
			peer.observe(origin.Contact)
			for _, learned := range refClosest(peer, target, d.Cfg.K) {
				origin.observe(learned)
				addCand(learned)
			}
		}
		res.Latency += roundLatency
	}

	sortShort()
	res.Closest = topContacts()
	return res
}

// randomTable returns a free-standing node whose buckets hold `size`
// distinct random contacts (bucket sizes unconstrained: closest must not
// depend on them).
func randomTable(r *rand.Rand, size int) *Node {
	n := &Node{Contact: Contact{ID: NodeID(r.Uint64())}, cfg: Config{K: 8}, dht: &DHT{}}
	seen := map[NodeID]bool{n.ID: true}
	for len(seen) <= size {
		// Mix short and long common prefixes so low buckets fill too.
		id := n.ID ^ NodeID(r.Uint64()>>uint(r.Intn(64)))
		if !seen[id] {
			seen[id] = true
			addContact(n, id)
		}
	}
	return n
}

// addContact files id in its bucket of n's table, however full.
func addContact(n *Node, id NodeID) {
	s := n.slot(&n.buckets, bucketIndex(Distance(n.ID, id)))
	*s = append(*s, Contact{ID: id, Host: underlay.HostID(len(*s))})
}

// closestMatches reports whether n.closest(target, k) is the reference's
// K-prefix, contact for contact, with the right distances.
func closestMatches(n *Node, target NodeID, k int) bool {
	got := n.closest(target, k)
	want := refClosest(n, target, k)
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].ID != want[i] || got[i].Dist != Distance(want[i].ID, target) {
			return false
		}
	}
	return true
}

func TestQuickClosestMatchesReference(t *testing.T) {
	f := func(seed int64, target uint64, size uint8, kRaw uint8) bool {
		n := randomTable(rand.New(rand.NewSource(seed)), int(size))
		k := 1 + int(kRaw)%24
		return closestMatches(n, NodeID(target), k) &&
			// target == n.ID: no bucket h, every bucket lies above.
			closestMatches(n, n.ID, k) &&
			// k beyond the table: the stop rule never fires, all is read.
			closestMatches(n, NodeID(target), int(size)+1+int(kRaw))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Bucket h empty, the buckets below h holding `below` contacts and those
// above it `above`: whether the walk reads past the buckets below h is
// the stop rule's call alone (with above = 0 the table is filled only
// below h).
func TestQuickClosestStopRuleBelowH(t *testing.T) {
	f := func(seed int64, hRaw, below, above, kRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		h := 1 + int(hRaw)%63
		n := &Node{Contact: Contact{ID: NodeID(r.Uint64())}, cfg: Config{K: 8}, dht: &DHT{}}
		seen := map[NodeID]bool{}
		fill := func(count int, bucket func() int) {
			for len(seen) < count {
				i := bucket()
				id := n.ID ^ NodeID(1)<<i ^ NodeID(r.Uint64()&(1<<i-1))
				if !seen[id] {
					seen[id] = true
					addContact(n, id)
				}
			}
		}
		nBelow := min(int(below)%40, 1<<h-1) // buckets 0…h-1 hold 2^h-1 ids
		fill(nBelow, func() int { return r.Intn(h) })
		if h < 63 {
			fill(nBelow+int(above)%20, func() int { return h + 1 + r.Intn(63-h) })
		}
		target := n.ID ^ NodeID(1)<<h ^ NodeID(r.Uint64()&(1<<h-1))
		k := 1 + int(kRaw)%24
		return closestMatches(n, target, k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// tables renders every routing table and replacement cache of d, in
// stored order: equality means the two DHTs are interchangeable from
// here on.
func tables(d *DHT) string {
	var out string
	for _, n := range d.Nodes() {
		out += fmt.Sprintf("%x: %v | %v\n", n.ID, n.buckets, n.spares)
	}
	return out
}

// TestLookupMatchesReference drives two identically seeded 200-node DHTs
// through bootstrap and lookups — one through the scratch-based lookup,
// one through the reference — across dead contacts, and demands identical
// results and identical routing state afterwards.
func TestLookupMatchesReference(t *testing.T) {
	for _, pns := range []bool{false, true} {
		t.Run(fmt.Sprintf("pns=%v", pns), func(t *testing.T) {
			_, a := joinDHT(200, pns, 77)
			_, b := joinDHT(200, pns, 77)
			a.Bootstrap(4)
			// Bootstrap, on the reference.
			for _, n := range b.sorted {
				for s := 0; s < 4; s++ {
					if peer := b.sorted[b.r.Intn(len(b.sorted))]; peer != n {
						n.observe(peer.Contact)
					}
				}
			}
			for _, n := range b.sorted {
				refLookup(b, n.Host, n.ID)
			}
			if tables(a) != tables(b) {
				t.Fatal("routing tables differ after bootstrap")
			}

			r := rand.New(rand.NewSource(5))
			for i := 0; i < 400; i++ {
				if i == 150 { // a crash wave mid-run: dead contacts stay listed
					for j := 0; j < 30; j++ {
						a.Nodes()[j*5].host.Up = false
						b.Nodes()[j*5].host.Up = false
					}
				}
				from := a.Nodes()[r.Intn(200)].Host
				target := NodeID(r.Uint64())
				got, want := a.Lookup(from, target), refLookup(b, from, target)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("op %d: lookup diverges from the reference\n got %+v\nwant %+v", i, got, want)
				}
			}
			if tables(a) != tables(b) {
				t.Fatal("routing tables differ after the run")
			}
			if !reflect.DeepEqual(a.Msgs.Snapshot(), b.Msgs.Snapshot()) {
				t.Fatalf("message counters differ: %v vs %v", a.Msgs.Snapshot(), b.Msgs.Snapshot())
			}
		})
	}
}

// The per-hop paths must not allocate: closest writes into the DHT's
// scratch, stash shifts a full replacement cache in place, and a lookup
// allocates its returned Closest slice and nothing else.
func TestHotPathAllocs(t *testing.T) {
	_, d := buildDHT(t, 200, false, 41)
	// Tables are only as deep as their deepest bucket in use.
	for _, n := range d.Nodes() {
		for name, tab := range map[string]table{"buckets": n.buckets, "spares": n.spares} {
			if len(tab) > 0 && len(tab[len(tab)-1]) == 0 {
				t.Fatalf("node %x: %s table %d deep, its deepest list is empty", n.ID, name, len(tab))
			}
		}
		if len(n.spares) > len(n.buckets) {
			t.Fatalf("node %x: spares %d deep, buckets %d", n.ID, len(n.spares), len(n.buckets))
		}
	}
	n := d.Nodes()[7]
	target := NodeID(0xfeedface)
	if a := testing.AllocsPerRun(200, func() { n.closest(target, d.Cfg.K) }); a != 0 {
		t.Errorf("closest allocates %.0f times per call, want 0", a)
	}

	idx := 64 - len(n.buckets) // n's deepest bucket
	for i := 0; i < d.Cfg.K; i++ {
		n.stash(idx, Contact{ID: NodeID(1000 + i)})
	}
	next := NodeID(5000)
	if a := testing.AllocsPerRun(200, func() { next++; n.stash(idx, Contact{ID: next}) }); a != 0 {
		t.Errorf("stash at a full replacement cache allocates %.0f times per call, want 0", a)
	}
	if s := n.spares.bucket(idx); len(s) != d.Cfg.K || s[len(s)-1].ID != next || s[0].ID != next-NodeID(d.Cfg.K)+1 {
		t.Errorf("stash lost FIFO order: %v (newest %d)", s, next)
	}

	from := d.Nodes()[3].Host
	d.Lookup(from, target) // tables settle: later repeats learn nothing new
	if a := testing.AllocsPerRun(50, func() { d.Lookup(from, target) }); a > 1 {
		t.Errorf("a settled lookup allocates %.0f times, want ≤ 1 (the returned slice)", a)
	}
}

// Scratch is per DHT: two DHTs driven from two goroutines share nothing
// (run under -race), and each produces what it produces alone.
func TestScratchIsPerDHT(t *testing.T) {
	run := func(d *DHT, seed int64) string {
		r := rand.New(rand.NewSource(seed))
		var out string
		for i := 0; i < 300; i++ {
			res := d.Lookup(d.Nodes()[r.Intn(len(d.Nodes()))].Host, NodeID(r.Uint64()))
			out += fmt.Sprintf("%v:%d;", res.Closest, res.Hops)
		}
		return out
	}
	var want [2]string
	for i := range want {
		_, d := buildDHT(t, 80, i == 1, int64(90+i))
		want[i] = run(d, int64(i))
	}
	var got [2]string
	var wg sync.WaitGroup
	for i := range got {
		_, d := buildDHT(t, 80, i == 1, int64(90+i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = run(d, int64(i))
		}()
	}
	wg.Wait()
	if got != want {
		t.Fatal("concurrent DHTs diverge from their sequential runs: scratch is shared")
	}
}

func TestAddNodeKeepsMembershipSorted(t *testing.T) {
	_, d := joinDHT(120, false, 3)
	if !sort.SliceIsSorted(d.Nodes(), func(i, j int) bool { return d.Nodes()[i].ID < d.Nodes()[j].ID }) {
		t.Fatal("Nodes() not in NodeID order after sorted-insert joins")
	}
	if len(d.Nodes()) != 120 {
		t.Fatalf("%d nodes, want 120", len(d.Nodes()))
	}
}
