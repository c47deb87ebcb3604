package kademlia

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"unap2p/internal/core"
	"unap2p/internal/sim"
	"unap2p/internal/topology"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

func buildDHT(t *testing.T, nHosts int, pns bool, seed int64) (*underlay.Network, *DHT) {
	t.Helper()
	net, d := joinDHT(nHosts, pns, seed)
	d.Bootstrap(4)
	return net, d
}

// joinDHT builds a DHT whose nodes have joined but not yet bootstrapped.
func joinDHT(nHosts int, pns bool, seed int64) (*underlay.Network, *DHT) {
	src := sim.NewSource(seed)
	tcfg := topology.TransitStubConfig{
		Config:   topology.Config{IntraDelay: 5, LinkDelay: 25, Rand: src.Stream("topo")},
		Transits: 2,
		Stubs:    8,
	}
	net := topology.TransitStub(tcfg)
	topology.PlaceHosts(net, (nHosts+7)/8, false, 1, 5, src.Stream("place"))
	cfg := DefaultConfig()
	var sel core.Selector
	if pns {
		sel = core.RTTSelector(net)
	}
	d := New(transport.Over(net), sel, cfg, src.Stream("dht"))
	for i, h := range net.Hosts() {
		if i >= nHosts {
			break
		}
		d.AddNode(h)
	}
	return net, d
}

func TestDistanceMetricProperties(t *testing.T) {
	f := func(a, b, c uint64) bool {
		x, y, z := NodeID(a), NodeID(b), NodeID(c)
		if Distance(x, x) != 0 {
			return false
		}
		if Distance(x, y) != Distance(y, x) {
			return false
		}
		// XOR triangle: d(x,z) ≤ d(x,y) + d(y,z) because
		// xor(a,c) = xor(xor(a,b), xor(b,c)) and xor(u,v) ≤ u+v.
		// Guard the uint64 sum against wrap-around: if it overflows, the
		// bound trivially holds.
		dxy, dyz := Distance(x, y), Distance(y, z)
		sum := dxy + dyz
		if sum < dxy { // overflow
			return true
		}
		return Distance(x, z) <= sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBucketIndex(t *testing.T) {
	if bucketIndex(0) != -1 {
		t.Fatal("self distance must have no bucket")
	}
	if bucketIndex(1) != 0 {
		t.Fatalf("bucketIndex(1) = %d", bucketIndex(1))
	}
	if bucketIndex(1<<63) != 63 {
		t.Fatalf("bucketIndex(msb) = %d", bucketIndex(1<<63))
	}
	if bucketIndex(0b1010) != 3 {
		t.Fatalf("bucketIndex(0b1010) = %d", bucketIndex(0b1010))
	}
}

func TestBucketCapacityInvariant(t *testing.T) {
	_, d := buildDHT(t, 60, false, 1)
	for _, n := range d.Nodes() {
		for depth, b := range n.buckets {
			i := 63 - depth
			if len(b) > d.Cfg.K {
				t.Fatalf("node %x bucket %d has %d > K entries", n.ID, i, len(b))
			}
			for _, c := range b {
				if got := bucketIndex(Distance(n.ID, c.ID)); got != i {
					t.Fatalf("contact in wrong bucket: %d vs %d", got, i)
				}
			}
		}
	}
}

func TestLookupConvergesToGlobalClosest(t *testing.T) {
	_, d := buildDHT(t, 60, false, 2)
	target := NodeID(0x123456789abcdef0)
	res := d.Lookup(d.Nodes()[0].Host, target)
	if len(res.Closest) == 0 {
		t.Fatal("no result")
	}
	// Ground truth: globally closest node.
	best := d.Nodes()[0].ID
	for _, n := range d.Nodes() {
		if Distance(n.ID, target) < Distance(best, target) {
			best = n.ID
		}
	}
	if res.Closest[0].ID != best {
		t.Fatalf("lookup found %x, global closest is %x", res.Closest[0].ID, best)
	}
	if res.Hops == 0 || res.Msgs == 0 || res.Latency <= 0 {
		t.Fatalf("implausible lookup stats %+v", res)
	}
}

func TestLookupLogarithmicHops(t *testing.T) {
	_, d := buildDHT(t, 120, false, 3)
	var totalHops int
	const probes = 40
	for i := 0; i < probes; i++ {
		target := NodeID(d.r.Uint64())
		res := d.Lookup(d.Nodes()[i%len(d.Nodes())].Host, target)
		totalHops += res.Hops
	}
	mean := float64(totalHops) / probes
	// log2(120)/... iterative with α=3 over k-buckets: a handful of hops.
	if mean > 8 {
		t.Fatalf("mean hops %.1f too high for 120 nodes", mean)
	}
}

func TestPNSReducesLookupLatencyAndInterAS(t *testing.T) {
	// Same seed → same topology and IDs; only bucket policy differs.
	_, plain := buildDHT(t, 100, false, 6)
	_, pns := buildDHT(t, 100, true, 6)

	probe := func(d *DHT) (lat float64, interAS float64) {
		var latSum sim.Duration
		r := sim.NewSource(99).Stream("probe")
		for i := 0; i < 60; i++ {
			from := d.Nodes()[r.Intn(len(d.Nodes()))].Host
			target := NodeID(r.Uint64())
			res := d.Lookup(from, target)
			latSum += res.Latency
		}
		frac := 1 - d.LookupTraffic.IntraFraction()
		return float64(latSum), frac
	}
	latPlain, interPlain := probe(plain)
	latPNS, interPNS := probe(pns)
	if latPNS >= latPlain {
		t.Fatalf("PNS latency %v not below plain %v", latPNS, latPlain)
	}
	if interPNS >= interPlain {
		t.Fatalf("PNS inter-AS fraction %.3f not below plain %.3f", interPNS, interPlain)
	}
}

func TestPNSKeepsLookupCorrect(t *testing.T) {
	_, d := buildDHT(t, 80, true, 7)
	for i := 0; i < 20; i++ {
		target := NodeID(d.r.Uint64())
		res := d.Lookup(d.Nodes()[i%80].Host, target)
		best := d.Nodes()[0].ID
		for _, n := range d.Nodes() {
			if Distance(n.ID, target) < Distance(best, target) {
				best = n.ID
			}
		}
		if len(res.Closest) == 0 || res.Closest[0].ID != best {
			t.Fatalf("PNS lookup %d missed global closest", i)
		}
	}
}

func TestLookupSurvivesDeadNodes(t *testing.T) {
	net, d := buildDHT(t, 80, false, 8)
	// Kill 25% of hosts.
	for i, h := range net.Hosts() {
		if i%4 == 0 {
			h.Up = false
		}
	}
	alive := 0
	var from underlay.HostID
	for _, n := range d.Nodes() {
		if n.host.Up {
			from = n.Host
			alive++
		}
	}
	if alive == 0 {
		t.Skip("all dead")
	}
	res := d.Lookup(from, NodeID(0xabcdef))
	if len(res.Closest) == 0 {
		t.Fatal("lookup returned nothing amid churn")
	}
}

func TestAddNodePanicsOnDuplicateHost(t *testing.T) {
	net, d := buildDHT(t, 10, false, 9)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.AddNode(net.Hosts()[0])
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(nil, nil, Config{K: 0}, nil)
}

func TestDeterministicLookups(t *testing.T) {
	run := func() string {
		_, d := buildDHT(t, 60, true, 10)
		var out string
		for i := 0; i < 10; i++ {
			res := d.Lookup(d.Nodes()[i].Host, NodeID(uint64(i)*0x9e3779b97f4a7c15))
			out += fmt.Sprintf("%x:%d:%d;", res.Closest[0].ID, res.Hops, res.Msgs)
		}
		return out
	}
	if run() != run() {
		t.Fatal("lookups not deterministic")
	}
}

// Property: closest() returns contacts sorted by XOR distance.
func TestQuickClosestSorted(t *testing.T) {
	_, d := buildDHT(t, 50, false, 11)
	f := func(targetRaw uint64, nodeIdx uint8) bool {
		n := d.Nodes()[int(nodeIdx)%len(d.Nodes())]
		target := NodeID(targetRaw)
		cs := n.closest(target, d.Cfg.K)
		dists := make([]uint64, len(cs))
		for i, c := range cs {
			dists[i] = Distance(c.ID.ID, target)
		}
		return sort.SliceIsSorted(dists, func(i, j int) bool { return dists[i] < dists[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLookupFromUnknownHost(t *testing.T) {
	_, d := buildDHT(t, 10, false, 21)
	res := d.Lookup(underlay.HostID(9999), NodeID(1))
	if len(res.Closest) != 0 || res.Hops != 0 {
		t.Fatalf("unknown-host lookup returned %+v", res)
	}
}
