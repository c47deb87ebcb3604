package underlay

import (
	"testing"
	"testing/quick"

	"unap2p/internal/sim"
)

// hierarchy builds the Figure 1 topology: two transit ISPs peered with
// each other, each providing transit to two local ISPs; the local ISPs of
// transit 0 also peer with each other.
//
//	  T0 ===peer=== T1
//	 /  \          /  \
//	L0   L1      L2    L3
//	\\...peer.../       (L0–L1 peering)
func hierarchy() (*Network, []*AS) {
	n := New()
	t0 := n.AddAS(TransitISP, 5)
	t1 := n.AddAS(TransitISP, 5)
	l0 := n.AddAS(LocalISP, 2)
	l1 := n.AddAS(LocalISP, 2)
	l2 := n.AddAS(LocalISP, 2)
	l3 := n.AddAS(LocalISP, 2)
	n.ConnectPeering(t0, t1, 20)
	n.ConnectTransit(l0, t0, 10)
	n.ConnectTransit(l1, t0, 10)
	n.ConnectTransit(l2, t1, 10)
	n.ConnectTransit(l3, t1, 10)
	n.ConnectPeering(l0, l1, 3)
	return n, []*AS{t0, t1, l0, l1, l2, l3}
}

func TestValleyFreePrefersPeeringOverTransit(t *testing.T) {
	n, as := hierarchy()
	// L0→L1 should use the direct peering link (1 hop), not the path via T0.
	p := n.ASPath(as[2].ID, as[3].ID)
	if len(p) != 2 || p[0] != as[2].ID || p[1] != as[3].ID {
		t.Fatalf("L0→L1 path = %v, want direct peering", p)
	}
	if d := n.ASDelay(as[2].ID, as[3].ID); d != 3 {
		t.Fatalf("L0→L1 delay = %v, want 3", d)
	}
}

func TestValleyFreeUpPeerDown(t *testing.T) {
	n, as := hierarchy()
	// L0→L2 must climb to T0, cross the T0–T1 peering, descend to L2.
	p := n.ASPath(as[2].ID, as[4].ID)
	want := []int{as[2].ID, as[0].ID, as[1].ID, as[4].ID}
	if len(p) != len(want) {
		t.Fatalf("L0→L2 path = %v, want %v", p, want)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("L0→L2 path = %v, want %v", p, want)
		}
	}
	if d := n.ASDelay(as[2].ID, as[4].ID); d != 40 {
		t.Fatalf("L0→L2 delay = %v, want 40", d)
	}
}

func TestValleyFreeForbidsValley(t *testing.T) {
	// Two stubs sharing a provider chain cannot route *through* another
	// stub: L0–L1 with no peering and a common provider must go via T0,
	// and a customer must never transit its peers' traffic downhill-uphill.
	n := New()
	t0 := n.AddAS(TransitISP, 5)
	l0 := n.AddAS(LocalISP, 2)
	l1 := n.AddAS(LocalISP, 2)
	l2 := n.AddAS(LocalISP, 2)
	n.ConnectTransit(l0, t0, 10)
	n.ConnectTransit(l1, t0, 10)
	// l2 peers with l0 and l1: a "valley" l0→l2→l1 (peer,peer) is invalid.
	n.ConnectPeering(l0, l2, 1)
	n.ConnectPeering(l2, l1, 1)
	p := n.ASPath(l0.ID, l1.ID)
	// Valid valley-free options: up-down via T0 (2 hops). The 2-peering
	// path l0-l2-l1 has 2 hops as well but is NOT valley-free.
	if len(p) != 3 || p[1] != t0.ID {
		t.Fatalf("path = %v, want via T0 (valley-free)", p)
	}
}

func TestValleyFreeUnreachableWithoutExport(t *testing.T) {
	// Peer of my peer is unreachable when neither has a provider: p2p
	// routes are not exported to other peers.
	n := New()
	a := n.AddAS(LocalISP, 1)
	b := n.AddAS(LocalISP, 1)
	c := n.AddAS(LocalISP, 1)
	n.ConnectPeering(a, b, 1)
	n.ConnectPeering(b, c, 1)
	if n.Reachable(a.ID, c.ID) {
		t.Fatal("a should not reach c via two peering hops")
	}
	if n.ASHops(a.ID, c.ID) != -1 {
		t.Fatal("ASHops should be -1 for unreachable")
	}
	if n.ASPath(a.ID, c.ID) != nil {
		t.Fatal("ASPath should be nil for unreachable")
	}
}

func TestShortestDelayPolicyIgnoresEconomics(t *testing.T) {
	n := New()
	a := n.AddAS(LocalISP, 1)
	b := n.AddAS(LocalISP, 1)
	c := n.AddAS(LocalISP, 1)
	n.ConnectPeering(a, b, 1)
	n.ConnectPeering(b, c, 1)
	n.Policy = ShortestDelay
	if !n.Reachable(a.ID, c.ID) {
		t.Fatal("shortest-delay policy should reach c")
	}
	if d := n.ASDelay(a.ID, c.ID); d != 2 {
		t.Fatalf("delay = %v, want 2", d)
	}
}

func TestShortestDelayPrefersLowDelayOverFewHops(t *testing.T) {
	n := New()
	a := n.AddAS(LocalISP, 1)
	b := n.AddAS(LocalISP, 1)
	c := n.AddAS(LocalISP, 1)
	n.ConnectPeering(a, c, 100) // direct but slow
	n.ConnectPeering(a, b, 10)
	n.ConnectPeering(b, c, 10) // two hops but fast
	n.Policy = ShortestDelay
	p := n.ASPath(a.ID, c.ID)
	if len(p) != 3 {
		t.Fatalf("path = %v, want 2-hop low-delay path", p)
	}
	if d := n.ASDelay(a.ID, c.ID); d != 20 {
		t.Fatalf("delay = %v, want 20", d)
	}
}

func TestValleyFreePrefersFewerHops(t *testing.T) {
	// Valley-free keeps BGP semantics: fewer AS hops wins even if slower.
	n := New()
	a := n.AddAS(LocalISP, 1)
	b := n.AddAS(LocalISP, 1)
	c := n.AddAS(LocalISP, 1)
	n.ConnectPeering(a, c, 100)
	n.ConnectTransit(a, b, 10)
	n.ConnectTransit(c, b, 10)
	p := n.ASPath(a.ID, c.ID)
	if len(p) != 2 {
		t.Fatalf("path = %v, want direct 1-hop peering", p)
	}
}

func TestHostLatency(t *testing.T) {
	n, as := hierarchy()
	h1 := n.AddHost(as[2], 5) // L0
	h2 := n.AddHost(as[2], 5) // L0
	h3 := n.AddHost(as[4], 5) // L2

	if d := n.Latency(h1, h1); d != 0 {
		t.Fatalf("self latency = %v", d)
	}
	// Same AS: access + access + intra (2).
	if d := n.Latency(h1, h2); d != 12 {
		t.Fatalf("intra-AS latency = %v, want 12", d)
	}
	// Cross: 5+5 access + 1+1 half intra + 40 AS path = 52.
	if d := n.Latency(h1, h3); d != 52 {
		t.Fatalf("inter-AS latency = %v, want 52", d)
	}
	if rtt := n.RTT(h1, h3); rtt != 104 {
		t.Fatalf("rtt = %v, want 104", rtt)
	}
}

func TestSendAccountsTrafficAndLinks(t *testing.T) {
	n, as := hierarchy()
	h1 := n.AddHost(as[2], 5)
	h2 := n.AddHost(as[2], 5)
	h3 := n.AddHost(as[4], 5)

	n.Send(h1, h2, 1000) // intra
	n.Send(h1, h3, 500)  // L0→T0→T1→L2

	if got := n.SentBytes(); got != 1500 {
		t.Fatalf("SentBytes = %d, want 1500 (intra and inter alike)", got)
	}
	// The L0–T0 transit link must have carried the 500 bytes uphill.
	var carried uint64
	for _, l := range n.Links() {
		if l.Kind == Transit && (l.A.ID == as[2].ID || l.B.ID == as[2].ID) {
			carried += l.Bytes()
		}
	}
	if carried != 500 {
		t.Fatalf("transit link carried %d, want 500", carried)
	}
	// Peering link T0–T1 carried it too.
	for _, l := range n.Links() {
		if l.Kind == Peering && l.A.Kind == TransitISP {
			if l.Bytes() != 500 {
				t.Fatalf("T0-T1 peering carried %d, want 500", l.Bytes())
			}
		}
	}
}

// TestSendAllocatesNothing pins Send at zero allocations on warm routes,
// with every call crossing an AS pair no earlier Send used.
func TestSendAllocatesNothing(t *testing.T) {
	n := benchNet()
	hosts := n.Hosts()
	n.ComputeRoutes()
	var pairs [][2]*Host
	for _, a := range hosts {
		for _, b := range hosts {
			if a.AS != b.AS {
				pairs = append(pairs, [2]*Host{a, b})
			}
		}
	}
	next := 0
	allocs := testing.AllocsPerRun(200, func() {
		n.Send(pairs[next][0], pairs[next][1], 100)
		next++
	})
	if allocs != 0 {
		t.Fatalf("Send allocates %.1f times per call, want 0", allocs)
	}
	if got, want := n.SentBytes(), uint64(100*next); got != want {
		t.Fatalf("SentBytes = %d after %d sends, want %d", got, next, want)
	}
}

func TestAsymmetricDelays(t *testing.T) {
	n := New()
	t0 := n.AddAS(TransitISP, 0)
	l0 := n.AddAS(LocalISP, 0)
	n.ConnectTransitAsym(l0, t0, 10, 50)
	a := n.AddHost(l0, 0)
	b := n.AddHost(t0, 0)
	up := n.Latency(a, b)
	down := n.Latency(b, a)
	if up != 10 || down != 50 {
		t.Fatalf("up/down = %v/%v, want 10/50", up, down)
	}
	if n.RTT(a, b) != 60 || n.RTT(b, a) != 60 {
		t.Fatal("RTT must be direction-independent sum")
	}
}

func TestHostsInASAndAccessors(t *testing.T) {
	n, as := hierarchy()
	n.AddHost(as[2], 1)
	n.AddHost(as[3], 1)
	n.AddHost(as[2], 1)
	got := n.HostsInAS(as[2].ID)
	if len(got) != 2 || got[0].ID != 0 || got[1].ID != 2 {
		t.Fatalf("HostsInAS = %v", got)
	}
	if n.NumHosts() != 3 || n.NumASes() != 6 {
		t.Fatalf("counts = %d hosts, %d ases", n.NumHosts(), n.NumASes())
	}
	if n.Host(1).AS.ID != as[3].ID {
		t.Fatal("Host accessor wrong")
	}
	if n.AS(0).Kind != TransitISP {
		t.Fatal("AS accessor wrong")
	}
	if as[0].Kind.String() != "transit" || as[2].Kind.String() != "local" {
		t.Fatal("ASKind.String wrong")
	}
}

func TestTopologyChangeInvalidatesRoutes(t *testing.T) {
	n := New()
	a := n.AddAS(LocalISP, 0)
	b := n.AddAS(LocalISP, 0)
	if n.Reachable(a.ID, b.ID) {
		t.Fatal("disconnected ASes should be unreachable")
	}
	n.ConnectPeering(a, b, 1)
	if !n.Reachable(a.ID, b.ID) {
		t.Fatal("adding a link must invalidate cached routes")
	}
}

// buildRandomHierarchy constructs a random transit-stub network that is
// always connected under valley-free routing: one transit core clique,
// every stub gets a provider in the core.
func buildRandomHierarchy(seedTransit, seedStubs []uint8) *Network {
	n := New()
	nT := int(len(seedTransit)%3) + 1
	var transits []*AS
	for i := 0; i < nT; i++ {
		transits = append(transits, n.AddAS(TransitISP, 1))
	}
	for i := 0; i < nT; i++ {
		for j := i + 1; j < nT; j++ {
			n.ConnectPeering(transits[i], transits[j], sim.Duration(5+i+j))
		}
	}
	for i, s := range seedStubs {
		stub := n.AddAS(LocalISP, 1)
		prov := transits[int(s)%nT]
		n.ConnectTransit(stub, prov, sim.Duration(1+i%7))
	}
	return n
}

// Property: in a transit-stub hierarchy every AS pair is reachable, paths
// are valley-free by construction, and hop counts are symmetric when all
// links are symmetric.
func TestQuickHierarchyReachabilityAndSymmetry(t *testing.T) {
	f := func(seedTransit, seedStubs []uint8) bool {
		if len(seedStubs) > 40 {
			seedStubs = seedStubs[:40]
		}
		n := buildRandomHierarchy(seedTransit, seedStubs)
		for i := 0; i < n.NumASes(); i++ {
			for j := 0; j < n.NumASes(); j++ {
				if !n.Reachable(i, j) {
					return false
				}
				if n.ASHops(i, j) != n.ASHops(j, i) {
					return false
				}
				if n.ASDelay(i, j) != n.ASDelay(j, i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: a routed AS path never contains a repeated AS (loop-freedom).
func TestQuickLoopFreedom(t *testing.T) {
	f := func(seedTransit, seedStubs []uint8) bool {
		if len(seedStubs) > 30 {
			seedStubs = seedStubs[:30]
		}
		n := buildRandomHierarchy(seedTransit, seedStubs)
		for i := 0; i < n.NumASes(); i++ {
			for j := 0; j < n.NumASes(); j++ {
				p := n.ASPath(i, j)
				seen := map[int]bool{}
				for _, as := range p {
					if seen[as] {
						return false
					}
					seen[as] = true
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
