package gnutella

import (
	"math"
	"slices"
	"testing"

	"unap2p/internal/core"
	"unap2p/internal/metrics"
	"unap2p/internal/sim"
	"unap2p/internal/topology"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
	"unap2p/internal/workload"
)

// build creates a 10-AS transit-stub network with hostsPerAS hosts and a
// Gnutella overlay of all-ultrapeer nodes.
func build(t *testing.T, hostsPerAS int, cfg Config, seed int64) (*underlay.Network, *Overlay) {
	t.Helper()
	src := sim.NewSource(seed)
	tcfg := topology.TransitStubConfig{
		Config:   topology.Config{IntraDelay: 5, LinkDelay: 20, Rand: src.Stream("topo")},
		Transits: 2,
		Stubs:    10,
	}
	net := topology.TransitStub(tcfg)
	topology.PlaceHosts(net, hostsPerAS, false, 1, 5, src.Stream("place"))
	k := sim.NewKernel()
	o := New(transport.New(net, k), nil, cfg, src.Stream("overlay"))
	for _, h := range net.Hosts() {
		o.AddNode(h, true)
	}
	o.JoinAll()
	return net, o
}

func TestJoinProducesConnectedOverlay(t *testing.T) {
	net, o := build(t, 8, DefaultConfig(), 1)
	edges := o.Edges()
	if len(edges) == 0 {
		t.Fatal("no overlay edges")
	}
	comps := metrics.ComponentCount(net.NumHosts(), edges)
	if comps != 1 {
		t.Fatalf("overlay has %d components, want 1", comps)
	}
	for _, n := range o.Nodes() {
		if n.Degree() == 0 {
			t.Fatalf("node %d isolated", n.Host.ID)
		}
		if n.Degree() > o.Cfg.MaxUltraDegree+1 { // +1 for the fallback path
			t.Fatalf("node %d degree %d exceeds cap", n.Host.ID, n.Degree())
		}
	}
}

func TestBiasedJoinClustersOverlay(t *testing.T) {
	cfgU := DefaultConfig()
	netU, ovU := build(t, 8, cfgU, 2)

	cfgB := DefaultConfig()
	src := sim.NewSource(2)
	tcfg := topology.TransitStubConfig{
		Config:   topology.Config{IntraDelay: 5, LinkDelay: 20, Rand: src.Stream("topo")},
		Transits: 2, Stubs: 10,
	}
	netB := topology.TransitStub(tcfg)
	topology.PlaceHosts(netB, 8, false, 1, 5, src.Stream("place"))
	k := sim.NewKernel()
	ovB := New(transport.New(netB, k), core.NewOracleSelector(netB, true, false),
		cfgB, src.Stream("overlay"))
	for _, h := range netB.Hosts() {
		ovB.AddNode(h, true)
	}
	ovB.JoinAll()

	fu := metrics.IntraASEdgeFraction(ovU.Edges(), ovU.ASLabels())
	fb := metrics.IntraASEdgeFraction(ovB.Edges(), ovB.ASLabels())
	if fb <= fu {
		t.Fatalf("biased intra-AS edge fraction %.3f not above unbiased %.3f", fb, fu)
	}
	if fb < 0.5 {
		t.Fatalf("biased fraction %.3f unexpectedly low", fb)
	}
	// The caveat of §4: clustering must not disconnect the overlay.
	if c := metrics.ComponentCount(netB.NumHosts(), ovB.Edges()); c != 1 {
		t.Fatalf("biased overlay has %d components", c)
	}
	_ = netU
}

func TestPingPongCountsAndShape(t *testing.T) {
	_, o := build(t, 6, DefaultConfig(), 3)
	for _, n := range o.Nodes() {
		o.Ping(n.Host.ID)
	}
	o.K.Drain()
	ping := o.Msgs.Value("ping")
	pong := o.Msgs.Value("pong")
	if ping == 0 || pong == 0 {
		t.Fatalf("ping=%d pong=%d", ping, pong)
	}
	// Reverse-path pongs traverse ≥1 hop per reached node: pong ≥ reached
	// count and typically well above ping count at TTL 2.
	if pong <= ping {
		t.Fatalf("pong (%d) should exceed ping (%d) — reverse-path semantics", pong, ping)
	}
}

func TestSearchFindsPlacedContent(t *testing.T) {
	net, o := build(t, 6, DefaultConfig(), 4)
	// Place item 7 on three specific hosts.
	holders := []underlay.HostID{net.Hosts()[10].ID, net.Hosts()[20].ID, net.Hosts()[30].ID}
	for _, h := range holders {
		o.Catalog.Place(7, h)
	}
	res := o.RunSearch(net.Hosts()[0].ID, 7)
	if !res.Done {
		t.Fatal("search not done")
	}
	if len(res.Hits) == 0 {
		t.Fatal("no hits for flooded search")
	}
	want := map[underlay.HostID]bool{}
	for _, h := range holders {
		want[h] = true
	}
	for _, h := range res.Hits {
		if !want[h] {
			t.Fatalf("hit %d is not a holder", h)
		}
	}
	if o.Msgs.Value("query") == 0 || o.Msgs.Value("queryhit") == 0 {
		t.Fatal("no query/queryhit messages counted")
	}
}

func TestSearchSelfHolderNoMessages(t *testing.T) {
	net, o := build(t, 4, DefaultConfig(), 5)
	me := net.Hosts()[0].ID
	o.Catalog.Place(3, me)
	res := o.RunSearch(me, 3)
	found := false
	for _, h := range res.Hits {
		if h == me {
			found = true
		}
	}
	if !found {
		t.Fatal("own item not found")
	}
	// Downloading from own hit set must fail (no other source).
	if ok, _ := o.Download(res); ok {
		// Only fails if nobody else had item 3 — ensured by placement.
		t.Fatal("download from self should not happen")
	}
}

func TestDownloadBiasedPrefersSameAS(t *testing.T) {
	net, o := build(t, 6, DefaultConfig(), 6)
	o.Sel = core.NewOracleSelector(net, false, true)
	requester := net.Hosts()[0]
	sameAS := net.HostsInAS(requester.AS.ID)[1]
	other := net.Hosts()[len(net.Hosts())-1]
	res := &SearchResult{From: requester.ID, Hits: []underlay.HostID{other.ID, sameAS.ID}}
	ok, intra := o.Download(res)
	if !ok || !intra {
		t.Fatalf("biased download ok=%v intra=%v, want true,true", ok, intra)
	}
	if o.IntraASDownloadFraction() != 1 {
		t.Fatalf("intra fraction = %v", o.IntraASDownloadFraction())
	}
	if o.FileTraffic.Total() != fileSize {
		t.Fatal("file traffic not accounted")
	}
}

func TestDownloadUnbiasedUsesRandomSource(t *testing.T) {
	net, o := build(t, 6, DefaultConfig(), 7)
	requester := net.Hosts()[0]
	other1 := net.Hosts()[30]
	other2 := net.Hosts()[40]
	res := &SearchResult{From: requester.ID, Hits: []underlay.HostID{other1.ID, other2.ID}}
	for i := 0; i < 10; i++ {
		if ok, _ := o.Download(res); !ok {
			t.Fatal("download failed")
		}
	}
	if o.Downloads != 10 {
		t.Fatalf("downloads = %d", o.Downloads)
	}
}

func TestLeafRoles(t *testing.T) {
	src := sim.NewSource(8)
	net := topology.Star(4, topology.DefaultConfig())
	topology.PlaceHosts(net, 6, false, 1, 2, src.Stream("place"))
	k := sim.NewKernel()
	cfg := DefaultConfig()
	cfg.LeafParents = 1
	o := New(transport.New(net, k), nil, cfg, src.Stream("ov"))
	// First 6 hosts are ultrapeers, the rest leaves.
	for i, h := range net.Hosts() {
		o.AddNode(h, i < 6)
	}
	o.JoinAll()
	for i, n := range o.Nodes() {
		if i < 6 {
			continue
		}
		if len(n.parents) != 1 {
			t.Fatalf("leaf %d has %d parents", n.Host.ID, len(n.parents))
		}
	}
	// A leaf's content must be findable via its ultrapeer.
	leaf := o.Nodes()[10]
	o.Catalog.Place(1, leaf.Host.ID)
	searcher := o.Nodes()[11] // another leaf
	res := o.RunSearch(searcher.Host.ID, 1)
	found := false
	for _, h := range res.Hits {
		if h == leaf.Host.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("leaf content not found: hits=%v", res.Hits)
	}
}

func TestLeaveDisconnects(t *testing.T) {
	net, o := build(t, 4, DefaultConfig(), 9)
	n := o.Node(net.Hosts()[0].ID)
	nb := slices.Clone(n.neighbors)
	o.Leave(n)
	if n.Degree() != 0 {
		t.Fatal("left node keeps neighbors")
	}
	for _, id := range nb {
		if o.Node(id).neighbors.has(n.Host.ID) {
			t.Fatal("neighbor still points at left node")
		}
	}
}

func TestSearchFromOfflineHost(t *testing.T) {
	net, o := build(t, 4, DefaultConfig(), 10)
	h := net.Hosts()[0]
	h.Up = false
	res := o.RunSearch(h.ID, 1)
	if len(res.Hits) != 0 || !res.Done {
		t.Fatal("offline host should not search")
	}
}

func TestOfflineNodesDoNotRelay(t *testing.T) {
	net, o := build(t, 6, DefaultConfig(), 11)
	// Take half the hosts offline; searches must still terminate and only
	// report online holders.
	for i, h := range net.Hosts() {
		if i%2 == 1 {
			h.Up = false
		}
	}
	o.Catalog.Place(5, net.Hosts()[2].ID) // online holder
	o.Catalog.Place(5, net.Hosts()[3].ID) // offline holder
	res := o.RunSearch(net.Hosts()[0].ID, 5)
	for _, h := range res.Hits {
		if !net.Host(h).Up {
			t.Fatalf("offline holder %d reported", h)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, uint64, float64) {
		net, o := build(t, 6, DefaultConfig(), 42)
		gen := workload.NewCatalog(50)
		hosts := net.Hosts()
		r := sim.NewSource(43).Stream("content")
		workload.PopulateZipf(gen, hosts, 3, 1.0, r)
		o.Catalog = gen
		for i := 0; i < 30; i++ {
			res := o.RunSearch(hosts[i%len(hosts)].ID, workload.ItemID(i%50))
			o.Download(res)
		}
		return o.Msgs.Value("query"), o.Msgs.Value("queryhit"), o.IntraASDownloadFraction()
	}
	q1, h1, f1 := run()
	q2, h2, f2 := run()
	if q1 != q2 || h1 != h2 || f1 != f2 {
		t.Fatalf("runs diverged: (%d,%d,%v) vs (%d,%d,%v)", q1, h1, f1, q2, h2, f2)
	}
	if q1 == 0 {
		t.Fatal("no queries flowed")
	}
}

func TestAddNodePanicsOnDuplicate(t *testing.T) {
	net, o := build(t, 4, DefaultConfig(), 12)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	o.AddNode(net.Hosts()[0], true)
}

func TestPongCachingReducesTraffic(t *testing.T) {
	flood := func(cache bool) (ping, pong uint64, learned int) {
		cfg := DefaultConfig()
		cfg.PingTTL = 3 // deployed 0.4-era TTL; caching ignores TTL by design
		cfg.PongCache = cache
		net, o := build(t, 6, cfg, 20)
		for _, n := range o.Nodes() {
			o.Ping(n.Host.ID)
		}
		o.K.Drain()
		_ = net
		learned = len(o.Nodes()[0].hostcache)
		return o.Msgs.Value("ping"), o.Msgs.Value("pong"), learned
	}
	fPing, fPong, _ := flood(false)
	cPing, cPong, cLearned := flood(true)
	if cPing >= fPing {
		t.Fatalf("cached ping count %d not below flooded %d", cPing, fPing)
	}
	if cPong >= fPong {
		t.Fatalf("cached pong count %d not below flooded %d", cPong, fPong)
	}
	if cLearned == 0 {
		t.Fatal("pong caching taught no addresses")
	}
}

func TestPongCacheRespectsLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PongCache = true
	_, o := build(t, 6, cfg, 21)
	n := o.Nodes()[0]
	o.Ping(n.Host.ID)
	o.K.Drain()
	// Every neighbor knows more hosts than the cap, so each answers with
	// exactly pongCacheSize pongs.
	if got, want := o.Msgs.Value("pong"), uint64(pongCacheSize*n.Degree()); got != want {
		t.Fatalf("pongs %d, want %d (%d per neighbor)", got, want, pongCacheSize)
	}
}

func TestLearnDeduplicatesAndCaps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HostcacheSize = 3
	net, o := build(t, 4, cfg, 22)
	n := o.Nodes()[0]
	n.hostcache = nil
	o.learn(n, net.Hosts()[1].ID)
	o.learn(n, net.Hosts()[1].ID) // duplicate
	o.learn(n, n.Host.ID)         // self
	if len(n.hostcache) != 1 {
		t.Fatalf("hostcache = %v", n.hostcache)
	}
	o.learn(n, net.Hosts()[2].ID)
	o.learn(n, net.Hosts()[3].ID)
	o.learn(n, net.Hosts()[4].ID) // over cap
	if len(n.hostcache) != 3 {
		t.Fatalf("hostcache size = %d, want cap 3", len(n.hostcache))
	}
}

func TestAdaptRoundImprovesMatching(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HostcacheSize = 200
	net, o := build(t, 8, cfg, 30)
	before := o.MeanNeighborRTT()
	totalRewires := 0
	for i := 0; i < 8; i++ {
		totalRewires += o.AdaptRound()
	}
	after := o.MeanNeighborRTT()
	if totalRewires == 0 {
		t.Fatal("no rewires happened")
	}
	if after >= before {
		t.Fatalf("mean neighbor RTT did not improve: %.1f → %.1f", before, after)
	}
	// Connectivity preserved and degrees respected.
	if c := metrics.ComponentCount(net.NumHosts(), o.Edges()); c != 1 {
		t.Fatalf("adaptation fragmented the overlay into %d components", c)
	}
	for _, n := range o.Nodes() {
		if n.Degree() < 1 {
			t.Fatalf("node %d isolated after adaptation", n.Host.ID)
		}
	}
	if o.Msgs.Value("probe") == 0 {
		t.Fatal("no probe overhead recorded")
	}
}

func TestAdaptRoundConverges(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HostcacheSize = 200
	_, o := build(t, 6, cfg, 31)
	// Run until quiescent; rewires must reach zero (hysteresis works).
	for i := 0; i < 40; i++ {
		if o.AdaptRound() == 0 {
			return
		}
	}
	t.Fatal("adaptation never converged")
}

func TestAdaptRespectsMinDegree(t *testing.T) {
	cfg := DefaultConfig()
	_, o := build(t, 4, cfg, 32)
	for i := 0; i < 10; i++ {
		o.AdaptRound()
	}
	for _, n := range o.Nodes() {
		if n.Host.Up && n.Degree() < adaptMinDegree {
			t.Fatalf("node %d degree %d below protection", n.Host.ID, n.Degree())
		}
	}
}

// TestMeanNeighborRTTDeterministic: the float sum runs in ascending
// neighbour order, so repeated calls agree to the bit.
func TestMeanNeighborRTTDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HostcacheSize = 200
	_, o := build(t, 8, cfg, 30)
	o.AdaptRound()
	want := math.Float64bits(o.MeanNeighborRTT())
	for i := 0; i < 200; i++ {
		if got := math.Float64bits(o.MeanNeighborRTT()); got != want {
			t.Fatalf("call %d: MeanNeighborRTT bits %#x, first call %#x", i, got, want)
		}
	}
}

// TestConnectionSetInvariants checks every node's neighbour, leaf and
// parent set after joins, topology matching and an eviction wave: each is
// strictly ascending, free of the node itself, and symmetric.
func TestConnectionSetInvariants(t *testing.T) {
	for _, biased := range []bool{false, true} {
		src := sim.NewSource(33)
		net := topology.TransitStub(topology.TransitStubConfig{
			Config:   topology.Config{IntraDelay: 5, LinkDelay: 20, Rand: src.Stream("topo")},
			Transits: 2, Stubs: 10,
		})
		hosts := topology.PlaceHosts(net, 3, false, 1, 5, src.Stream("place"))
		var sel core.Selector
		if biased {
			sel = core.NewOracleSelector(net, true, false)
		}
		o := New(transport.New(net, sim.NewKernel()), sel, DefaultConfig(), src.Stream("overlay"))
		for i, h := range hosts {
			o.AddNode(h, i%2 == 0)
		}
		o.JoinAll()
		for i := 0; i < 3; i++ {
			o.AdaptRound()
		}
		var ultras []*Node
		for _, n := range o.Nodes() {
			if n.Ultra {
				ultras = append(ultras, n)
			}
		}
		for _, n := range ultras[:len(ultras)/3] {
			n.Host.Up = false
			o.Evict(n.Host.ID)
		}

		nodes := o.Nodes()
		if len(nodes) != 30 || len(o.Evicted()) != 5 {
			t.Fatalf("biased=%v: %d nodes, %d evicted; want 30 and 5", biased, len(nodes), len(o.Evicted()))
		}
		for _, n := range nodes {
			me := n.Host.ID
			for name, set := range map[string]idSet{"neighbors": n.neighbors, "leaves": n.leaves, "parents": n.parents} {
				for i, id := range set {
					if id == me {
						t.Fatalf("biased=%v: node %d lists itself in %s %v", biased, me, name, set)
					}
					if i > 0 && set[i-1] >= id {
						t.Fatalf("biased=%v: node %d %s %v not strictly ascending", biased, me, name, set)
					}
				}
			}
			for _, m := range nodes {
				if n.neighbors.has(m.Host.ID) != m.neighbors.has(me) {
					t.Fatalf("biased=%v: neighbour link %d–%d is one-sided", biased, me, m.Host.ID)
				}
				if n.leaves.has(m.Host.ID) != m.parents.has(me) {
					t.Fatalf("biased=%v: ultrapeer %d / leaf %d attachment is one-sided", biased, me, m.Host.ID)
				}
			}
		}
	}
}
