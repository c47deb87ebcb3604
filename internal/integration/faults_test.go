package integration

import (
	"testing"

	"unap2p/internal/overlay/bittorrent"
	"unap2p/internal/overlay/gnutella"
	"unap2p/internal/overlay/kademlia"
	"unap2p/internal/sim"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
	"unap2p/internal/workload"
)

// lossy returns a transport dropping 10% of messages, deterministically
// per seed.
func lossy(net *underlay.Network, k *sim.Kernel, src *sim.Source) *transport.Transport {
	tr := transport.New(net, k)
	r := src.Stream("faults")
	tr.Drop = func(_, _ *underlay.Host) bool { return r.Float64() < 0.1 }
	return tr
}

// TestGnutellaUnderLoss floods searches through a 10%-lossy transport:
// the overlay must not panic, floods must still terminate, and most
// searches must still find well-replicated content (lost branches shrink
// result sets; they must not wedge the protocol).
func TestGnutellaUnderLoss(t *testing.T) {
	net, hosts, src := buildWorld(3, 10)
	k := sim.NewKernel()
	tr := lossy(net, k, src)
	ov := gnutella.New(tr, nil, gnutella.DefaultConfig(), src.Stream("overlay"))
	for _, h := range hosts {
		ov.AddNode(h, true)
	}
	ov.JoinAll()
	catalog := workload.NewCatalog(20)
	workload.PopulateZipf(catalog, hosts, 8, 1.0, src.Stream("content"))
	ov.Catalog = catalog

	found := 0
	for i := 0; i < 40; i++ {
		res := ov.RunSearch(hosts[i%len(hosts)].ID, workload.ItemID(i%20))
		if !res.Done {
			t.Fatal("search did not terminate under loss")
		}
		if len(res.Hits) > 0 {
			found++
			ov.Download(res)
		}
	}
	if found < 20 {
		t.Fatalf("only %d/40 searches succeeded under 10%% loss", found)
	}
	if tr.StatsFor("query").Dropped == 0 && tr.StatsFor("ping").Dropped == 0 {
		t.Fatal("fault injection never dropped anything")
	}
}

// TestKademliaUnderLoss runs iterative lookups over a lossy transport
// with RoundTrip retries enabled: lookups must complete with bounded
// message counts (retries are capped) and mostly still converge.
func TestKademliaUnderLoss(t *testing.T) {
	net, hosts, src := buildWorld(4, 8)
	tr := lossy(net, nil, src)
	tr.Retry = transport.RetryPolicy{Budget: 2}
	d := kademlia.New(tr, nil, kademlia.DefaultConfig(), src.Stream("dht"))
	for _, h := range hosts {
		d.AddNode(h)
	}
	d.Bootstrap(4)

	nodes := d.Nodes()
	for i := 0; i < 30; i++ {
		target := nodes[(i*13+5)%len(nodes)].ID
		res := d.Lookup(nodes[i%len(nodes)].Host, target)
		if res.Hops == 0 {
			t.Fatal("lookup made no progress")
		}
		// Bounded recovery: with α=3, K=8 and ≤2 retries per RPC the
		// message count cannot explode past a small multiple of the
		// loss-free worst case.
		if res.Msgs > 6*(res.Hops+1)*3*(tr.Retry.Budget+1) {
			t.Fatalf("unbounded retry traffic: %d msgs in %d hops", res.Msgs, res.Hops)
		}
	}
	if tr.StatsFor("find_node").Dropped == 0 {
		t.Fatal("fault injection never dropped an RPC")
	}
}

// TestBitTorrentUnderLoss completes a swarm over a lossy transport: lost
// pieces are re-requested in later rounds, so every peer still finishes —
// just in more rounds than the loss-free run.
func TestBitTorrentUnderLoss(t *testing.T) {
	net, hosts, src := buildWorld(5, 6)
	tr := lossy(net, nil, src)
	cfg := bittorrent.DefaultConfig()
	cfg.Pieces = 32
	s := bittorrent.NewSwarm(tr, nil, cfg, src.Stream("swarm"))
	s.AddSeed(hosts[0])
	for _, h := range hosts[1:] {
		s.AddLeecher(h)
	}
	s.AssignNeighbors()
	s.Run(600)
	st := s.Stats()
	if st.Unfinished != 0 {
		t.Fatalf("%d peers never completed under 10%% loss", st.Unfinished)
	}
	if tr.StatsFor("piece").Dropped == 0 {
		t.Fatal("fault injection never dropped a piece")
	}
}

// TestFakeTransportInjection observes a protocol's traffic message by
// message without a test double: the overlay holds the concrete
// transport, and the test watches through its Trace hook.
func TestFakeTransportInjection(t *testing.T) {
	net, hosts, src := buildWorld(6, 6)
	tr := transport.Over(net)
	var sends []string
	tr.Trace = func(e transport.Event) { sends = append(sends, e.Type) }
	d := kademlia.New(tr, nil, kademlia.DefaultConfig(), src.Stream("dht"))
	for _, h := range hosts[:20] {
		d.AddNode(h)
	}
	d.Bootstrap(3)
	before := len(sends)
	if before == 0 {
		t.Fatal("trace saw no bootstrap traffic")
	}
	d.Lookup(d.Nodes()[0].Host, d.Nodes()[5].ID)
	if len(sends) == before {
		t.Fatal("trace saw no lookup traffic")
	}
	for _, kind := range sends {
		switch kind {
		case "find_node", "find_value", "response", "store":
		default:
			t.Fatalf("unexpected message type %q", kind)
		}
	}
}
