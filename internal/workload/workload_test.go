package workload

import (
	"testing"

	"unap2p/internal/sim"
	"unap2p/internal/topology"
	"unap2p/internal/underlay"
)

func buildNet() (*underlay.Network, []*underlay.Host) {
	net := topology.Star(5, topology.DefaultConfig())
	hosts := topology.PlaceHosts(net, 10, false, 1, 2, sim.NewSource(1).Stream("wl-place"))
	return net, hosts
}

func TestCatalogBasics(t *testing.T) {
	c := NewCatalog(10)
	c.Place(3, 7)
	c.Place(3, 9)
	c.Place(5, 7)
	if len(c.Replicas(3)) != 2 || len(c.Replicas(4)) != 0 {
		t.Fatalf("replicas = %v", c.Replicas(3))
	}
	if !c.Has(7, 5) || c.Has(9, 5) {
		t.Fatal("Has wrong")
	}
}

func TestPopulateZipf(t *testing.T) {
	_, hosts := buildNet()
	c := NewCatalog(100)
	PopulateZipf(c, hosts, 3, 1.0, sim.NewSource(2).Stream("zipf"))
	// Every item has at least one replica; popular items have more.
	for k := 0; k < 100; k++ {
		if len(c.Replicas(ItemID(k))) == 0 {
			t.Fatalf("item %d has no replica", k)
		}
	}
	if len(c.Replicas(0)) <= len(c.Replicas(99)) {
		t.Fatalf("rank 0 (%d) not more replicated than rank 99 (%d)",
			len(c.Replicas(0)), len(c.Replicas(99)))
	}
	// No duplicate replicas of an item on one host.
	for k := 0; k < 100; k++ {
		seen := map[underlay.HostID]bool{}
		for _, h := range c.Replicas(ItemID(k)) {
			if seen[h] {
				t.Fatalf("item %d duplicated on host %d", k, h)
			}
			seen[h] = true
		}
	}
}

func TestPopulateZipfEmptyInputs(t *testing.T) {
	c := NewCatalog(0)
	PopulateZipf(c, nil, 3, 1.0, sim.NewSource(1).Stream("z"))
	// Nothing placed, nothing panics.
	if len(c.Replicas(0)) != 0 {
		t.Fatal("phantom replicas")
	}
}

func TestPopulateLocalBias(t *testing.T) {
	net, hosts := buildNet()
	c := NewCatalog(200)
	PopulateLocal(c, net, hosts, 4, 0.8, sim.NewSource(3).Stream("local"))
	// With bias 0.8, most items should have ≥2 replicas inside one AS.
	concentrated := 0
	for k := 0; k < 200; k++ {
		perAS := map[int]int{}
		for _, h := range c.Replicas(ItemID(k)) {
			perAS[net.Host(h).AS.ID]++
		}
		for _, n := range perAS {
			if n >= 2 {
				concentrated++
				break
			}
		}
	}
	if concentrated < 100 {
		t.Fatalf("only %d/200 items AS-concentrated under bias 0.8", concentrated)
	}
}

func TestQueryGenLocalInterest(t *testing.T) {
	net, hosts := buildNet()
	c := NewCatalog(50)
	PopulateLocal(c, net, hosts, 3, 0.9, sim.NewSource(4).Stream("local2"))
	g := NewQueryGen(net, c, hosts, 1.0, 1.0, sim.NewSource(5).Stream("qg"))
	// With LocalInterestBias=1, every query's item must have a replica in
	// the querying host's AS.
	for i := 0; i < 500; i++ {
		q, ok := g.Next(0)
		if !ok {
			t.Fatal("no online host found")
		}
		from := net.Host(q.From)
		found := false
		for _, h := range c.Replicas(q.Item) {
			if net.Host(h).AS.ID == from.AS.ID {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("query %d: item %d has no replica in AS%d", i, q.Item, from.AS.ID)
		}
	}
}

func TestQueryGenZipfFallback(t *testing.T) {
	net, hosts := buildNet()
	c := NewCatalog(50)
	PopulateZipf(c, hosts, 2, 1.0, sim.NewSource(6).Stream("zipf2"))
	g := NewQueryGen(net, c, hosts, 0, 1.2, sim.NewSource(7).Stream("qg2"))
	counts := make([]int, 50)
	for i := 0; i < 5000; i++ {
		q, ok := g.Next(sim.Time(i))
		if !ok {
			t.Fatal("no host")
		}
		counts[q.Item]++
		if q.At != sim.Time(i) {
			t.Fatal("timestamp not propagated")
		}
	}
	if counts[0] <= counts[49] {
		t.Fatalf("zipf interest not skewed: %d vs %d", counts[0], counts[49])
	}
}

func TestQueryGenAllOffline(t *testing.T) {
	net, hosts := buildNet()
	for _, h := range hosts {
		h.Up = false
	}
	c := NewCatalog(10)
	PopulateZipf(c, hosts, 1, 1.0, sim.NewSource(8).Stream("z3"))
	g := NewQueryGen(net, c, hosts, 0, 1.0, sim.NewSource(9).Stream("qg3"))
	if _, ok := g.Next(0); ok {
		t.Fatal("query generated with all hosts offline")
	}
}
