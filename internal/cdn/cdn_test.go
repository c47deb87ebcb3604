package cdn

import (
	"math"
	"testing"

	"unap2p/internal/sim"
	"unap2p/internal/topology"
	"unap2p/internal/underlay"
)

// buildNet: 4-leaf star with hosts, CDN clusters in leaf ASes 1 and 3.
func buildNet(t *testing.T) (*underlay.Network, *CDN) {
	t.Helper()
	net := topology.Star(5, topology.DefaultConfig())
	r := sim.NewSource(1).Stream("cdn-place")
	topology.PlaceHosts(net, 4, false, 1, 2, r)
	c := Deploy(net, []int{1, 3}, sim.NewSource(2).Stream("cdn-load"))
	return net, c
}

func TestDeploy(t *testing.T) {
	net, c := buildNet(t)
	if len(c.Clusters) != 2 {
		t.Fatalf("clusters = %d", len(c.Clusters))
	}
	if c.Clusters[0].Host.AS.ID != 1 || c.Clusters[1].Host.AS.ID != 3 {
		t.Fatal("clusters in wrong ASes")
	}
	// Deploy into a host-less AS creates a server host there.
	c2 := Deploy(net, []int{0}, nil)
	if c2.Clusters[0].Host.AS.ID != 0 {
		t.Fatal("no server created in empty AS")
	}
}

func TestRedirectPrefersNearCluster(t *testing.T) {
	net, c := buildNet(t)
	c.LoadJitter = 0 // deterministic
	// A client in AS1 must be redirected to the AS1 cluster.
	client := net.HostsInAS(1)[1]
	cl := c.Redirect(client)
	if cl.Host.AS.ID != 1 {
		t.Fatalf("redirected to AS%d, want 1", cl.Host.AS.ID)
	}
	if c.Redirections != 1 {
		t.Fatalf("redirections = %d", c.Redirections)
	}
	// Load can push clients away.
	cl.Load = 1e9
	if c.Redirect(client).Host.AS.ID == 1 {
		t.Fatal("overloaded cluster still chosen")
	}
}

func TestObserveRatioMapNormalized(t *testing.T) {
	net, c := buildNet(t)
	rm := c.ObserveRatioMap(net.HostsInAS(1)[0], 50)
	var sum float64
	for _, v := range rm {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("ratio map sums to %v", sum)
	}
}

func TestOnoSameASPeersLookAlike(t *testing.T) {
	net, c := buildNet(t)
	a1 := c.ObserveRatioMap(net.HostsInAS(1)[0], 200)
	a2 := c.ObserveRatioMap(net.HostsInAS(1)[1], 200)
	b := c.ObserveRatioMap(net.HostsInAS(3)[0], 200)
	same := Cosine(a1, a2)
	diff := Cosine(a1, b)
	if same <= diff {
		t.Fatalf("same-AS similarity %v not above cross-AS %v", same, diff)
	}
	if same < 0.9 {
		t.Fatalf("same-AS similarity %v unexpectedly low", same)
	}
}

func TestCosineEdgeCases(t *testing.T) {
	a := RatioMap{0: 1}
	if Cosine(a, RatioMap{}) != 0 {
		t.Fatal("cosine with empty map should be 0")
	}
	if Cosine(RatioMap{}, RatioMap{}) != 0 {
		t.Fatal("cosine of empties should be 0")
	}
	if c := Cosine(a, a); math.Abs(c-1) > 1e-12 {
		t.Fatalf("self cosine = %v", c)
	}
	orth := Cosine(RatioMap{0: 1}, RatioMap{1: 1})
	if orth != 0 {
		t.Fatalf("orthogonal cosine = %v", orth)
	}
}
