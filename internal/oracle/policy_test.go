package oracle

import (
	"testing"

	"unap2p/internal/sim"
	"unap2p/internal/underlay"
)

// figure2Policy charges transit hops 10× a peering hop: the Figure 2
// economics as ranking weights.
var figure2Policy = Policy{PeeringHopCost: 1, TransitHopCost: 10, UnreachableCost: 1e9}

// policyNet: client stub C with a peering link to P and a transit path to
// T's other customer X (both 1 AS hop under plain ranking... P is 1 hop
// via peering; X is 2 hops via transit core).
func policyNet() (*underlay.Network, *underlay.Host, *underlay.Host, *underlay.Host) {
	net := underlay.New()
	t0 := net.AddAS(underlay.TransitISP, 2)
	c := net.AddAS(underlay.LocalISP, 2)
	p := net.AddAS(underlay.LocalISP, 2)
	x := net.AddAS(underlay.LocalISP, 2)
	net.ConnectTransit(c, t0, 10)
	net.ConnectTransit(p, t0, 10)
	net.ConnectTransit(x, t0, 10)
	net.ConnectPeering(c, p, 3)
	hc := net.AddHost(c, 1)
	hp := net.AddHost(p, 1)
	hx := net.AddHost(x, 1)
	return net, hc, hp, hx
}

func TestPDistance(t *testing.T) {
	net, hc, hp, hx := policyNet()
	o := New(net)
	pol := figure2Policy
	if d := o.PDistance(pol, hc.AS.ID, hc.AS.ID); d != 0 {
		t.Fatalf("same-AS pDistance = %v", d)
	}
	// C→P: one peering hop = 1.
	if d := o.PDistance(pol, hc.AS.ID, hp.AS.ID); d != 1 {
		t.Fatalf("peered pDistance = %v, want 1", d)
	}
	// C→X: two transit hops = 20.
	if d := o.PDistance(pol, hc.AS.ID, hx.AS.ID); d != 20 {
		t.Fatalf("transit pDistance = %v, want 20", d)
	}
	// Unreachable.
	iso := net.AddAS(underlay.LocalISP, 2)
	if d := o.PDistance(pol, hc.AS.ID, iso.ID); d != pol.UnreachableCost {
		t.Fatalf("unreachable pDistance = %v", d)
	}
}

func TestRankPolicyPrefersPeering(t *testing.T) {
	net, hc, hp, hx := policyNet()
	o := New(net)
	// Plain AS-hop ranking: P (1 hop) before X (2 hops) — same order
	// here, so craft the interesting case: make X reachable in 1 hop via
	// a *transit* link directly from C's AS.
	net.ConnectTransit(hc.AS, hx.AS, 5) // C buys transit from X's AS
	ranked := o.Rank(hc, []underlay.HostID{hx.ID, hp.ID})
	// Both are now 1 AS hop; plain ranking keeps input order (X first).
	if ranked[0] != hx.ID {
		t.Fatalf("plain rank = %v, want X first (stable ties)", ranked)
	}
	// Policy ranking puts the peered P first: peering(1) < transit(10).
	polRanked := o.RankPolicy(figure2Policy, hc, []underlay.HostID{hx.ID, hp.ID})
	if polRanked[0] != hp.ID {
		t.Fatalf("policy rank = %v, want peered P first", polRanked)
	}
}

func TestRankPolicyDown(t *testing.T) {
	net, hc, hp, hx := policyNet()
	o := New(net)
	o.Down = true
	in := []underlay.HostID{hx.ID, hp.ID}
	out := o.RankPolicy(figure2Policy, hc, in)
	if out[0] != hx.ID || out[1] != hp.ID {
		t.Fatal("down oracle must preserve input order")
	}
}

func TestRankWithBehaviours(t *testing.T) {
	net, hc, _, _ := policyNet()
	// Add same-AS peers so proximity ordering is meaningful.
	local := net.AddHost(hc.AS, 1)
	far := net.Hosts()[2] // hx
	o := New(net)
	cands := []underlay.HostID{far.ID, local.ID}

	honest := o.RankWith(Honest, hc, cands)
	if honest[0] != local.ID {
		t.Fatalf("honest rank = %v, want local first", honest)
	}
	malicious := o.RankWith(Malicious, hc, cands)
	if malicious[0] != far.ID {
		t.Fatalf("malicious rank = %v, want far first", malicious)
	}
	selfServing := o.RankWith(SelfServing, hc, cands)
	if selfServing[0] != local.ID {
		t.Fatalf("self-serving rank = %v, want local (cheapest) first", selfServing)
	}
}

func TestBehavioursCountQueries(t *testing.T) {
	net, hc, hp, _ := policyNet()
	o := New(net)
	o.RankWith(Honest, hc, []underlay.HostID{hp.ID})
	o.RankWith(SelfServing, hc, []underlay.HostID{hp.ID})
	o.RankWith(Malicious, hc, []underlay.HostID{hp.ID})
	if o.Queries != 3 {
		t.Fatalf("queries = %d, want 3", o.Queries)
	}
}

func TestPolicyDeterminism(t *testing.T) {
	net, hc, hp, hx := policyNet()
	o := New(net)
	_ = sim.NewSource(1) // parity with other tests; ranking needs no RNG
	a := o.RankPolicy(figure2Policy, hc, []underlay.HostID{hx.ID, hp.ID, hc.ID})
	b := o.RankPolicy(figure2Policy, hc, []underlay.HostID{hx.ID, hp.ID, hc.ID})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("policy ranking not deterministic")
		}
	}
}
