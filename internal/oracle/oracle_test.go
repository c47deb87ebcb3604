package oracle

import (
	"testing"
	"testing/quick"

	"unap2p/internal/sim"
	"unap2p/internal/topology"
	"unap2p/internal/underlay"
)

// buildNet: star of 1 hub + 4 leaves, 3 hosts per leaf AS.
func buildNet() *underlay.Network {
	net := topology.Star(5, topology.DefaultConfig())
	r := sim.NewSource(1).Stream("oracle-place")
	topology.PlaceHosts(net, 3, false, 1, 2, r)
	return net
}

func ids(hosts []*underlay.Host) []underlay.HostID {
	out := make([]underlay.HostID, len(hosts))
	for i, h := range hosts {
		out[i] = h.ID
	}
	return out
}

func TestRankSameASFirst(t *testing.T) {
	net := buildNet()
	o := New(net)
	client := net.Hosts()[0]
	ranked := o.Rank(client, ids(net.Hosts()))
	if len(ranked) != net.NumHosts() {
		t.Fatalf("ranked %d of %d", len(ranked), net.NumHosts())
	}
	// The first len(sameAS) entries must all share the client's AS.
	sameAS := len(net.HostsInAS(client.AS.ID))
	for i := 0; i < sameAS; i++ {
		if net.Host(ranked[i]).AS.ID != client.AS.ID {
			t.Fatalf("rank %d host is from AS%d, want client AS%d",
				i, net.Host(ranked[i]).AS.ID, client.AS.ID)
		}
	}
	// And distances must be nondecreasing.
	prev := -1
	for _, id := range ranked {
		d := net.ASHops(client.AS.ID, net.Host(id).AS.ID)
		if d < prev {
			t.Fatalf("ranking not monotone: %d after %d", d, prev)
		}
		prev = d
	}
	if o.Queries != 1 {
		t.Fatalf("queries = %d", o.Queries)
	}
}

func TestRankStableAmongEquals(t *testing.T) {
	net := buildNet()
	o := New(net)
	client := net.Hosts()[0]
	// All hosts of another AS are equidistant; their relative input order
	// must be preserved.
	other := net.HostsInAS(net.Hosts()[5].AS.ID)
	in := []underlay.HostID{other[2].ID, other[0].ID, other[1].ID}
	out := o.Rank(client, in)
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("order changed among equals: %v → %v", in, out)
		}
	}
}

func TestRankDoesNotMutateInput(t *testing.T) {
	net := buildNet()
	o := New(net)
	client := net.Hosts()[0]
	in := ids(net.Hosts())
	orig := append([]underlay.HostID(nil), in...)
	o.Rank(client, in)
	for i := range in {
		if in[i] != orig[i] {
			t.Fatal("Rank mutated its input")
		}
	}
}

func TestOracleDownFallsBackToInputOrder(t *testing.T) {
	net := buildNet()
	o := New(net)
	o.Down = true
	client := net.Hosts()[0]
	in := ids(net.Hosts())
	// Put a far host first; a live oracle would move it back.
	in[0], in[len(in)-1] = in[len(in)-1], in[0]
	out := o.Rank(client, in)
	for i := range in {
		if out[i] != in[i] {
			t.Fatal("down oracle must preserve input order")
		}
	}
}

func TestBest(t *testing.T) {
	net := buildNet()
	o := New(net)
	client := net.Hosts()[0]
	best, ok := o.Best(client, ids(net.Hosts()[1:]))
	if !ok {
		t.Fatal("Best found nothing")
	}
	if net.Host(best).AS.ID != client.AS.ID {
		t.Fatalf("best is AS%d, want client's AS%d", net.Host(best).AS.ID, client.AS.ID)
	}
	if _, ok := o.Best(client, nil); ok {
		t.Fatal("Best of empty should be false")
	}
}

// Property: the oracle's ranking is a permutation of its input.
func TestQuickRankIsPermutation(t *testing.T) {
	net := buildNet()
	o := New(net)
	all := ids(net.Hosts())
	f := func(pick []uint8, clientRaw uint8) bool {
		client := net.Hosts()[int(clientRaw)%net.NumHosts()]
		var in []underlay.HostID
		for _, p := range pick {
			in = append(in, all[int(p)%len(all)])
		}
		out := o.Rank(client, in)
		if len(out) != len(in) {
			return false
		}
		counts := map[underlay.HostID]int{}
		for _, id := range in {
			counts[id]++
		}
		for _, id := range out {
			counts[id]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
