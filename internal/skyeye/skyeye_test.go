package skyeye

import (
	"math"
	"testing"

	"unap2p/internal/resources"
	"unap2p/internal/sim"
	"unap2p/internal/topology"
	"unap2p/internal/underlay"
)

func buildSkyEye(t *testing.T, hostsPerAS int) (*underlay.Network, *resources.Table, *SkyEye) {
	t.Helper()
	src := sim.NewSource(1)
	net := topology.Star(5, topology.DefaultConfig())
	topology.PlaceHosts(net, hostsPerAS, false, 1, 3, src.Stream("place"))
	tab := resources.GenerateAll(net, src.Stream("res"))
	s := Build(net, tab, net.Hosts())
	return net, tab, s
}

func TestUpdateRoundAggregates(t *testing.T) {
	net, tab, s := buildSkyEye(t, 10)
	agg := s.UpdateRound()
	if agg.Peers != net.NumHosts() {
		t.Fatalf("peers = %d, want %d", agg.Peers, net.NumHosts())
	}
	if agg.OnlinePeers != net.NumHosts() {
		t.Fatalf("online = %d", agg.OnlinePeers)
	}
	// Cross-check against direct computation.
	var sum, max, up float64
	for _, h := range net.Hosts() {
		sc := tab.Get(h.ID).Score()
		sum += sc
		if sc > max {
			max = sc
		}
		up += tab.Get(h.ID).UpKbps
	}
	if math.Abs(agg.MeanScore-sum/float64(net.NumHosts())) > 1e-9 {
		t.Fatalf("mean = %v, want %v", agg.MeanScore, sum/float64(net.NumHosts()))
	}
	if math.Abs(agg.MaxScore-max) > 1e-12 || math.Abs(agg.TotalUpKbps-up) > 1e-6 {
		t.Fatal("max/up aggregate wrong")
	}
	if s.Msgs.Value("update") == 0 {
		t.Fatal("no update messages")
	}
}

func TestUpdateMessageCountLinear(t *testing.T) {
	net, _, s := buildSkyEye(t, 10)
	s.UpdateRound()
	msgs := s.Msgs.Value("update")
	// One message per non-coordinator peer per level edge: bounded by
	// ~N + N/β + ... < N·β/(β−1) ≈ 1.34N.
	n := uint64(net.NumHosts())
	if msgs >= 2*n {
		t.Fatalf("update messages %d not O(N) for N=%d", msgs, n)
	}
	if msgs < n/2 {
		t.Fatalf("update messages %d suspiciously few for N=%d", msgs, n)
	}
}

func TestFindCapable(t *testing.T) {
	net, tab, s := buildSkyEye(t, 10)
	s.UpdateRound()
	// Pick a threshold that ~25% of peers meet.
	var scores []float64
	for _, h := range net.Hosts() {
		scores = append(scores, tab.Get(h.ID).Score())
	}
	// quartile by simple selection
	th := quantile(scores, 0.75)
	found := s.FindCapable(net.Hosts()[0], th, 5)
	if len(found) == 0 {
		t.Fatal("found nobody above 75th percentile")
	}
	if len(found) > 5 {
		t.Fatalf("found %d > k", len(found))
	}
	for _, id := range found {
		if tab.Get(id).Score() < th {
			t.Fatalf("peer %d below threshold", id)
		}
	}
	if s.Msgs.Value("query") == 0 {
		t.Fatal("no query messages")
	}
}

func TestFindCapablePrunes(t *testing.T) {
	net, tab, s := buildSkyEye(t, 10)
	s.UpdateRound()
	// Impossible threshold: only the root is queried before pruning.
	var max float64
	for _, h := range net.Hosts() {
		if sc := tab.Get(h.ID).Score(); sc > max {
			max = sc
		}
	}
	before := s.Msgs.Value("query")
	got := s.FindCapable(net.Hosts()[0], max*10, 3)
	if len(got) != 0 {
		t.Fatal("impossible threshold matched peers")
	}
	if s.Msgs.Value("query") != before {
		t.Fatalf("pruning failed: %d query messages for impossible threshold",
			s.Msgs.Value("query")-before)
	}
}

func TestFindCapableSkipsOffline(t *testing.T) {
	net, _, s := buildSkyEye(t, 6)
	s.UpdateRound()
	for _, h := range net.Hosts() {
		h.Up = false
	}
	if got := s.FindCapable(net.Hosts()[0], 0, 10); len(got) != 0 {
		t.Fatalf("found %d offline peers", len(got))
	}
}

func TestPathLengthLogarithmic(t *testing.T) {
	net, _, s := buildSkyEye(t, 20) // 100 peers, arity 4
	pl := s.PathLength()
	// ceil(log4(25 leaves)) + 1 ≈ 4.
	if pl < 2 || pl > 6 {
		t.Fatalf("path length %d implausible for %d peers", pl, net.NumHosts())
	}
}

func TestBuildPanics(t *testing.T) {
	cases := []func(){
		func() { Build(underlay.New(), resources.NewTable(), nil) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	idx := int(q * float64(len(s)-1))
	return s[idx]
}

func TestUpdateRoundTracksChurn(t *testing.T) {
	net, _, s := buildSkyEye(t, 6)
	first := s.UpdateRound()
	if first.OnlinePeers != net.NumHosts() {
		t.Fatalf("initial online = %d", first.OnlinePeers)
	}
	for i, h := range net.Hosts() {
		if i%2 == 0 {
			h.Up = false
		}
	}
	second := s.UpdateRound()
	if second.OnlinePeers >= first.OnlinePeers {
		t.Fatal("aggregate did not track offline peers")
	}
	if second.Peers != first.Peers {
		t.Fatal("population count should be stable")
	}
}
