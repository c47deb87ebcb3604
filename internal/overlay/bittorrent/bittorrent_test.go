package bittorrent

import (
	"testing"

	"unap2p/internal/core"
	"unap2p/internal/sim"
	"unap2p/internal/topology"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

// buildSwarm: 6 stub ASes, hostsPerAS hosts each, one seed in AS of
// host 0, rest leechers. biased installs an AS-hop selector at the
// tracker (Bindal-style biased neighbor selection).
func buildSwarm(t *testing.T, hostsPerAS int, biased bool, cfg Config, seed int64) (*underlay.Network, *Swarm) {
	t.Helper()
	src := sim.NewSource(seed)
	tcfg := topology.TransitStubConfig{
		Config:   topology.Config{IntraDelay: 5, LinkDelay: 20, Rand: src.Stream("topo")},
		Transits: 2,
		Stubs:    6,
	}
	net := topology.TransitStub(tcfg)
	topology.PlaceHosts(net, hostsPerAS, false, 1, 5, src.Stream("place"))
	var sel core.Selector
	if biased {
		sel = core.ASHopSelector(net)
	}
	s := NewSwarm(transport.Over(net), sel, cfg, src.Stream("swarm"))
	for i, h := range net.Hosts() {
		if i == 0 {
			s.AddSeed(h)
		} else {
			s.AddLeecher(h)
		}
	}
	s.AssignNeighbors()
	return net, s
}

func TestSeedAndLeecherState(t *testing.T) {
	_, s := buildSwarm(t, 5, false, DefaultConfig(), 1)
	seed := s.Peers()[0]
	if !seed.Complete() || seed.CompletedRound != 0 {
		t.Fatal("seed not complete")
	}
	leecher := s.Peers()[1]
	if leecher.Complete() || leecher.CompletedRound != -1 {
		t.Fatal("leecher should start empty")
	}
	if leecher.Has(0) {
		t.Fatal("leecher has piece 0")
	}
}

func TestSwarmCompletes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Pieces = 32
	_, s := buildSwarm(t, 5, false, cfg, 2)
	rounds := s.Run(10000)
	st := s.Stats()
	if st.Unfinished != 0 {
		t.Fatalf("%d peers unfinished after %d rounds", st.Unfinished, rounds)
	}
	if st.MeanCompletionRound <= 0 || st.MaxCompletionRound < int(st.MeanCompletionRound) {
		t.Fatalf("implausible stats %+v", st)
	}
	// Conservation: every leecher downloaded exactly Pieces pieces.
	wantBytes := uint64(len(s.Peers())-1) * uint64(cfg.Pieces) * pieceSize
	if s.PieceTraffic.Total() != wantBytes {
		t.Fatalf("piece traffic %d, want %d", s.PieceTraffic.Total(), wantBytes)
	}
}

func TestBiasedTrackerRaisesNeighborLocality(t *testing.T) {
	// ASes large enough (15 hosts) that the internal budget (peerSet −
	// external = 11) can actually be met.
	cfgU := DefaultConfig()
	_, su := buildSwarm(t, 15, false, cfgU, 3)
	cfgB := DefaultConfig()
	_, sb := buildSwarm(t, 15, true, cfgB, 3)
	mu, mb := su.NeighborASMix(), sb.NeighborASMix()
	if mb <= mu {
		t.Fatalf("biased neighbor locality %.3f not above unbiased %.3f", mb, mu)
	}
	if mb < 0.6 {
		t.Fatalf("biased locality %.3f too low", mb)
	}
}

// TestBindalShape reproduces the headline claim of Bindal et al.: biased
// neighbor selection slashes inter-AS piece traffic while download times
// stay comparable (within 2× here; the paper reports near-parity).
func TestBindalShape(t *testing.T) {
	run := func(biased bool) Stats {
		cfg := DefaultConfig()
		cfg.Pieces = 32
		_, s := buildSwarm(t, 6, biased, cfg, 4)
		s.Run(10000)
		return s.Stats()
	}
	u, b := run(false), run(true)
	if u.Unfinished != 0 || b.Unfinished != 0 {
		t.Fatalf("unfinished peers: %d/%d", u.Unfinished, b.Unfinished)
	}
	if b.InterASBytes >= u.InterASBytes {
		t.Fatalf("biased inter-AS bytes %d not below unbiased %d", b.InterASBytes, u.InterASBytes)
	}
	if b.IntraASFraction <= u.IntraASFraction {
		t.Fatal("biased intra-AS fraction should rise")
	}
	if b.MeanCompletionRound > 2*u.MeanCompletionRound {
		t.Fatalf("biased completion %.1f much slower than unbiased %.1f",
			b.MeanCompletionRound, u.MeanCompletionRound)
	}
}

func TestPeerSetSizeRespected(t *testing.T) {
	_, s := buildSwarm(t, 15, false, DefaultConfig(), 5)
	edges := 0
	for _, p := range s.Peers() {
		// Every peer fills its own set; symmetric connections can push it
		// modestly above (it accepts inbound), but the graph stays bounded.
		if n := len(p.neighbors); n < peerSet || n > 4*peerSet {
			t.Fatalf("peer %d has %d neighbors, want %d..%d", p.Host.ID, n, peerSet, 4*peerSet)
		}
		edges += len(p.neighbors)
	}
	// Each peer opens at most peerSet connections.
	if mean := float64(edges) / float64(len(s.Peers())); mean > 2*peerSet {
		t.Fatalf("mean degree %.1f above %d", mean, 2*peerSet)
	}
}

func TestRarestFirstSpreadsPieces(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Pieces = 16
	_, s := buildSwarm(t, 4, false, cfg, 6)
	// After a few rounds, distinct pieces should be in flight, not just
	// piece 0 (rarest-first de-correlates).
	for i := 0; i < 6; i++ {
		s.Round()
	}
	distinct := map[int]bool{}
	for _, p := range s.Peers()[1:] {
		for i := range p.have {
			if p.have[i] {
				distinct[i] = true
			}
		}
	}
	if len(distinct) < 4 {
		t.Fatalf("only %d distinct pieces circulating", len(distinct))
	}
}

// TestPickRarestAllocs pins pickRarest at no allocation once its piece
// counts are sized: it runs for every upload slot of every round.
func TestPickRarestAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Pieces = 16
	_, s := buildSwarm(t, 4, false, cfg, 6)
	up, q := s.Peers()[0], s.Peers()[1]
	s.pickRarest(up, q)
	if allocs := testing.AllocsPerRun(100, func() { s.pickRarest(up, q) }); allocs != 0 {
		t.Fatalf("pickRarest allocates %.0f times, want 0", allocs)
	}
}

func TestOfflinePeersSkipped(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Pieces = 16
	net, s := buildSwarm(t, 4, false, cfg, 7)
	// Kill a third of the leechers.
	for i, h := range net.Hosts() {
		if i > 0 && i%3 == 0 {
			h.Up = false
		}
	}
	s.Run(10000)
	for _, p := range s.Peers() {
		if !p.Host.Up && p.Complete() {
			t.Fatal("offline peer completed")
		}
		if p.Host.Up && !p.Complete() {
			t.Fatal("online peer starved by offline ones")
		}
	}
}

func TestDeterministicSwarm(t *testing.T) {
	run := func() (float64, uint64) {
		cfg := DefaultConfig()
		cfg.Pieces = 24
		_, s := buildSwarm(t, 5, true, cfg, 8)
		s.Run(10000)
		st := s.Stats()
		return st.MeanCompletionRound, st.InterASBytes
	}
	m1, b1 := run()
	m2, b2 := run()
	if m1 != m2 || b1 != b2 {
		t.Fatalf("swarm runs diverged: (%v,%d) vs (%v,%d)", m1, b1, m2, b2)
	}
}

func TestAddPeerPanicsOnDuplicate(t *testing.T) {
	net, s := buildSwarm(t, 4, false, DefaultConfig(), 9)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.AddLeecher(net.Hosts()[0])
}

func TestNewSwarmPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSwarm(nil, nil, Config{}, nil)
}
