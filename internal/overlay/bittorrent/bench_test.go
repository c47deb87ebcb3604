package bittorrent

import (
	"testing"

	"unap2p/internal/sim"
	"unap2p/internal/topology"
	"unap2p/internal/transport"
)

// BenchmarkSwarmRound measures one scheduling round of an 84-peer swarm.
// A finished swarm's rounds are idle and cost next to nothing, so the
// swarm is rebuilt (off the clock) whenever it completes: ns, B and
// allocs per op then describe a working round whatever b.N is.
func BenchmarkSwarmRound(b *testing.B) {
	build := func() *Swarm {
		src := sim.NewSource(1)
		net := topology.TransitStub(topology.TransitStubConfig{
			Config:   topology.Config{IntraDelay: 5, LinkDelay: 20, Rand: src.Stream("topo")},
			Transits: 2, Stubs: 6,
		})
		topology.PlaceHosts(net, 14, false, 1, 5, src.Stream("place"))
		s := NewSwarm(transport.Over(net), nil, DefaultConfig(), src.Stream("swarm"))
		for i, h := range net.Hosts() {
			if i == 0 {
				s.AddSeed(h)
			} else {
				s.AddLeecher(h)
			}
		}
		s.AssignNeighbors()
		return s
	}
	s := build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Round() == 0 {
			b.StopTimer()
			s = build()
			b.StartTimer()
		}
	}
}

// BenchmarkFullSwarm measures a complete small distribution.
func BenchmarkFullSwarm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		src := sim.NewSource(2)
		net := topology.TransitStub(topology.TransitStubConfig{
			Config:   topology.Config{IntraDelay: 5, LinkDelay: 20, Rand: src.Stream("topo")},
			Transits: 2, Stubs: 4,
		})
		topology.PlaceHosts(net, 8, false, 1, 5, src.Stream("place"))
		cfg := DefaultConfig()
		cfg.Pieces = 16
		s := NewSwarm(transport.Over(net), nil, cfg, src.Stream("swarm"))
		for j, h := range net.Hosts() {
			if j == 0 {
				s.AddSeed(h)
			} else {
				s.AddLeecher(h)
			}
		}
		s.AssignNeighbors()
		s.Run(10000)
	}
}
