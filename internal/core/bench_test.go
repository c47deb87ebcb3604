package core

import (
	"testing"

	"unap2p/internal/coords"
	"unap2p/internal/geo"
	"unap2p/internal/sim"
	"unap2p/internal/topology"
	"unap2p/internal/underlay"
)

// benchEngine builds a representative multi-kind engine — AS hops,
// measured RTT, haversine geolocation, and Vivaldi prediction — over a
// transit-stub underlay, with a fixed client and candidate set. This is
// the composition the cache is for: per-estimate work (trig, vector math)
// repeated across floods, lookups, and tracker responses.
func benchEngine(b *testing.B, cached bool) (*Engine, *underlay.Host, []underlay.HostID, func(underlay.HostID) *underlay.Host) {
	b.Helper()
	src := sim.NewSource(1)
	net := topology.TransitStub(topology.TransitStubConfig{
		Config:   topology.Config{IntraDelay: 5, LinkDelay: 20, Rand: src.Stream("topo")},
		Transits: 2,
		Stubs:    8,
	})
	hosts := topology.PlaceHosts(net, 10, false, 1, 5, src.Stream("place"))
	rtt := func(i, j int) float64 { return float64(net.RTT(hosts[i], hosts[j])) }
	vs := coords.NewVivaldiSystem(len(hosts), rtt, src.Stream("vivaldi"))
	vs.Run(30)
	vidx := map[underlay.HostID]int{}
	for i, h := range hosts {
		vidx[h.ID] = i
	}
	eng := NewEngine().
		Add(&FuncEstimator{K: ISPLocation, M: IPToISPMapping,
			F: func(a, c *underlay.Host) (float64, bool) {
				d := net.ASHops(a.AS.ID, c.AS.ID)
				if d < 0 {
					return 0, false
				}
				return float64(d), true
			}}, 1).
		Add(&FuncEstimator{K: Latency, M: ExplicitMeasurement,
			F: func(a, c *underlay.Host) (float64, bool) {
				return float64(net.RTT(a, c)), true
			}}, 1).
		Add(&FuncEstimator{K: Geolocation, M: GPS,
			F: func(a, c *underlay.Host) (float64, bool) {
				return geo.Haversine(geo.Coord{Lat: a.Lat, Lon: a.Lon},
					geo.Coord{Lat: c.Lat, Lon: c.Lon}), true
			}}, 1).
		Add(&VivaldiEstimator{S: vs, Index: vidx}, 1)
	if cached {
		eng.EnableCache(CacheConfig{Capacity: 4096})
	}
	client := hosts[0]
	var cands []underlay.HostID
	for _, h := range hosts[1:41] {
		cands = append(cands, h.ID)
	}
	return eng, client, cands, func(id underlay.HostID) *underlay.Host { return net.Host(id) }
}

func BenchmarkScoreUncached(b *testing.B) {
	eng, client, cands, hostOf := benchEngine(b, false)
	peer := hostOf(cands[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Score(client, peer)
	}
}

func BenchmarkScoreCached(b *testing.B) {
	eng, client, cands, hostOf := benchEngine(b, true)
	peer := hostOf(cands[0])
	eng.Score(client, peer) // warm the entry
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Score(client, peer)
	}
}

// BenchmarkScoreCacheThrash cycles 256 distinct pairs through a 64-entry
// cache: every Score misses, computes, inserts and evicts — the path the
// proximity-selection runs take on 12–99 % of their calls, where
// BenchmarkScoreCached measures only a warm hit.
func BenchmarkScoreCacheThrash(b *testing.B) {
	eng, _, cands, hostOf := benchEngine(b, false)
	eng.EnableCache(CacheConfig{Capacity: 64})
	var pairs [256][2]*underlay.Host
	for i := range pairs {
		pairs[i] = [2]*underlay.Host{hostOf(cands[i/len(cands)]), hostOf(cands[i%len(cands)])}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &pairs[i%len(pairs)]
		eng.Score(p[0], p[1])
	}
	b.StopTimer()
	if st := eng.CacheStats(); st.Hits != 0 {
		b.Fatalf("thrash benchmark hit the cache: %v", st)
	}
}

func BenchmarkRankUncached(b *testing.B) {
	eng, client, cands, hostOf := benchEngine(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Rank(client, cands, hostOf)
	}
}

func BenchmarkRankCached(b *testing.B) {
	eng, client, cands, hostOf := benchEngine(b, true)
	eng.Rank(client, cands, hostOf) // warm all entries
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Rank(client, cands, hostOf)
	}
}
