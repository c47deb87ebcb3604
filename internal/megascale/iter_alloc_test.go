package megascale_test

import (
	"runtime"
	"testing"

	"unap2p/internal/megascale"
	"unap2p/internal/overlay/chord"
	"unap2p/internal/overlay/kademlia"
	"unap2p/internal/sim"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

// compactNet wires a sharded stack of four stub ASes with perAS peers
// each over K shards.
func compactNet(tb testing.TB, perAS, K int) *transport.ShardedNet {
	tb.Helper()
	u := underlay.New()
	transit := u.AddAS(underlay.TransitISP, 2)
	for i := 0; i < 4; i++ {
		u.ConnectTransit(u.AddAS(underlay.LocalISP, 4), transit, 10)
	}
	u.ComputeRoutes()
	pt := underlay.NewPeerTable(u, 4*perAS)
	for as := 1; as <= 4; as++ {
		for j := 0; j < perAS; j++ {
			pt.AddPeer(as, sim.Duration(2+j%4))
		}
	}
	part := underlay.PartitionASes(u.NumASes(),
		func(as int) int { return pt.PeersPerAS()[int32(as)] }, K)
	window := underlay.MinCrossShardLatency(pt, part)
	if window <= 0 {
		window = 5
	}
	sk := sim.NewSharded(K, window)
	return transport.NewShardedNet(u, pt, part, sk, []string{"req", "rep"})
}

// compactLookup is one Iter port on its own K=2 substrate.
type compactLookup struct {
	name string
	ov   megascale.CompactOverlay
	net  *transport.ShardedNet
}

// compactLookups builds the two ports that run on Iter, compact Kademlia
// and compact Chord, each over a K=2 substrate of 4×perAS peers.
func compactLookups(tb testing.TB, perAS, K int) []compactLookup {
	tb.Helper()
	kad := compactNet(tb, perAS, K)
	ring := compactNet(tb, perAS, K)
	out := []compactLookup{
		{"kademlia", kademlia.NewCompact(kad, kademlia.DefaultCompactConfig(), 5, 0, 1), kad},
		{"chord", chord.NewCompactRing(ring, chord.DefaultCompactConfig(), 5, 0, 1), ring},
	}
	for _, c := range out {
		c.ov.Bootstrap(5 ^ 0x5eed)
	}
	return out
}

// lookup runs lookup i to completion: from a hashed origin, issued
// before the kernel runs, then drained.
func (c compactLookup) lookup(i uint64) {
	origin := underlay.PeerID(megascale.Mix64(i) % uint64(c.net.Peers().Len()))
	c.ov.Query(origin, i, nil)
	c.net.Kernel().Drain()
}

// TestIterAllocs pins Iter at no allocation per lookup and per RPC on a
// warmed K=2 substrate: state and RPC records come off the origin shard's
// free lists and candidates land in their reused buffers, so what a
// drained lookup allocates is the sharded kernel's per-epoch barrier
// alone (7 at K=2, as TestCompactFloodAllocs budgets). Less than half an
// allocation per lookup may remain beyond it.
func TestIterAllocs(t *testing.T) {
	for _, c := range compactLookups(t, 500, 2) {
		k := c.net.Kernel()
		for i := uint64(0); i < 200; i++ {
			c.lookup(i)
		}
		const runs, epochAllocs = 200, 7
		var before, after runtime.MemStats
		msgs0, epochs0 := c.net.Stats().Msgs, k.Stats().Epochs
		runtime.ReadMemStats(&before)
		for i := uint64(200); i < 200+runs; i++ {
			c.lookup(i)
		}
		runtime.ReadMemStats(&after)
		msgs := float64(c.net.Stats().Msgs-msgs0) / runs
		epochs := float64(k.Stats().Epochs-epochs0) / runs
		allocs := float64(after.Mallocs-before.Mallocs) / runs
		beyond := allocs - epochAllocs*epochs
		t.Logf("%s: per lookup %.1f messages, %.1f epochs, %.2f allocs (%.2f beyond the barriers)",
			c.name, msgs, epochs, allocs, beyond)
		if msgs < 10 {
			t.Fatalf("%s: %.1f messages per lookup: too few to measure", c.name, msgs)
		}
		if beyond >= 0.5 {
			t.Errorf("%s: %.2f allocs per lookup beyond %d per epoch, want none per lookup or RPC",
				c.name, beyond, epochAllocs)
		}
	}
}

// BenchmarkCompactLookup measures one compact Kademlia or compact Chord
// lookup, drained, on a warmed 8 000-peer K=2 substrate.
func BenchmarkCompactLookup(b *testing.B) {
	for _, c := range compactLookups(b, 2000, 2) {
		b.Run(c.name, func(b *testing.B) {
			for i := uint64(0); i < 200; i++ {
				c.lookup(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.lookup(uint64(i))
			}
		})
	}
}
