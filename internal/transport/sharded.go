package transport

import (
	"unap2p/internal/sim"
	"unap2p/internal/underlay"
)

// ShardedNet is the transport seam for sharded megascale runs: it routes
// messages between PeerTable peers across a sim.ShardedKernel. Same-shard
// deliveries schedule directly on the sender's shard; deliveries whose
// destination peer lives on another shard go through the kernel's
// cross-shard batch path (Shard.DeferTo) and are counted per lane.
//
// Unlike Transport, a ShardedNet does not charge underlay links or the
// AS-pair traffic matrix — those are process-wide mutable structures a
// parallel run would race on. Accounting is per-shard (Lane) instead:
// per-class message/byte counters plus intra-AS and cross-shard splits,
// each lane owned by exactly one shard and aggregated only at barriers.
type ShardedNet struct {
	pt    *underlay.PeerTable
	part  *underlay.Partition
	sk    *sim.ShardedKernel
	names []string
	lanes []*Lane
}

// Lane is one shard's private traffic accounting. All slices are indexed
// by message class.
type Lane struct {
	Msgs         []uint64
	Bytes        []uint64
	IntraASBytes []uint64
	// CrossMsgs and CrossBytes count messages handed to the cross-shard
	// batch path (destination peer owned by another shard).
	CrossMsgs  uint64
	CrossBytes uint64
}

// NewShardedNet builds a sharded transport over the given peer table and
// kernel. classes names the message classes (request, reply, probe, …);
// Send takes the class index. u is the network pt was built over; it is
// named here only for its precondition: its routes must already be
// computed (Network.ComputeRoutes) — lazy route building inside a shard
// callback would race.
func NewShardedNet(u *underlay.Network, pt *underlay.PeerTable, part *underlay.Partition,
	sk *sim.ShardedKernel, classes []string) *ShardedNet {
	n := &ShardedNet{pt: pt, part: part, sk: sk, names: append([]string(nil), classes...)}
	for i := 0; i < sk.NumShards(); i++ {
		n.lanes = append(n.lanes, &Lane{
			Msgs:         make([]uint64, len(classes)),
			Bytes:        make([]uint64, len(classes)),
			IntraASBytes: make([]uint64, len(classes)),
		})
	}
	return n
}

// RegisterClass appends a message class (e.g. "kad:req") and returns its
// index for Send. Each overlay port registers its own classes so a
// multi-overlay run keeps per-overlay traffic accounting. Call during
// single-threaded setup only — it grows every shard's lane.
func (n *ShardedNet) RegisterClass(name string) int {
	for i, have := range n.names {
		if have == name {
			return i
		}
	}
	n.names = append(n.names, name)
	for _, l := range n.lanes {
		l.Msgs = append(l.Msgs, 0)
		l.Bytes = append(l.Bytes, 0)
		l.IntraASBytes = append(l.IntraASBytes, 0)
	}
	return len(n.names) - 1
}

// Peers returns the peer table the net routes between.
func (n *ShardedNet) Peers() *underlay.PeerTable { return n.pt }

// Partition returns the AS→shard partition.
func (n *ShardedNet) Partition() *underlay.Partition { return n.part }

// Kernel returns the sharded kernel.
func (n *ShardedNet) Kernel() *sim.ShardedKernel { return n.sk }

// ShardOf returns the shard owning peer p.
func (n *ShardedNet) ShardOf(p underlay.PeerID) int { return n.part.ShardOf(n.pt, p) }

// Send delivers bytes from peer from to peer to, invoking fn on the
// destination peer's owning shard after the one-way latency. It must be
// called from the sending peer's owning shard (or during single-threaded
// setup). Liveness checks belong inside fn: only the destination's shard
// may read the destination's up flag, and only at delivery time.
func (n *ShardedNet) Send(from, to underlay.PeerID, class int, bytes uint64, fn func()) sim.Duration {
	src := n.part.ShardOf(n.pt, from)
	dst := n.part.ShardOf(n.pt, to)
	lane := n.lanes[src]
	lane.Msgs[class]++
	lane.Bytes[class] += bytes
	if n.pt.AS(from) == n.pt.AS(to) {
		lane.IntraASBytes[class] += bytes
	}
	lat := n.pt.Latency(from, to)
	s := n.sk.Shard(src)
	if dst == src {
		s.Schedule(lat, fn)
		return lat
	}
	lane.CrossMsgs++
	lane.CrossBytes += bytes
	s.DeferTo(dst, lat, bytes, fn)
	return lat
}

// ClassStats is the aggregated accounting of one message class.
type ClassStats struct {
	Class        string
	Msgs         uint64
	Bytes        uint64
	IntraASBytes uint64
}

// NetStats aggregates every lane. Safe at barriers or after a run.
type NetStats struct {
	PerClass   []ClassStats
	Msgs       uint64
	Bytes      uint64
	IntraBytes uint64
	CrossMsgs  uint64
	CrossBytes uint64
}

// IntraFraction reports the fraction of bytes that stayed inside one AS —
// the locality headline the paper's underlay-awareness techniques move.
func (s NetStats) IntraFraction() float64 {
	if s.Bytes == 0 {
		return 0
	}
	return float64(s.IntraBytes) / float64(s.Bytes)
}

// Stats aggregates all lanes into totals.
func (n *ShardedNet) Stats() NetStats {
	st := NetStats{PerClass: make([]ClassStats, len(n.names))}
	for i, name := range n.names {
		st.PerClass[i].Class = name
	}
	for _, l := range n.lanes {
		for c := range n.names {
			st.PerClass[c].Msgs += l.Msgs[c]
			st.PerClass[c].Bytes += l.Bytes[c]
			st.PerClass[c].IntraASBytes += l.IntraASBytes[c]
			st.Msgs += l.Msgs[c]
			st.Bytes += l.Bytes[c]
			st.IntraBytes += l.IntraASBytes[c]
		}
		st.CrossMsgs += l.CrossMsgs
		st.CrossBytes += l.CrossBytes
	}
	return st
}

// HealthStats exposes the aggregate counters for telemetry health
// sampling at epoch barriers.
func (n *ShardedNet) HealthStats() map[string]float64 {
	st := n.Stats()
	return map[string]float64{
		"msgs":           float64(st.Msgs),
		"bytes":          float64(st.Bytes),
		"intra_fraction": st.IntraFraction(),
		"cross_msgs":     float64(st.CrossMsgs),
		"cross_bytes":    float64(st.CrossBytes),
	}
}
