// Package gnutella implements an unstructured Gnutella-style overlay on
// the simulated underlay: ultrapeer/leaf roles, Hostcache-driven
// bootstrapping, TTL-limited Ping/Pong discovery and Query flooding with
// reverse-path QueryHit routing, and an HTTP-like file-exchange stage.
//
// It is the workhorse of the paper's central evidence (Aggarwal et al.):
// with an ISP oracle ranking the Hostcache at join time ("biased neighbor
// selection") the overlay clusters along AS boundaries (Figures 5/6),
// message counts drop (their Table 1), and consulting the oracle again at
// the file-exchange stage drives intra-AS transfers from ~6.5% to ~40%.
package gnutella

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"unap2p/internal/core"
	"unap2p/internal/metrics"
	"unap2p/internal/resilience"
	"unap2p/internal/sim"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
	"unap2p/internal/workload"
)

// Message sizes in bytes (representative Gnutella 0.6 frame sizes; only
// relative magnitudes matter for traffic accounting), classic and compact.
const (
	pingBytes     = 23
	pongBytes     = 37
	queryBytes    = 64
	queryHitBytes = 120
)

// maxLeaves caps how many leaves one ultrapeer accepts (GTK-Gnutella's 30).
const maxLeaves = 30

// fileSize is the bytes transferred per download (4 MB).
const fileSize uint64 = 4 << 20

// pongCacheSize caps the pongs a pong-caching ultrapeer returns per ping.
const pongCacheSize = 10

// Config tunes the overlay.
type Config struct {
	// UltraDegree is the target number of ultrapeer↔ultrapeer neighbors.
	UltraDegree int
	// MaxUltraDegree caps accepted connections (refusals beyond it).
	MaxUltraDegree int
	// LeafParents is how many ultrapeers each leaf connects to.
	LeafParents int
	// HostcacheSize is the random subset of known addresses each joining
	// node holds — the list it sends to the oracle in biased mode (the
	// "cache 100 / cache 1000" knob of Aggarwal et al.'s Table 1).
	HostcacheSize int
	// PingTTL and QueryTTL limit flooding scope.
	PingTTL  int
	QueryTTL int
	// ExternalPerNode reserves this many of a biased node's connections
	// for peers *outside* its AS — "a minimal number of inter-AS
	// connections necessary to keep the network connected" (§4, and the
	// k-external rule of Bindal et al.'s biased neighbor selection).
	ExternalPerNode int
	// PongCache enables Gnutella 0.6 pong caching: pings travel a single
	// hop and the receiving ultrapeer answers from its cache of known
	// hosts instead of re-flooding — the protocol optimization that tamed
	// Ping/Pong traffic in deployed Gnutella.
	PongCache bool
}

// DefaultConfig mirrors common GTK-Gnutella settings scaled for
// simulation.
func DefaultConfig() Config {
	return Config{
		UltraDegree:     5,
		MaxUltraDegree:  8,
		LeafParents:     1,
		HostcacheSize:   100,
		PingTTL:         2,
		QueryTTL:        3,
		ExternalPerNode: 1,
	}
}

// idSet is a connection set: distinct host ids in ascending order, so a
// flood ranges it directly in the order event scheduling depends on.
type idSet []underlay.HostID

func (s idSet) has(id underlay.HostID) bool {
	_, ok := slices.BinarySearch(s, id)
	return ok
}

func (s *idSet) add(id underlay.HostID) {
	if i, ok := slices.BinarySearch(*s, id); !ok {
		*s = slices.Insert(*s, i, id)
	}
}

func (s *idSet) remove(id underlay.HostID) {
	if i, ok := slices.BinarySearch(*s, id); ok {
		*s = slices.Delete(*s, i, i+1)
	}
}

// Node is one Gnutella servent.
type Node struct {
	Host  *underlay.Host
	Ultra bool
	// neighbors are ultrapeer↔ultrapeer connections (only for ultras).
	neighbors idSet
	// leaves are attached leaf nodes (only for ultras).
	leaves idSet
	// parents are the leaf's ultrapeers (only for leaves).
	parents idSet
	// hostcache is the node's known-address list.
	hostcache []underlay.HostID
	// seen de-duplicates flooded GUIDs → the neighbor we first heard it
	// from (the reverse-path backpointer).
	seen map[uint64]underlay.HostID
}

// Degree returns the node's ultrapeer connection count.
func (n *Node) Degree() int { return len(n.neighbors) }

// Hostcache returns the node's known-address list (a copy).
func (n *Node) Hostcache() []underlay.HostID {
	return append([]underlay.HostID(nil), n.hostcache...)
}

// LeafCount returns how many leaves are attached (0 for leaf nodes).
func (n *Node) LeafCount() int { return len(n.leaves) }

// Overlay is a Gnutella network instance bound to an underlay and kernel
// through a transport.
type Overlay struct {
	// T carries every protocol message; U and K are views of the
	// transport's underlay (topology queries) and kernel (scheduling).
	T   *transport.Transport
	U   *underlay.Network
	K   *sim.Kernel
	Cfg Config
	// Sel, when non-nil, biases decisions: a selector answering Rank
	// biases neighbor selection at join time (with the ExternalPerNode
	// safeguard), one answering SelectSource biases the file-exchange
	// stage. A nil selector — or one with no preference — keeps the
	// unaware protocol.
	Sel core.Selector
	// Catalog holds the shared content.
	Catalog *workload.Catalog
	// Msgs counts protocol messages by type: "ping", "pong", "query",
	// "queryhit".
	Msgs *metrics.CounterSet
	// FileTraffic accounts file-exchange bytes by AS pair, separately
	// from signalling.
	FileTraffic *metrics.TrafficMatrix
	// Downloads counts completed transfers; IntraASDownloads those whose
	// endpoints shared an AS.
	Downloads, IntraASDownloads uint64
	// SettleTime, when positive, bounds how long RunSearch advances the
	// kernel; required when the kernel carries recurring non-search
	// events (churn, mobility) that keep its queue non-empty forever.
	SettleTime sim.Duration

	nodes       map[underlay.HostID]*Node
	order       []underlay.HostID // join order for deterministic iteration
	r           *rand.Rand
	guid        uint64
	pendingHits map[uint64]*SearchResult
	free        *message // recycled message records (see message)
	perm        []int    // fillHostcache's permutation scratch
	// Ledger records the failure detector's evictions (see heal.go).
	resilience.Ledger
}

// New creates an empty overlay sending through tr (which must carry a
// kernel for delivery scheduling) and selecting through sel (nil for the
// unaware protocol).
func New(tr *transport.Transport, sel core.Selector, cfg Config, r *rand.Rand) *Overlay {
	if cfg.PingTTL > math.MaxInt16 || cfg.QueryTTL > math.MaxInt16 {
		panic("gnutella: a TTL above 32767 does not fit a message record")
	}
	return &Overlay{
		T:           tr,
		U:           tr.Underlay(),
		K:           tr.Kernel(),
		Cfg:         cfg,
		Sel:         sel,
		Catalog:     workload.NewCatalog(0),
		Msgs:        tr.Counters(),
		FileTraffic: tr.MatrixFor("file"),
		nodes:       make(map[underlay.HostID]*Node),
		r:           r,
		pendingHits: make(map[uint64]*SearchResult),
	}
}

// Node returns the servent on a host (nil if absent).
func (o *Overlay) Node(id underlay.HostID) *Node { return o.nodes[id] }

// Nodes returns all servents in join order.
func (o *Overlay) Nodes() []*Node {
	out := make([]*Node, 0, len(o.order))
	for _, id := range o.order {
		out = append(out, o.nodes[id])
	}
	return out
}

// AddNode registers a servent for a host with the given role. It does not
// connect it; call Join (or JoinAll).
func (o *Overlay) AddNode(h *underlay.Host, ultra bool) *Node {
	if _, dup := o.nodes[h.ID]; dup {
		panic(fmt.Sprintf("gnutella: host %d already has a node", h.ID))
	}
	n := &Node{
		Host:  h,
		Ultra: ultra,
		seen:  make(map[uint64]underlay.HostID),
	}
	o.nodes[h.ID] = n
	o.order = append(o.order, h.ID)
	return n
}

// fillHostcache gives n a random sample of other nodes' addresses, sized
// once at the most it can hold.
func (o *Overlay) fillHostcache(n *Node) {
	size := len(o.order) - 1
	if c := o.Cfg.HostcacheSize; c > 0 && c < size {
		size = c
	}
	if cap(n.hostcache) < size {
		n.hostcache = make([]underlay.HostID, 0, size)
	}
	n.hostcache = n.hostcache[:0]
	for _, idx := range o.permute(len(o.order)) {
		if len(n.hostcache) == size {
			break
		}
		if id := o.order[idx]; id != n.Host.ID {
			n.hostcache = append(n.hostcache, id)
		}
	}
}

// permute returns a permutation of [0, n) in the overlay's scratch,
// drawn from o.r exactly as rand.Perm(n) draws it.
func (o *Overlay) permute(n int) []int {
	if cap(o.perm) < n {
		o.perm = make([]int, n)
	}
	perm := o.perm[:n]
	for i := range perm {
		j := o.r.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	return perm
}

// Join connects a node: leaves attach to ultrapeers; ultrapeers open
// UltraDegree connections. In biased mode the node sends its Hostcache to
// the oracle and walks the ranked list ("joins another node within its AS
// if such a node is present in its Hostcache, else … the nearest AS").
func (o *Overlay) Join(n *Node) {
	o.fillHostcache(n)
	candidates := make([]underlay.HostID, 0, len(n.hostcache))
	for _, id := range n.hostcache {
		c := o.nodes[id]
		if c != nil && c.Ultra && c.Host.Up {
			candidates = append(candidates, id)
		}
	}
	// unranked keeps the Hostcache's random order: external (inter-AS)
	// links are drawn from it so that the few long-range edges are random
	// rather than all funnelling into the nearest AS — randomness is what
	// keeps the clustered overlay one connected component.
	unranked := candidates
	biased := false
	if o.Sel != nil {
		if ranked, ok := o.Sel.Rank(n.Host, candidates); ok {
			candidates = ranked
			biased = true
		}
	}
	if n.Ultra {
		connect := func(id underlay.HostID, force bool) bool {
			c := o.nodes[id]
			if n.neighbors.has(id) || id == n.Host.ID {
				return false
			}
			if !force && c.Degree() >= o.Cfg.MaxUltraDegree {
				return false
			}
			n.neighbors.add(id)
			c.neighbors.add(n.Host.ID)
			return true
		}
		// In biased mode, reserve ExternalPerNode slots for out-of-AS
		// peers so AS clusters stay mutually connected.
		external := 0
		if biased {
			external = o.Cfg.ExternalPerNode
		}
		budget := o.Cfg.UltraDegree - external
		for _, id := range candidates {
			if n.Degree() >= budget {
				break
			}
			connect(id, false)
		}
		if external > 0 {
			made := 0
			for _, id := range unranked {
				if made >= external {
					break
				}
				if o.nodes[id].Host.AS.ID != n.Host.AS.ID && connect(id, false) {
					made++
				}
			}
			// If every random pick was full, force one inter-AS link
			// rather than risk partition.
			if made == 0 {
				for _, id := range unranked {
					if o.nodes[id].Host.AS.ID != n.Host.AS.ID && connect(id, true) {
						break
					}
				}
			}
		}
		// Connectivity fallback: a node that found no open slot connects
		// to its best candidate regardless of caps.
		if n.Degree() == 0 && len(candidates) > 0 {
			connect(candidates[0], true)
		}
		return
	}
	for _, id := range candidates {
		if len(n.parents) >= o.Cfg.LeafParents {
			break
		}
		c := o.nodes[id]
		if len(c.leaves) >= maxLeaves {
			continue
		}
		n.parents.add(id)
		c.leaves.add(n.Host.ID)
	}
}

// JoinAll joins every node in join order (ultrapeers first so leaves find
// parents).
func (o *Overlay) JoinAll() {
	ids := append([]underlay.HostID(nil), o.order...)
	sort.SliceStable(ids, func(i, j int) bool {
		ni, nj := o.nodes[ids[i]], o.nodes[ids[j]]
		if ni.Ultra != nj.Ultra {
			return ni.Ultra
		}
		return false
	})
	for _, id := range ids {
		o.Join(o.nodes[id])
	}
}

// Leave disconnects a node from the overlay (churn hook).
func (o *Overlay) Leave(n *Node) {
	for _, id := range n.neighbors {
		o.nodes[id].neighbors.remove(n.Host.ID)
	}
	for _, id := range n.leaves {
		o.nodes[id].parents.remove(n.Host.ID)
	}
	for _, id := range n.parents {
		o.nodes[id].leaves.remove(n.Host.ID)
	}
	n.neighbors, n.leaves, n.parents = nil, nil, nil
}

// Edges returns the ultrapeer overlay edges (each once) plus leaf
// attachments, for clustering analysis.
func (o *Overlay) Edges() []metrics.Edge {
	var edges []metrics.Edge
	for _, id := range o.order {
		n := o.nodes[id]
		for _, nb := range n.neighbors {
			if id < nb {
				edges = append(edges, metrics.Edge{A: int(id), B: int(nb)})
			}
		}
		for _, p := range n.parents {
			edges = append(edges, metrics.Edge{A: int(id), B: int(p)})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].A != edges[j].A {
			return edges[i].A < edges[j].A
		}
		return edges[i].B < edges[j].B
	})
	return edges
}

// ASLabels returns the host→AS labelling aligned with host IDs, sized to
// the underlay's host table (for metrics helpers).
func (o *Overlay) ASLabels() []int {
	labels := make([]int, o.U.NumHosts())
	for _, h := range o.U.Hosts() {
		labels[h.ID] = h.AS.ID
	}
	return labels
}

func (o *Overlay) nextGUID() uint64 {
	o.guid++
	return o.guid
}

// HealthStats feeds telemetry.Recorder.ObserveHealth: live gauges
// over the two-tier topology, computed by pure reads in join order so
// sampling never perturbs a run.
//
//   - ultras / leaves: current role split of the joined population
//   - online_fraction: share of joined hosts currently up (moves under
//     churn as ultrapeer elections re-fill the backbone)
//   - ultra_degree_mean: mean ultrapeer fan-out
//   - leaves_per_ultra_mean: mean leaves attached per ultrapeer
//   - intra_as_neighbor_fraction: share of ultrapeer↔ultrapeer edges
//     inside one AS — the locality biased selection is supposed to buy
//   - downloads / intra_as_download_fraction: file-exchange outcomes
func (o *Overlay) HealthStats() map[string]float64 {
	var ultras, leaves, up, degree, attached float64
	var edges, intraEdges float64
	for _, id := range o.order {
		n := o.nodes[id]
		if n.Host.Up {
			up++
		}
		if !n.Ultra {
			leaves++
			continue
		}
		ultras++
		degree += float64(len(n.neighbors))
		attached += float64(len(n.leaves))
		for _, nb := range n.neighbors {
			if id < nb { // count each undirected edge once
				edges++
				if o.U.Host(nb).AS.ID == n.Host.AS.ID {
					intraEdges++
				}
			}
		}
	}
	out := map[string]float64{
		"ultras":    ultras,
		"leaves":    leaves,
		"downloads": float64(o.Downloads),
	}
	if n := ultras + leaves; n > 0 {
		out["online_fraction"] = up / n
	}
	if ultras > 0 {
		out["ultra_degree_mean"] = degree / ultras
		out["leaves_per_ultra_mean"] = attached / ultras
	}
	if edges > 0 {
		out["intra_as_neighbor_fraction"] = intraEdges / edges
	}
	if o.Downloads > 0 {
		out["intra_as_download_fraction"] = float64(o.IntraASDownloads) / float64(o.Downloads)
	}
	return out
}
