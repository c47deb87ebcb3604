// Package bittorrent implements a BitTorrent-style swarm on the simulated
// underlay: a tracker, piece exchange with rarest-first selection, and
// round-based upload scheduling — plus the biased neighbor selection of
// Bindal et al. ("Improving traffic locality in BitTorrent via biased
// neighbor selection", ICDCS 2006 — [3] in the paper): the tracker hands
// each peer mostly same-ISP neighbors and only k external ones, cutting
// inter-AS traffic while keeping download times close to unbiased.
package bittorrent

import (
	"fmt"
	"math/rand"

	"unap2p/internal/core"
	"unap2p/internal/metrics"
	"unap2p/internal/resilience"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

// Config tunes the swarm.
type Config struct {
	// Pieces is the number of pieces in the shared file.
	Pieces int
}

// DefaultConfig scales the Bindal et al. setup down for simulation.
func DefaultConfig() Config { return Config{Pieces: 64} }

// Swarm parameters shared by every configuration.
const (
	// peerSet is how many neighbors the tracker returns per announce.
	peerSet = 12
	// pieceSize is bytes per piece.
	pieceSize uint64 = 256 << 10
	// uploadSlots is how many pieces a peer can upload per round (the
	// unchoked-connections abstraction).
	uploadSlots = 4
	// external is the number of out-of-AS neighbors a biased peer keeps
	// (Bindal et al. use k = 1; 35-k internal).
	external = 1
)

// Peer is one swarm participant.
type Peer struct {
	Host *underlay.Host
	// have[i] reports possession of piece i.
	have []bool
	// remaining counts missing pieces (0 = seed/complete).
	remaining int
	// neighbors is the tracker-assigned peer set.
	neighbors []*Peer
	// CompletedRound records when the peer finished (-1 while leeching).
	CompletedRound int
	// next round-robin cursor over neighbors for fairness.
	cursor int
}

// Complete reports whether the peer holds every piece.
func (p *Peer) Complete() bool { return p.remaining == 0 }

// Has reports possession of a piece.
func (p *Peer) Has(i int) bool { return p.have[i] }

// Swarm is a torrent instance.
type Swarm struct {
	// T carries piece transfers.
	T   *transport.Transport
	Cfg Config
	// PieceTraffic accounts piece bytes by AS pair, recorded by the
	// transport under the "piece" message type.
	PieceTraffic *metrics.TrafficMatrix
	// Rounds counts scheduling rounds executed.
	Rounds int
	// OnRound, when non-nil, runs after every Run round — a pure
	// observer hook the telemetry probe plane uses to sample per-round
	// swarm health. It must not mutate the swarm.
	OnRound func()

	peers []*Peer
	r     *rand.Rand
	sel   core.Selector
	freq  []int // pickRarest's piece counts, cleared on each call
	// Ledger records the failure detector's evictions (see heal.go).
	resilience.Ledger
}

// NewSwarm creates an empty swarm sending through tr. A non-nil selector
// turns on Bindal-style biased neighbor selection at the tracker: peers
// the selector's Proximity verb puts at cost 0 (same ISP) are preferred,
// with `external` random out-of-ISP links as the connectivity
// safeguard. A nil selector runs the classic random tracker.
func NewSwarm(tr *transport.Transport, sel core.Selector, cfg Config, r *rand.Rand) *Swarm {
	if cfg.Pieces < 1 {
		panic("bittorrent: invalid config")
	}
	return &Swarm{T: tr, Cfg: cfg, PieceTraffic: tr.MatrixFor("piece"), r: r, sel: sel}
}

// AddSeed joins a host holding the full file.
func (s *Swarm) AddSeed(h *underlay.Host) *Peer {
	p := s.addPeer(h)
	for i := range p.have {
		p.have[i] = true
	}
	p.remaining = 0
	p.CompletedRound = 0
	return p
}

// AddLeecher joins a host with no pieces.
func (s *Swarm) AddLeecher(h *underlay.Host) *Peer { return s.addPeer(h) }

func (s *Swarm) addPeer(h *underlay.Host) *Peer {
	for _, q := range s.peers {
		if q.Host.ID == h.ID {
			panic(fmt.Sprintf("bittorrent: host %d already in swarm", h.ID))
		}
	}
	p := &Peer{
		Host:           h,
		have:           make([]bool, s.Cfg.Pieces),
		remaining:      s.Cfg.Pieces,
		CompletedRound: -1,
	}
	s.peers = append(s.peers, p)
	return p
}

// Peers returns the swarm membership in join order.
func (s *Swarm) Peers() []*Peer { return s.peers }

// AssignNeighbors runs the tracker: every peer receives a peer set —
// uniformly random when unbiased; same-AS-first plus `external` random
// external peers when biased. Connections are symmetric.
func (s *Swarm) AssignNeighbors() {
	adj := make(map[[2]int]bool)
	connect := func(a, b *Peer) {
		ia, ib := int(a.Host.ID), int(b.Host.ID)
		if ia == ib {
			return
		}
		if ia > ib {
			ia, ib = ib, ia
		}
		if adj[[2]int{ia, ib}] {
			return
		}
		adj[[2]int{ia, ib}] = true
		a.neighbors = append(a.neighbors, b)
		b.neighbors = append(b.neighbors, a)
	}
	for _, p := range s.peers {
		if s.sel == nil {
			perm := s.r.Perm(len(s.peers))
			for _, idx := range perm {
				if len(p.neighbors) >= peerSet {
					break
				}
				connect(p, s.peers[idx])
			}
			continue
		}
		// Biased: internal (selector proximity cost 0 — same ISP) first.
		var internal, outside []*Peer
		for _, q := range s.peers {
			if q == p {
				continue
			}
			if cost, ok := s.sel.Proximity(p.Host, q.Host); ok && cost == 0 {
				internal = append(internal, q)
			} else {
				outside = append(outside, q)
			}
		}
		s.shuffle(internal)
		s.shuffle(outside)
		budget := peerSet - external
		for _, q := range internal {
			if len(p.neighbors) >= budget {
				break
			}
			connect(p, q)
		}
		for i := 0; i < external && i < len(outside); i++ {
			connect(p, outside[i])
		}
		// Top up from outside if the AS is too small to fill the set.
		for _, q := range outside {
			if len(p.neighbors) >= peerSet {
				break
			}
			connect(p, q)
		}
	}
}

func (s *Swarm) shuffle(ps []*Peer) {
	s.r.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
}

// Round executes one scheduling round: every peer uploads up to
// uploadSlots pieces to neighbors that need them; receivers pick the
// rarest piece (within their neighborhood) the uploader can provide.
// It returns the number of piece transfers performed.
func (s *Swarm) Round() int {
	s.Rounds++
	type transfer struct {
		from, to *Peer
		piece    int
	}
	var plan []transfer
	// Pieces granted this round are only usable next round (store-and-
	// forward); plan first, apply after.
	for _, up := range s.peers {
		if !up.Host.Up {
			continue
		}
		slots := uploadSlots
		tried := 0
		for slots > 0 && tried < len(up.neighbors) {
			q := up.neighbors[up.cursor%len(up.neighbors)]
			up.cursor++
			tried++
			if !q.Host.Up || q.Complete() {
				continue
			}
			piece := s.pickRarest(up, q)
			if piece < 0 {
				continue
			}
			plan = append(plan, transfer{from: up, to: q, piece: piece})
			slots--
		}
	}
	for _, t := range plan {
		if t.to.have[t.piece] {
			continue // granted by someone else in the same round
		}
		if sr := s.T.Send(t.from.Host, t.to.Host, pieceSize, "piece"); !sr.OK {
			continue // piece lost in transit: re-requested a later round
		}
		t.to.have[t.piece] = true
		t.to.remaining--
		if t.to.remaining == 0 {
			t.to.CompletedRound = s.Rounds
		}
	}
	return len(plan)
}

// pickRarest returns the rarest piece (in q's neighborhood) that up has
// and q lacks, or -1. Ties break on the lowest index for determinism.
func (s *Swarm) pickRarest(up, q *Peer) int {
	if cap(s.freq) < s.Cfg.Pieces {
		s.freq = make([]int, s.Cfg.Pieces)
	}
	freq := s.freq[:s.Cfg.Pieces]
	clear(freq)
	for _, nb := range q.neighbors {
		for i, h := range nb.have {
			if h {
				freq[i]++
			}
		}
	}
	best, bestFreq := -1, 1<<30
	for i := 0; i < s.Cfg.Pieces; i++ {
		if up.have[i] && !q.have[i] && freq[i] < bestFreq {
			best, bestFreq = i, freq[i]
		}
	}
	return best
}

// Run rounds until every online peer completes or maxRounds elapses; it
// returns the number of rounds used.
func (s *Swarm) Run(maxRounds int) int {
	for r := 0; r < maxRounds; r++ {
		done := true
		for _, p := range s.peers {
			if p.Host.Up && !p.Complete() {
				done = false
				break
			}
		}
		if done {
			return s.Rounds
		}
		s.Round()
		if s.OnRound != nil {
			s.OnRound()
		}
	}
	return s.Rounds
}

// Stats summarizes a finished swarm.
type Stats struct {
	// MeanCompletionRound averages leecher finish times.
	MeanCompletionRound float64
	// MaxCompletionRound is the slowest leecher.
	MaxCompletionRound int
	// Unfinished counts peers that never completed.
	Unfinished int
	// IntraASFraction is the share of piece bytes that stayed in-AS.
	IntraASFraction float64
	// InterASBytes is the absolute cross-ISP volume — the number the ISP
	// pays for.
	InterASBytes uint64
}

// Stats computes summary statistics.
func (s *Swarm) Stats() Stats {
	var st Stats
	var sum, n float64
	for _, p := range s.peers {
		if p.CompletedRound < 0 {
			st.Unfinished++
			continue
		}
		if p.CompletedRound == 0 {
			continue // seeds
		}
		sum += float64(p.CompletedRound)
		n++
		if p.CompletedRound > st.MaxCompletionRound {
			st.MaxCompletionRound = p.CompletedRound
		}
	}
	if n > 0 {
		st.MeanCompletionRound = sum / n
	}
	st.IntraASFraction = s.PieceTraffic.IntraFraction()
	st.InterASBytes = s.PieceTraffic.Inter()
	return st
}

// NeighborASMix returns, for diagnostics, the fraction of neighbor links
// that are intra-AS.
func (s *Swarm) NeighborASMix() float64 {
	intra, total := 0, 0
	for _, p := range s.peers {
		for _, q := range p.neighbors {
			total++
			if p.Host.AS.ID == q.Host.AS.ID {
				intra++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(intra) / float64(total)
}

// HealthStats feeds telemetry.Recorder.ObserveHealth: swarm
// progress and locality gauges sampled per round by the probe plane
// (pure reads over the peer slice, deterministic).
//
//   - peers: swarm size
//   - completion_mean: mean fraction of pieces held across peers — the
//     download-progress curve
//   - complete_fraction: share of peers holding every piece
//   - rounds: upload rounds driven so far
//   - intra_as_neighbor_fraction: locality of the tracker-assigned
//     neighbor sets (NeighborASMix)
func (s *Swarm) HealthStats() map[string]float64 {
	var done, frac float64
	for _, p := range s.peers {
		frac += float64(s.Cfg.Pieces-p.remaining) / float64(s.Cfg.Pieces)
		if p.remaining == 0 {
			done++
		}
	}
	out := map[string]float64{
		"peers":                      float64(len(s.peers)),
		"rounds":                     float64(s.Rounds),
		"intra_as_neighbor_fraction": s.NeighborASMix(),
	}
	if len(s.peers) > 0 {
		out["completion_mean"] = frac / float64(len(s.peers))
		out["complete_fraction"] = done / float64(len(s.peers))
	}
	return out
}
