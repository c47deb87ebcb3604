package core

import (
	"unap2p/internal/geo"
	"unap2p/internal/oracle"
	"unap2p/internal/resources"
	"unap2p/internal/underlay"
)

// Selector is the uniform underlay-awareness control plane: the one
// interface every overlay accepts at construction, beside the
// *transport.Transport that is its data plane. Each verb returns an ok
// flag; ok=false means "no preference" and the overlay keeps its
// underlay-unaware default (random neighbors, numerically-closest
// fingers, uniform parent weights, ground-truth positions). A nil
// Selector is always valid and means fully unaware.
//
// The verbs cover the four usage patterns of §4 plus the lookups the
// overlays need to apply them:
//
//   - Rank — biased neighbor selection (callers keep their own
//     random-external safeguard against partitioning);
//   - SelectSource — biased source selection among query hits;
//   - ElectSuperPeer — capability-based super-peer election;
//   - Proximity — pairwise cost for PNS fingers/buckets and for
//     locality partitioning (cost 0 = same ISP);
//   - Bandwidth / Weight — peer-resources lookups (Weight answers only
//     when parents should be capacity-weighted);
//   - Position — geographic position for zone trees and geo hashing.
type Selector interface {
	// Rank orders candidates by preference (best first). ok=false keeps
	// the caller's input order.
	Rank(client *underlay.Host, candidates []underlay.HostID) ([]underlay.HostID, bool)
	// SelectSource picks a download source among holders of an item.
	SelectSource(client *underlay.Host, holders []underlay.HostID) (underlay.HostID, bool)
	// ElectSuperPeer picks the most capable host of a group.
	ElectSuperPeer(group []*underlay.Host) (*underlay.Host, bool)
	// Proximity is a pairwise cost (lower = closer); 0 means same
	// locality (same ISP for ISP-location selectors).
	Proximity(a, b *underlay.Host) (float64, bool)
	// Bandwidth is a host's upload capacity in kbit/s.
	Bandwidth(h *underlay.Host) (float64, bool)
	// Weight is the parent-selection weight in kbit/s; unlike Bandwidth
	// it answers only when the selector wants capacity-weighted parents.
	Weight(h *underlay.Host) (float64, bool)
	// Position is the host's believed geographic position.
	Position(h *underlay.Host) (geo.Coord, bool)
}

// NoPreference answers "no preference" to every verb. Embed it to build
// selectors that override only the verbs they care about.
type NoPreference struct{}

func (NoPreference) Rank(*underlay.Host, []underlay.HostID) ([]underlay.HostID, bool) {
	return nil, false
}

func (NoPreference) SelectSource(*underlay.Host, []underlay.HostID) (underlay.HostID, bool) {
	return 0, false
}

func (NoPreference) ElectSuperPeer([]*underlay.Host) (*underlay.Host, bool) { return nil, false }
func (NoPreference) Proximity(*underlay.Host, *underlay.Host) (float64, bool) {
	return 0, false
}
func (NoPreference) Bandwidth(*underlay.Host) (float64, bool)  { return 0, false }
func (NoPreference) Weight(*underlay.Host) (float64, bool)     { return 0, false }
func (NoPreference) Position(*underlay.Host) (geo.Coord, bool) { return geo.Coord{}, false }

var _ Selector = NoPreference{}

// EngineSelector adapts an Engine (any weighted estimator combination)
// into a Selector: Rank/SelectSource/Proximity all answer from the
// engine's weighted score, so one composition — estimators, weights,
// cache, overhead routing — serves every overlay verb.
type EngineSelector struct {
	NoPreference
	E *Engine
	// Net resolves host IDs for ranking.
	Net *underlay.Network
}

var _ Selector = (*EngineSelector)(nil)

// NewEngineSelector returns a selector over the given engine and network.
func NewEngineSelector(e *Engine, net *underlay.Network) *EngineSelector {
	if e == nil || net == nil {
		panic("core: EngineSelector needs an engine and a network")
	}
	return &EngineSelector{E: e, Net: net}
}

func (s *EngineSelector) hostOf(id underlay.HostID) *underlay.Host { return s.Net.Host(id) }

func (s *EngineSelector) Rank(client *underlay.Host, candidates []underlay.HostID) ([]underlay.HostID, bool) {
	return s.E.Rank(client, candidates, s.hostOf), true
}

func (s *EngineSelector) SelectSource(client *underlay.Host, holders []underlay.HostID) (underlay.HostID, bool) {
	if len(holders) == 0 {
		return 0, false
	}
	return s.E.Rank(client, holders, s.hostOf)[0], true
}

func (s *EngineSelector) Proximity(a, b *underlay.Host) (float64, bool) {
	return s.E.Score(a, b), true
}

// OracleSelector answers from an ISP oracle (Aggarwal et al.): ranking by
// AS-hop distance with same-AS first. Join and Source gate which verbs it
// answers, matching the paper's two deployment stages — biased neighbor
// selection at join time and biased source selection among query hits.
// Every answer is a real oracle query (counted in Oracle.Queries,
// degraded to input order when Down).
type OracleSelector struct {
	NoPreference
	O *oracle.Oracle
	// Join enables Rank (biased neighbor selection).
	Join bool
	// Source enables SelectSource (biased source selection).
	Source bool
}

var _ Selector = (*OracleSelector)(nil)

// NewOracleSelector deploys a fresh oracle over net, answering the join
// verb, the source verb, or both. Reach the oracle's failure knob and
// counter (Down, Queries) through the O field.
func NewOracleSelector(net *underlay.Network, join, source bool) *OracleSelector {
	return &OracleSelector{O: oracle.New(net), Join: join, Source: source}
}

func (s *OracleSelector) Rank(client *underlay.Host, candidates []underlay.HostID) ([]underlay.HostID, bool) {
	if !s.Join {
		return nil, false
	}
	return s.O.Rank(client, candidates), true
}

func (s *OracleSelector) SelectSource(client *underlay.Host, holders []underlay.HostID) (underlay.HostID, bool) {
	if !s.Source {
		return 0, false
	}
	return s.O.Best(client, holders)
}

// ResourceSelector answers peer-resources verbs from a resource table
// (§2.3): capability scores for super-peer election, upload bandwidth for
// scheduling budgets, and — when WeightParents is set — capacity-weighted
// parent selection for streaming meshes.
type ResourceSelector struct {
	NoPreference
	Table *resources.Table
	// WeightParents makes Weight answer, turning on bandwidth-aware
	// parent selection; Bandwidth always answers.
	WeightParents bool
}

var _ Selector = (*ResourceSelector)(nil)

// Capability is a host's aggregate capacity score (higher = better).
func (s *ResourceSelector) Capability(h *underlay.Host) (float64, bool) {
	return s.Table.Get(h.ID).Score(), true
}

func (s *ResourceSelector) Bandwidth(h *underlay.Host) (float64, bool) {
	return s.Table.Get(h.ID).UpKbps, true
}

func (s *ResourceSelector) Weight(h *underlay.Host) (float64, bool) {
	if !s.WeightParents {
		return 0, false
	}
	return s.Table.Get(h.ID).UpKbps, true
}

// ElectSuperPeer returns the first host with the strictly highest
// capability score, so election is deterministic for equal scores.
func (s *ResourceSelector) ElectSuperPeer(group []*underlay.Host) (*underlay.Host, bool) {
	if len(group) == 0 {
		return nil, false
	}
	best := group[0]
	bestScore, _ := s.Capability(best)
	for _, h := range group[1:] {
		if sc, _ := s.Capability(h); sc > bestScore {
			best, bestScore = h, sc
		}
	}
	return best, true
}

// GeoSelector answers Position with the host's ground-truth coordinates —
// the GPS-fix collection method (§3.3) with perfect accuracy. Wrap or
// replace it to model mapping-service error.
type GeoSelector struct {
	NoPreference
}

var _ Selector = (*GeoSelector)(nil)

func (GeoSelector) Position(h *underlay.Host) (geo.Coord, bool) {
	return geo.Coord{Lat: h.Lat, Lon: h.Lon}, true
}

// FuncEstimator adapts a pure cost function into an Estimator so
// closure-style proximity sources (true RTT, coordinate prediction,
// haversine distance) compose with the Engine — and therefore gain the
// score cache and overhead accounting for free. Overhead counts
// evaluations: each call is one (simulated) measurement or lookup, and
// cache hits avoid it.
type FuncEstimator struct {
	K Kind
	M Method
	F func(client, peer *underlay.Host) (float64, bool)

	evals uint64
}

var _ Estimator = (*FuncEstimator)(nil)

func (f *FuncEstimator) Kind() Kind     { return f.K }
func (f *FuncEstimator) Method() Method { return f.M }

func (f *FuncEstimator) Estimate(client, peer *underlay.Host) (float64, bool) {
	f.evals++
	return f.F(client, peer)
}

func (f *FuncEstimator) Overhead() uint64 { return f.evals }

// FuncSelector wraps a single pure cost function as an EngineSelector
// (weight 1, so scores equal the function's values exactly).
func FuncSelector(net *underlay.Network, k Kind, m Method,
	f func(client, peer *underlay.Host) (float64, bool)) *EngineSelector {
	return NewEngineSelector(NewEngine().Add(&FuncEstimator{K: k, M: m, F: f}, 1), net)
}

// RTTSelector ranks by true round-trip time — explicit measurement
// (§3.2) with ground-truth answers and no probe traffic; use
// RTTEstimator instead to charge per-probe bytes.
func RTTSelector(net *underlay.Network) *EngineSelector {
	return FuncSelector(net, Latency, ExplicitMeasurement,
		func(a, b *underlay.Host) (float64, bool) {
			return float64(net.RTT(a, b)), true
		})
}

// ASHopSelector ranks by BGP AS-hop distance (same AS = cost 0), the ISP
// metric space oracles answer from; unreachable pairs have no answer.
func ASHopSelector(net *underlay.Network) *EngineSelector {
	return FuncSelector(net, ISPLocation, IPToISPMapping,
		func(a, b *underlay.Host) (float64, bool) {
			d := net.ASHops(a.AS.ID, b.AS.ID)
			if d < 0 {
				return 0, false
			}
			return float64(d), true
		})
}

// GeoDistanceSelector ranks by great-circle distance between ground-truth
// positions (§3.3).
func GeoDistanceSelector(net *underlay.Network) *EngineSelector {
	return FuncSelector(net, Geolocation, GPS,
		func(a, b *underlay.Host) (float64, bool) {
			return geo.Haversine(geo.Coord{Lat: a.Lat, Lon: a.Lon},
				geo.Coord{Lat: b.Lat, Lon: b.Lon}), true
		})
}

// CapacitySelector ranks by descending capability score from a resource
// table — the peer-resources usage of §4.4 as a ranking.
func CapacitySelector(net *underlay.Network, table *resources.Table) *EngineSelector {
	return FuncSelector(net, PeerResources, InfoManagementOverlay,
		func(_, peer *underlay.Host) (float64, bool) {
			return -table.Get(peer.ID).Score(), true
		})
}
