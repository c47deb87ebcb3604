// Package core is unap2p's primary contribution: the general underlay-
// awareness framework the paper calls for in its conclusion ("the
// development of a general architecture for underlay awareness in which
// different underlay information can be collected and used … an underlay
// awareness framework is the definitive next step").
//
// The framework has three layers:
//
//   - Kind — the four classes of underlay information of §2
//     (ISP-location, latency, geolocation, peer resources);
//   - Method — the collection-technique taxonomy of Figure 3, each method
//     realized by an Estimator wrapping one of the substrate packages
//     (ipmap, oracle, cdn, coords, geo, skyeye);
//   - Engine — the usage layer of §4: estimators are combined with
//     weights and drive neighbor selection, source selection, and
//     super-peer election for any overlay.
//
// On top of the Engine sits the Selector interface (selector.go): the
// uniform control plane every overlay accepts at construction, exactly as
// overlays take a *transport.Transport for the data plane. A Selector
// answers ranking, source-selection, super-peer election, pairwise
// proximity, bandwidth lookups, and geographic positions — each verb with
// an ok flag so an overlay keeps its underlay-unaware default when the
// selector has no preference.
//
// Two cross-cutting services complete the control plane:
//
//   - a memoized per-(client, peer) score cache (cache.go), a FIFO of
//     configurable capacity, so repeated ranking in floods, lookups, and
//     tracker responses stops re-querying estimators;
//   - unified overhead accounting (RouteOverhead): estimator Overhead()
//     deltas are routed into metrics counters next to the transport's
//     per-message-type counters, so experiments measure the collection
//     cost of the awareness the overlays actually use.
package core

import (
	"fmt"
	"slices"

	"unap2p/internal/metrics"
	"unap2p/internal/underlay"
)

// Kind classifies underlay information (§2).
type Kind int

const (
	// ISPLocation identifies the ISP a peer connects through (§2.1).
	ISPLocation Kind = iota
	// Latency is packet delay between peers (§2.2).
	Latency
	// Geolocation is the peer's geographic position (§2.4).
	Geolocation
	// PeerResources are peer capability parameters (§2.3).
	PeerResources
)

func (k Kind) String() string {
	switch k {
	case ISPLocation:
		return "ISP-location"
	case Latency:
		return "latency"
	case Geolocation:
		return "geolocation"
	case PeerResources:
		return "peer-resources"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Method is a collection technique from the taxonomy of Figure 3.
type Method int

const (
	// IPToISPMapping resolves IPs through a registry database (§3.1).
	IPToISPMapping Method = iota
	// ISPComponent queries an ISP-operated oracle (§3.1).
	ISPComponent
	// CDNProvided infers locality from CDN redirections (§3.1).
	CDNProvided
	// ExplicitMeasurement pings/traceroutes peers directly (§3.2).
	ExplicitMeasurement
	// PredictionMethod embeds peers in a coordinate space (§3.2).
	PredictionMethod
	// GPS uses a satellite positioning fix (§3.3).
	GPS
	// IPToLocationMapping resolves IPs to rough locations (§3.3).
	IPToLocationMapping
	// InfoManagementOverlay aggregates peer statistics over an
	// over-overlay (§3.4).
	InfoManagementOverlay
)

func (m Method) String() string {
	switch m {
	case IPToISPMapping:
		return "IP-to-ISP mapping service"
	case ISPComponent:
		return "ISP component in network"
	case CDNProvided:
		return "CDN-provided information"
	case ExplicitMeasurement:
		return "explicit measurement"
	case PredictionMethod:
		return "prediction method"
	case GPS:
		return "GPS"
	case IPToLocationMapping:
		return "IP-to-location mapping service"
	case InfoManagementOverlay:
		return "information management overlay"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Taxonomy returns the full Figure 3 classification: every kind with its
// collection methods, in declaration order.
func Taxonomy() map[Kind][]Method {
	return map[Kind][]Method{
		ISPLocation:   {IPToISPMapping, ISPComponent, CDNProvided},
		Latency:       {ExplicitMeasurement, PredictionMethod},
		Geolocation:   {GPS, IPToLocationMapping},
		PeerResources: {InfoManagementOverlay},
	}
}

// Estimator is one collection technique made queryable: it estimates a
// proximity/suitability cost between a client and a candidate peer.
// Lower is better; ok=false means the technique has no answer for this
// pair (missing mapping, no coordinate yet, …).
type Estimator interface {
	// Kind reports which underlay information the estimator provides.
	Kind() Kind
	// Method reports the collection technique.
	Method() Method
	// Estimate returns the cost of preferring peer from client's view.
	Estimate(client, peer *underlay.Host) (cost float64, ok bool)
	// Overhead reports the cumulative collection cost (probes, queries,
	// messages) this estimator has incurred.
	Overhead() uint64
}

// Engine combines estimators into a ranking usable by any overlay — the
// usage layer of §4.
type Engine struct {
	estimators []Estimator
	weights    []float64
	// MissPenalty is the cost assumed when an estimator has no answer
	// (keeps unknown peers comparable instead of unrankable).
	MissPenalty float64

	// cache memoizes Score results per (client, peer) pair; nil until
	// EnableCache. See cache.go.
	cache *scoreCache
	// routed receives per-method overhead counters; nil until
	// RouteOverhead. overhead holds, per estimator, the counter and the
	// cumulative Overhead at the previous flush so only deltas are added.
	routed   *metrics.CounterSet
	overhead []overheadRoute
	// ranked is Rank's scoring scratch, reused across calls (an Engine is
	// driven by one goroutine, as its cache and estimators already demand).
	ranked []scored
}

// scored pairs a Rank candidate with its score.
type scored struct {
	id    underlay.HostID
	score float64
}

// NewEngine returns an empty engine with a miss penalty of 1.
func NewEngine() *Engine { return &Engine{MissPenalty: 1} }

// Add registers an estimator with a weight (>0). Returns the engine for
// chaining.
func (e *Engine) Add(est Estimator, weight float64) *Engine {
	if weight <= 0 {
		panic("core: estimator weight must be positive")
	}
	e.estimators = append(e.estimators, est)
	e.weights = append(e.weights, weight)
	return e
}

// Estimators returns the registered estimators.
func (e *Engine) Estimators() []Estimator { return e.estimators }

// Score returns the weighted cost of peer for client. Each estimator's
// cost is used as-is (callers choose commensurable weights); misses incur
// MissPenalty.
func (e *Engine) Score(client, peer *underlay.Host) float64 {
	if len(e.estimators) == 0 {
		panic("core: Score on empty engine")
	}
	if e.cache != nil {
		if s, ok := e.cache.get(client.ID, peer.ID); ok {
			return s
		}
	}
	var total float64
	for i, est := range e.estimators {
		c, ok := est.Estimate(client, peer)
		if !ok {
			c = e.MissPenalty
		}
		total += e.weights[i] * c
	}
	if e.routed != nil {
		e.flushOverhead()
	}
	if e.cache != nil {
		e.cache.put(client.ID, peer.ID, total)
	}
	return total
}

// Rank orders candidates by ascending score, stably (ties keep input
// order). The input is not modified.
func (e *Engine) Rank(client *underlay.Host, candidates []underlay.HostID,
	hostOf func(underlay.HostID) *underlay.Host) []underlay.HostID {
	ranked := e.ranked[:0]
	for _, id := range candidates {
		ranked = append(ranked, scored{id, e.Score(client, hostOf(id))})
	}
	e.ranked = ranked
	slices.SortStableFunc(ranked, func(a, b scored) int {
		switch {
		case a.score < b.score:
			return -1
		case b.score < a.score:
			return 1
		}
		return 0 // also for NaN, which therefore keeps its input position
	})
	out := append([]underlay.HostID(nil), candidates...)
	for i, s := range ranked {
		out[i] = s.id
	}
	return out
}

// TotalOverhead sums the collection overhead across all estimators — the
// "introduced overhead due to underlay awareness" the paper flags as an
// open issue (§5.4).
func (e *Engine) TotalOverhead() uint64 {
	var total uint64
	for _, est := range e.estimators {
		total += est.Overhead()
	}
	return total
}
