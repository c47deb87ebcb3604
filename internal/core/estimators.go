package core

import (
	"unap2p/internal/cdn"
	"unap2p/internal/coords"
	"unap2p/internal/geo"
	"unap2p/internal/ipmap"
	"unap2p/internal/oracle"
	"unap2p/internal/resources"
	"unap2p/internal/underlay"
)

// IPMapEstimator realizes ISP-location awareness through an IP-to-ISP
// mapping service: cost 0 for a same-ISP peer, 1 otherwise; misses when
// the registry cannot resolve either address.
type IPMapEstimator struct {
	Reg     *ipmap.Registry
	lookups uint64
}

// Kind implements Estimator.
func (e *IPMapEstimator) Kind() Kind { return ISPLocation }

// Method implements Estimator.
func (e *IPMapEstimator) Method() Method { return IPToISPMapping }

// Estimate implements Estimator.
func (e *IPMapEstimator) Estimate(client, peer *underlay.Host) (float64, bool) {
	e.lookups += 2
	a, ok1 := e.Reg.ASOf(client.IP)
	b, ok2 := e.Reg.ASOf(peer.IP)
	if !ok1 || !ok2 {
		return 0, false
	}
	if a == b {
		return 0, true
	}
	return 1, true
}

// Overhead implements Estimator.
func (e *IPMapEstimator) Overhead() uint64 { return e.lookups }

// OracleEstimator realizes ISP-location awareness through the ISP's
// oracle: cost is the AS-hop distance the ISP computes from its routing
// tables.
type OracleEstimator struct {
	O *oracle.Oracle
	U *underlay.Network
	// queries counts per-pair estimations; the oracle's own counter
	// tracks full list rankings separately.
	queries uint64
}

// Kind implements Estimator.
func (e *OracleEstimator) Kind() Kind { return ISPLocation }

// Method implements Estimator.
func (e *OracleEstimator) Method() Method { return ISPComponent }

// Estimate implements Estimator.
func (e *OracleEstimator) Estimate(client, peer *underlay.Host) (float64, bool) {
	if e.O.Down {
		return 0, false
	}
	e.queries++
	d := e.U.ASHops(client.AS.ID, peer.AS.ID)
	if d < 0 {
		return 0, false
	}
	return float64(d), true
}

// Overhead implements Estimator.
func (e *OracleEstimator) Overhead() uint64 { return e.queries }

// CDNEstimator realizes ISP-location awareness without any cooperation:
// peers compare their CDN ratio maps (Ono); cost = 1 − cosine similarity.
type CDNEstimator struct {
	// Maps holds each host's observed ratio map; hosts absent from it
	// miss.
	Maps map[underlay.HostID]cdn.RatioMap
	// Observations records the redirections spent building the maps.
	Observations uint64
	compares     uint64
}

// Kind implements Estimator.
func (e *CDNEstimator) Kind() Kind { return ISPLocation }

// Method implements Estimator.
func (e *CDNEstimator) Method() Method { return CDNProvided }

// Estimate implements Estimator.
func (e *CDNEstimator) Estimate(client, peer *underlay.Host) (float64, bool) {
	a, ok1 := e.Maps[client.ID]
	b, ok2 := e.Maps[peer.ID]
	if !ok1 || !ok2 {
		return 0, false
	}
	e.compares++
	return 1 - cdn.Cosine(a, b), true
}

// Overhead implements Estimator.
func (e *CDNEstimator) Overhead() uint64 { return e.Observations + e.compares }

// RTTEstimator realizes latency awareness by explicit measurement: every
// estimate is a real probe pair on the underlay — precise but O(N²) in
// traffic, which is exactly the overhead prediction methods avoid (§3.2).
type RTTEstimator struct {
	U *underlay.Network
	// ProbeBytes is accounted per probe on the underlay.
	ProbeBytes uint64
	probes     uint64
}

// Kind implements Estimator.
func (e *RTTEstimator) Kind() Kind { return Latency }

// Method implements Estimator.
func (e *RTTEstimator) Method() Method { return ExplicitMeasurement }

// Estimate implements Estimator.
func (e *RTTEstimator) Estimate(client, peer *underlay.Host) (float64, bool) {
	if !peer.Up {
		return 0, false
	}
	e.probes++
	bytes := e.ProbeBytes
	if bytes == 0 {
		bytes = 64
	}
	e.U.Send(client, peer, bytes)
	e.U.Send(peer, client, bytes)
	return float64(e.U.RTT(client, peer)), true
}

// Overhead implements Estimator.
func (e *RTTEstimator) Overhead() uint64 { return e.probes * 2 }

// VivaldiEstimator realizes latency awareness by prediction: peers carry
// Vivaldi coordinates; estimation is a local computation with zero
// network cost beyond the gossip that converged the system.
type VivaldiEstimator struct {
	S *coords.VivaldiSystem
	// Index maps hosts to Vivaldi node indices.
	Index map[underlay.HostID]int
}

// Kind implements Estimator.
func (e *VivaldiEstimator) Kind() Kind { return Latency }

// Method implements Estimator.
func (e *VivaldiEstimator) Method() Method { return PredictionMethod }

// Estimate implements Estimator.
func (e *VivaldiEstimator) Estimate(client, peer *underlay.Host) (float64, bool) {
	i, ok1 := e.Index[client.ID]
	j, ok2 := e.Index[peer.ID]
	if !ok1 || !ok2 {
		return 0, false
	}
	return e.S.Predict(i, j), true
}

// Overhead implements Estimator.
func (e *VivaldiEstimator) Overhead() uint64 { return e.S.Probes }

// ICSEstimator realizes latency awareness by the landmark/PCA coordinate
// system of Lim et al.: each host's coordinate came from m beacon
// measurements; estimation is local.
type ICSEstimator struct {
	ICS *coords.ICS
	// Coords maps hosts to their ICS coordinates.
	Coords map[underlay.HostID][]float64
	// Measurements records the beacon probes spent (m per host + m²
	// calibration).
	Measurements uint64
}

// Kind implements Estimator.
func (e *ICSEstimator) Kind() Kind { return Latency }

// Method implements Estimator.
func (e *ICSEstimator) Method() Method { return PredictionMethod }

// Estimate implements Estimator.
func (e *ICSEstimator) Estimate(client, peer *underlay.Host) (float64, bool) {
	a, ok1 := e.Coords[client.ID]
	b, ok2 := e.Coords[peer.ID]
	if !ok1 || !ok2 {
		return 0, false
	}
	return e.ICS.Predict(a, b), true
}

// Overhead implements Estimator.
func (e *ICSEstimator) Overhead() uint64 { return e.Measurements }

// GeoEstimator realizes geolocation awareness: cost is the great-circle
// distance in km between known positions (from GPS fixes or an
// IP-to-location service — the Positions map decides which, and its
// accuracy).
type GeoEstimator struct {
	// Positions holds each host's (possibly noisy) position.
	Positions map[underlay.HostID]geo.Coord
	// Via records which Figure 3 method produced the positions.
	Via Method
	// Fixes records position acquisitions.
	Fixes uint64
}

// Kind implements Estimator.
func (e *GeoEstimator) Kind() Kind { return Geolocation }

// Method implements Estimator.
func (e *GeoEstimator) Method() Method {
	if e.Via == IPToLocationMapping {
		return IPToLocationMapping
	}
	return GPS
}

// Estimate implements Estimator.
func (e *GeoEstimator) Estimate(client, peer *underlay.Host) (float64, bool) {
	a, ok1 := e.Positions[client.ID]
	b, ok2 := e.Positions[peer.ID]
	if !ok1 || !ok2 {
		return 0, false
	}
	return geo.Haversine(a, b), true
}

// Overhead implements Estimator.
func (e *GeoEstimator) Overhead() uint64 { return e.Fixes }

// ResourceEstimator realizes peer-resources awareness via the information
// management overlay's view: cost is the *negated* capability score, so
// ranking prefers the most capable peers (super-peer selection).
type ResourceEstimator struct {
	Table *resources.Table
	// UpdateMsgs records the over-overlay messages spent keeping the
	// table fresh (set by the SkyEye driver).
	UpdateMsgs uint64
}

// Kind implements Estimator.
func (e *ResourceEstimator) Kind() Kind { return PeerResources }

// Method implements Estimator.
func (e *ResourceEstimator) Method() Method { return InfoManagementOverlay }

// Estimate implements Estimator.
func (e *ResourceEstimator) Estimate(_, peer *underlay.Host) (float64, bool) {
	if !peer.Up {
		return 0, false
	}
	return -e.Table.Get(peer.ID).Score(), true
}

// Overhead implements Estimator.
func (e *ResourceEstimator) Overhead() uint64 { return e.UpdateMsgs }
