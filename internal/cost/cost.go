// Package cost models ISP economics: paid transit billed at the 95th
// percentile of traffic samples ("charge … based on the peak rate measured
// using samples over a month's time", §2.1 / Norton) and settlement-free
// peering with a flat link-maintenance fee. It reproduces the cost
// relations of Figure 2: transit total cost grows linearly with traffic at
// an almost fixed price per Mbps, while peering's total cost is constant
// so its cost per Mbps is inversely proportional to exchanged traffic.
package cost

import (
	"fmt"
	"sort"

	"unap2p/internal/sim"
	"unap2p/internal/underlay"
)

// TransitContract bills the customer at PricePerMbps times the 95th
// percentile of its traffic-rate samples.
type TransitContract struct {
	// PricePerMbps is the monthly charge per Mbps of billable rate.
	PricePerMbps float64
}

// Bill returns the monthly charge for the given per-interval rate samples
// in Mbps: pure usage billing, with no committed minimum rate.
func (c TransitContract) Bill(samplesMbps []float64) float64 {
	return Percentile(samplesMbps, 0.95) * c.PricePerMbps
}

// PeeringContract is a settlement-free interconnect: each party pays a
// flat monthly fee to maintain the port/cross-connect, independent of
// traffic.
type PeeringContract struct {
	// MonthlyFee is the flat cost of keeping the link up.
	MonthlyFee float64
}

// Bill returns the flat monthly fee regardless of traffic.
func (c PeeringContract) Bill(_ []float64) float64 { return c.MonthlyFee }

// Percentile returns the q-quantile of samples by the nearest-rank method
// (the convention transit billing uses: sort the samples, drop the top
// (1−q) share, bill the highest remaining).
func Percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	rank := int(float64(len(s))*q+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// Point is one sample of a cost curve.
type Point struct {
	TrafficMbps float64
	TotalCost   float64
	PerMbps     float64
}

// TransitCurve evaluates the transit cost model over a range of steady
// traffic levels: total cost rises ∝ traffic, per-Mbps cost is flat.
func TransitCurve(trafficMbps []float64, c TransitContract) []Point {
	out := make([]Point, len(trafficMbps))
	for i, tr := range trafficMbps {
		total := c.Bill([]float64{tr})
		per := 0.0
		if tr > 0 {
			per = total / tr
		}
		out[i] = Point{TrafficMbps: tr, TotalCost: total, PerMbps: per}
	}
	return out
}

// PeeringCurve evaluates the peering cost model: total cost is flat, so
// per-Mbps cost falls as 1/traffic.
func PeeringCurve(trafficMbps []float64, c PeeringContract) []Point {
	out := make([]Point, len(trafficMbps))
	for i, tr := range trafficMbps {
		total := c.Bill(nil)
		per := 0.0
		if tr > 0 {
			per = total / tr
		}
		out[i] = Point{TrafficMbps: tr, TotalCost: total, PerMbps: per}
	}
	return out
}

// Report summarizes what every ISP in a network pays, given contracts and
// the links' byte counts. Transit links are paid by the customer (link.A);
// peering links cost each side the flat fee.
type Report struct {
	// PerAS maps AS id → total monthly cost.
	PerAS map[int]float64
	// TransitTotal and PeeringTotal split the network-wide spend.
	TransitTotal, PeeringTotal float64
}

// BillNetwork computes a cost report. Each transit link bills its
// average rate, derived from its total bytes over the elapsed time (and
// nothing when elapsed is 0).
func BillNetwork(net *underlay.Network, tc TransitContract, pc PeeringContract, elapsed sim.Duration) Report {
	rep := Report{PerAS: make(map[int]float64)}
	for _, l := range net.Links() {
		switch l.Kind {
		case underlay.Transit:
			var samples []float64
			if elapsed > 0 {
				avg := float64(l.Bytes()) * 8 / 1e6 / (float64(elapsed) / 1000)
				samples = []float64{avg}
			}
			bill := tc.Bill(samples)
			rep.PerAS[l.A.ID] += bill // customer pays
			rep.TransitTotal += bill
		case underlay.Peering:
			fee := pc.Bill(nil)
			rep.PerAS[l.A.ID] += fee
			rep.PerAS[l.B.ID] += fee
			rep.PeeringTotal += 2 * fee
		}
	}
	return rep
}

func (r Report) String() string {
	return fmt.Sprintf("cost transit=%.2f peering=%.2f total=%.2f",
		r.TransitTotal, r.PeeringTotal, r.TransitTotal+r.PeeringTotal)
}
