package cost

import (
	"math"
	"testing"
	"testing/quick"

	"unap2p/internal/sim"
	"unap2p/internal/underlay"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if p := Percentile(s, 0.95); p != 95 {
		t.Fatalf("p95 = %v, want 95", p)
	}
	if p := Percentile(s, 0); p != 1 {
		t.Fatalf("p0 = %v", p)
	}
	if p := Percentile(s, 1); p != 100 {
		t.Fatalf("p100 = %v", p)
	}
	if p := Percentile(nil, 0.95); p != 0 {
		t.Fatalf("empty p95 = %v", p)
	}
	if p := Percentile([]float64{7}, 0.95); p != 7 {
		t.Fatalf("single p95 = %v", p)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	s := []float64{3, 1, 2}
	Percentile(s, 0.5)
	if s[0] != 3 || s[1] != 1 || s[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestTransitBill(t *testing.T) {
	c := TransitContract{PricePerMbps: 10}
	// Peaky series: p95 ignores the single worst spike in 100 samples.
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = 50
	}
	samples[7] = 10000 // one free spike
	samples[13] = 9000
	samples[29] = 8000
	samples[31] = 7000
	samples[77] = 6000
	if b := c.Bill(samples); b != 500 {
		t.Fatalf("bill = %v, want 500 (5 spikes free at p95)", b)
	}
	// Commit floor.
	c.Commit = 100
	if b := c.Bill([]float64{10}); b != 1000 {
		t.Fatalf("commit bill = %v, want 1000", b)
	}
}

func TestPeeringBillFlat(t *testing.T) {
	c := PeeringContract{MonthlyFee: 2000}
	if c.Bill(nil) != 2000 || c.Bill([]float64{1e9}) != 2000 {
		t.Fatal("peering bill must ignore traffic")
	}
}

// TestFig2CostShapes asserts the Figure 2 relations: transit per-Mbps is
// constant and total ∝ traffic; peering total is constant and per-Mbps
// falls as 1/traffic, crossing below transit at high volume.
func TestFig2CostShapes(t *testing.T) {
	traffic := []float64{10, 50, 100, 500, 1000}
	tcurve := TransitCurve(traffic, TransitContract{PricePerMbps: 12})
	pcurve := PeeringCurve(traffic, PeeringContract{MonthlyFee: 2400})

	for i := 1; i < len(tcurve); i++ {
		if tcurve[i].TotalCost <= tcurve[i-1].TotalCost {
			t.Fatal("transit total cost must rise with traffic")
		}
		if math.Abs(tcurve[i].PerMbps-tcurve[0].PerMbps) > 1e-9 {
			t.Fatal("transit per-Mbps must stay fixed")
		}
		if pcurve[i].TotalCost != pcurve[0].TotalCost {
			t.Fatal("peering total must stay flat")
		}
		if pcurve[i].PerMbps >= pcurve[i-1].PerMbps {
			t.Fatal("peering per-Mbps must fall with traffic")
		}
	}
	// Crossover: cheap at high volume, expensive at low volume.
	if pcurve[0].PerMbps <= tcurve[0].PerMbps {
		t.Fatal("peering should cost more per Mbps at low traffic")
	}
	if pcurve[len(traffic)-1].PerMbps >= tcurve[len(traffic)-1].PerMbps {
		t.Fatal("peering should cost less per Mbps at high traffic")
	}
}

func TestCurveZeroTraffic(t *testing.T) {
	tc := TransitCurve([]float64{0}, TransitContract{PricePerMbps: 5})
	pc := PeeringCurve([]float64{0}, PeeringContract{MonthlyFee: 100})
	if tc[0].PerMbps != 0 || pc[0].PerMbps != 0 {
		t.Fatal("per-Mbps at zero traffic must be 0, not Inf")
	}
}

func TestBillNetwork(t *testing.T) {
	net := underlay.New()
	t0 := net.AddAS(underlay.TransitISP, 1)
	l0 := net.AddAS(underlay.LocalISP, 1)
	l1 := net.AddAS(underlay.LocalISP, 1)
	net.ConnectTransit(l0, t0, 10)
	net.ConnectTransit(l1, t0, 10)
	net.ConnectPeering(l0, l1, 3)
	h0 := net.AddHost(l0, 0)
	h2 := net.AddHost(t0, 0)
	net.Send(h0, h2, 10_000_000) // 10 MB over l0's transit link

	rep := BillNetwork(net,
		TransitContract{PricePerMbps: 10},
		PeeringContract{MonthlyFee: 50},
		10*sim.Second)
	// avg rate = 10MB*8/1e6/10s = 8 Mbps → bill 80 for l0; l1's transit idle → 0.
	if math.Abs(rep.PerAS[l0.ID]-(80+50)) > 1e-9 {
		t.Fatalf("l0 pays %v, want 130", rep.PerAS[l0.ID])
	}
	if math.Abs(rep.PerAS[l1.ID]-50) > 1e-9 {
		t.Fatalf("l1 pays %v, want 50 (peering only)", rep.PerAS[l1.ID])
	}
	if rep.PerAS[t0.ID] != 0 {
		t.Fatalf("provider pays %v, want 0", rep.PerAS[t0.ID])
	}
	if math.Abs(rep.TransitTotal-80) > 1e-9 || rep.PeeringTotal != 100 {
		t.Fatalf("totals = %v", rep)
	}
	// No elapsed time, no rate: transit bills the commit floor only.
	rep = BillNetwork(net, TransitContract{PricePerMbps: 10, Commit: 2}, PeeringContract{MonthlyFee: 50}, 0)
	if rep.TransitTotal != 2*2*10 || rep.PeeringTotal != 100 {
		t.Fatalf("zero-elapsed totals = %v, want transit 40 (two commits), peering 100", rep)
	}
}

// Property: percentile is monotone in q and bounded by min/max.
func TestQuickPercentileBounds(t *testing.T) {
	f := func(raw []uint16, qa, qb uint8) bool {
		if len(raw) == 0 {
			return true
		}
		s := make([]float64, len(raw))
		mn, mx := math.Inf(1), math.Inf(-1)
		for i, v := range raw {
			s[i] = float64(v)
			mn = math.Min(mn, s[i])
			mx = math.Max(mx, s[i])
		}
		q1 := float64(qa%101) / 100
		q2 := float64(qb%101) / 100
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		p1, p2 := Percentile(s, q1), Percentile(s, q2)
		return p1 <= p2 && p1 >= mn && p2 <= mx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
