package experiments

import (
	"fmt"
	"strings"

	"unap2p/internal/coords"
	"unap2p/internal/cost"
	"unap2p/internal/linalg"
	"unap2p/internal/sim"
	"unap2p/internal/underlay"
)

func init() {
	register("fig1-hierarchy",
		"Figure 1 — Internet hierarchy: transit vs peering links and monetary flow",
		runFig1)
	register("fig2-costs",
		"Figure 2 — cost relations: transit vs peering, total and per-Mbps",
		runFig2)
	register("fig4-ics",
		"Figure 4 — Internet Coordinate System of Lim et al., worked Examples 4/5",
		runFig4)
}

func runFig1(cfg RunConfig) Result {
	res := Result{
		Title:   "Transit-stub hierarchy: routed paths and who pays",
		Headers: []string{"flow", "AS path", "kind sequence", "paying AS(es)"},
	}
	// The canonical Figure 1 shape: two transit ISPs, four local ISPs.
	net := underlay.New()
	t0 := net.AddAS(underlay.TransitISP, 5)
	t1 := net.AddAS(underlay.TransitISP, 5)
	locals := make([]*underlay.AS, 4)
	for i := range locals {
		locals[i] = net.AddAS(underlay.LocalISP, 2)
	}
	net.ConnectPeering(t0, t1, 25)
	net.ConnectTransit(locals[0], t0, 10)
	net.ConnectTransit(locals[1], t0, 10)
	net.ConnectTransit(locals[2], t1, 10)
	net.ConnectTransit(locals[3], t1, 10)
	net.ConnectPeering(locals[0], locals[1], 4)

	flows := [][2]*underlay.AS{
		{locals[0], locals[1]}, // peered neighbors
		{locals[0], locals[2]}, // cross-hierarchy
		{locals[1], t0},        // customer to provider
	}
	for _, f := range flows {
		path := net.ASPath(f[0].ID, f[1].ID)
		var kinds, payers []string
		for i := 0; i+1 < len(path); i++ {
			a, b := net.AS(path[i]), net.AS(path[i+1])
			var link *underlay.Link
			for _, l := range a.Links() {
				if l.Other(a.ID).ID == b.ID {
					link = l
					break
				}
			}
			kinds = append(kinds, link.Kind.String())
			if link.Kind == underlay.Transit {
				payers = append(payers, link.A.Name) // customer pays
			}
		}
		payer := strings.Join(payers, ",")
		if payer == "" {
			payer = "none (settlement-free)"
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%s→%s", f[0].Name, f[1].Name),
			fmt.Sprint(path),
			strings.Join(kinds, ","),
			payer,
		})
	}
	res.Notes = append(res.Notes,
		"paper: money flows from local ISPs up to transit ISPs over transit links (solid arrows in",
		"Figure 1); peering links carry traffic settlement-free. Locality of traffic shifts volume",
		"from the paid transit links to the flat-fee peering links.")
	return res
}

func runFig2(cfg RunConfig) Result {
	res := Result{
		Title:   "Cost vs exchanged traffic for transit and peering links",
		Headers: []string{"traffic (Mbps)", "transit total", "transit $/Mbps", "peering total", "peering $/Mbps"},
	}
	traffic := []float64{10, 20, 50, 100, 200, 500, 1000}
	tc := cost.TransitContract{PricePerMbps: 12}
	pc := cost.PeeringContract{MonthlyFee: 2400}
	tcv := cost.TransitCurve(traffic, tc)
	pcv := cost.PeeringCurve(traffic, pc)
	for i := range traffic {
		res.Rows = append(res.Rows, []string{
			f1(traffic[i]),
			f2(tcv[i].TotalCost), f2(tcv[i].PerMbps),
			f2(pcv[i].TotalCost), f2(pcv[i].PerMbps),
		})
	}
	// Locate the crossover.
	for i := range traffic {
		if pcv[i].PerMbps <= tcv[i].PerMbps {
			res.Notes = append(res.Notes,
				fmt.Sprintf("per-Mbps crossover at %.0f Mbps: above it, peering beats transit.", traffic[i]))
			break
		}
	}
	res.Notes = append(res.Notes,
		"shape: transit $/Mbps is flat and total ∝ traffic; peering total is flat so $/Mbps ∝ 1/traffic",
		"— the Figure 2 relations that make ISPs favour locality and more peering agreements.")
	return res
}

func runFig4(cfg RunConfig) Result {
	res := Result{
		Title:   "ICS beacon calibration and host coordinates (Lim et al. Examples 4/5)",
		Headers: []string{"quantity", "computed", "published"},
	}
	d := linalg.FromRows([][]float64{
		{0, 1, 3, 3},
		{1, 0, 3, 3},
		{3, 3, 0, 1},
		{3, 3, 1, 0},
	})
	ics2, err := coords.BuildICS(d, coords.ICSOptions{Dim: 2})
	if err != nil {
		panic(err)
	}
	xa, _ := ics2.HostCoord([]float64{1, 1, 4, 4})
	xb, _ := ics2.HostCoord([]float64{10, 10, 10, 10})

	add := func(q string, computed, published string) {
		res.Rows = append(res.Rows, []string{q, computed, published})
	}
	add("α (n=2)", f2(ics2.Alpha), "0.6")
	add("c̄1", fmt.Sprintf("[%s, %s]", f2(ics2.BeaconCoords[0][0]), f2(ics2.BeaconCoords[0][1])), "[-2.1, 1.5]")
	add("c̄3", fmt.Sprintf("[%s, %s]", f2(ics2.BeaconCoords[2][0]), f2(ics2.BeaconCoords[2][1])), "[-2.1, -1.5]")
	add("inter-AS beacon distance", f2(ics2.BeaconPredict(0, 2)), "3 (exactly)")
	add("host A coordinate", fmt.Sprintf("[%s, %s]", f2(xa[0]), f2(xa[1])), "[-3, 1.8]")
	add("L2(c̄1, xA)", f2(ics2.Predict(ics2.BeaconCoords[0], xa)), "0.94")
	add("L2(c̄3, xA)", f2(ics2.Predict(ics2.BeaconCoords[2], xa)), "3.42")
	add("host B coordinate", fmt.Sprintf("[%s, %s]", f2(xb[0]), f2(xb[1])), "[-12, 0]")
	add("L2(c̄i, xB)", f2(ics2.Predict(ics2.BeaconCoords[0], xb)), "10.01")

	ics4, err := coords.BuildICS(d, coords.ICSOptions{Dim: 4})
	if err != nil {
		panic(err)
	}
	add("α (n=4)", fmt.Sprintf("%.4f", ics4.Alpha), "0.5927")
	add("L2(c̄1,c̄2) (n=4)", fmt.Sprintf("%.4f", ics4.BeaconPredict(0, 1)), "0.8383")
	add("L2(c̄1,c̄3) (n=4)", fmt.Sprintf("%.4f", ics4.BeaconPredict(0, 2)), "3.0224")

	res.Notes = append(res.Notes,
		"every computed value must match the published one digit-for-digit — the unit tests assert it;",
		"the beacon matrix is the 2-AS scenario of their Example 1 (intra-AS delay 1, inter-AS delay 3).")

	// Second half: ICS on a realistic simulated underlay.
	src := sim.NewSource(cfg.Seed).Fork("fig4")
	net, hosts := transitStub(src, 3, 12, 20, 6, 8)
	rtt := func(i, j int) float64 { return float64(net.RTT(hosts[i], hosts[j])) }
	dm, delaysOf := beacons(rtt, 8, 7)
	icsNet, err := coords.BuildICS(dm, coords.ICSOptions{VarThreshold: 0.95})
	if err != nil {
		panic(err)
	}
	// Median relative prediction error over host pairs.
	coordsOf := make([][]float64, len(hosts))
	for i := range hosts {
		coordsOf[i], _ = icsNet.HostCoord(delaysOf(i))
	}
	var errs []float64
	for i := 0; i < len(hosts); i += 3 {
		for j := i + 1; j < len(hosts); j += 3 {
			actual := rtt(i, j)
			if actual <= 0 {
				continue
			}
			pred := icsNet.Predict(coordsOf[i], coordsOf[j])
			e := pred - actual
			if e < 0 {
				e = -e
			}
			errs = append(errs, e/actual)
		}
	}
	var sum float64
	for _, e := range errs {
		sum += e
	}
	add("simulated-underlay dim (95% variation)", di(icsNet.Dim), "—")
	add("simulated-underlay mean rel. error", f3(sum/float64(len(errs))), "— (prediction quality)")
	return res
}
