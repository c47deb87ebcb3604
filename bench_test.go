// Benchmark harness: one benchmark per table/figure of the paper (and of
// the primary-source artifacts it reprints). Each benchmark regenerates
// the artifact at a reduced scale and reports the headline quantity as a
// custom metric, so `go test -bench=. -benchmem` doubles as a full
// reproduction sweep. Run `go run ./cmd/unapctl run -all` for the
// full-scale tables.
package unap2p_test

import (
	"strconv"
	"strings"
	"testing"

	"unap2p/internal/experiments"
)

// benchCfg uses a reduced scale so the full sweep stays fast; seeds are
// fixed for comparability across runs.
func benchCfg() experiments.RunConfig {
	return experiments.RunConfig{Seed: 1, Scale: 0.5}
}

func runExp(b *testing.B, id string) experiments.Result {
	b.Helper()
	var res experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Run(id, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

// num parses the leading number out of a table cell.
func num(b *testing.B, s string) float64 {
	b.Helper()
	s = strings.TrimSuffix(strings.TrimSpace(s), "%")
	if i := strings.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("cell %q: %v", s, err)
	}
	return v
}

// BenchmarkFig1Hierarchy regenerates Figure 1: routed paths over the
// transit/peering hierarchy and who pays for them.
func BenchmarkFig1Hierarchy(b *testing.B) {
	res := runExp(b, "fig1-hierarchy")
	b.ReportMetric(float64(len(res.Rows)), "flows")
}

// BenchmarkFig2Costs regenerates Figure 2: the transit vs peering cost
// curves; the reported metric is the per-Mbps crossover traffic level.
func BenchmarkFig2Costs(b *testing.B) {
	res := runExp(b, "fig2-costs")
	for _, row := range res.Rows {
		if num(b, row[4]) <= num(b, row[2]) {
			b.ReportMetric(num(b, row[0]), "crossover-Mbps")
			return
		}
	}
	b.Fatal("no crossover found")
}

// BenchmarkFig3Taxonomy instantiates every collection method of Figure 3.
func BenchmarkFig3Taxonomy(b *testing.B) {
	res := runExp(b, "fig3-taxonomy")
	b.ReportMetric(float64(len(res.Rows)), "methods")
}

// BenchmarkFig4ICS regenerates the Lim et al. worked examples behind
// Figure 4; the metric is the calibrated scaling factor α (paper: 0.6).
func BenchmarkFig4ICS(b *testing.B) {
	res := runExp(b, "fig4-ics")
	for _, row := range res.Rows {
		if row[0] == "α (n=2)" {
			b.ReportMetric(num(b, row[1]), "alpha")
			return
		}
	}
	b.Fatal("alpha row missing")
}

// BenchmarkFig5BiasedTopology regenerates Figures 5/6: the intra-AS edge
// share of the oracle-biased Gnutella overlay (unbiased stays < 5%).
func BenchmarkFig5BiasedTopology(b *testing.B) {
	res := runExp(b, "fig5-overlay-viz")
	b.ReportMetric(num(b, res.Rows[0][1]), "unbiased-intra-%")
	b.ReportMetric(num(b, res.Rows[1][1]), "biased-intra-%")
}

// BenchmarkTab1GnutellaMessages regenerates Table 1 of Aggarwal et al.;
// the metric is the Query-message reduction of biased(cache 1000) vs
// unbiased (paper: 6.3M → 2.3M ≈ 63%).
func BenchmarkTab1GnutellaMessages(b *testing.B) {
	res := runExp(b, "tab1-gnutella-msgs")
	for _, row := range res.Rows {
		if row[0] == "Query" {
			u, bi := num(b, row[1]), num(b, row[3])
			b.ReportMetric(100*(u-bi)/u, "query-reduction-%")
			return
		}
	}
	b.Fatal("query row missing")
}

// BenchmarkIntraASExchange regenerates the intra-AS file-exchange series
// (paper: 6.5% → 7.3% → 10.02% → 40.57%).
func BenchmarkIntraASExchange(b *testing.B) {
	res := runExp(b, "exp-intra-as")
	b.ReportMetric(num(b, res.Rows[0][1]), "unbiased-%")
	b.ReportMetric(num(b, res.Rows[len(res.Rows)-1][1]), "join+exchange-%")
}

// BenchmarkTestlab regenerates the §5 testlab study; the metric is the
// total number of searches that failed under the oracle across all cells
// (paper: biasing caused no extra failures).
func BenchmarkTestlab(b *testing.B) {
	res := runExp(b, "exp-testlab")
	var failed float64
	for _, row := range res.Rows {
		if row[2] == "oracle" {
			failed += num(b, row[5])
		}
	}
	b.ReportMetric(failed, "oracle-failed-searches")
}

// BenchmarkTab1Systems smoke-runs the Table 1 system inventory.
func BenchmarkTab1Systems(b *testing.B) {
	res := runExp(b, "tab1-systems")
	b.ReportMetric(float64(len(res.Rows)), "systems")
}

// BenchmarkTab2Impact regenerates the Table 2 impact matrix; the metric
// counts matrix cells with a measurable (non-"o") improvement.
func BenchmarkTab2Impact(b *testing.B) {
	res := runExp(b, "tab2-impact")
	var improved float64
	for _, row := range res.Rows {
		for _, cell := range row[2:] {
			if cell == "+" || cell == "++" {
				improved++
			}
		}
	}
	b.ReportMetric(improved, "improved-cells")
}

// BenchmarkChallenges regenerates the §6 challenge quantification; the
// metric is the long-hop inversion rate.
func BenchmarkChallenges(b *testing.B) {
	res := runExp(b, "exp-challenges")
	cell := res.Rows[2][2] // "x/y (p%)"
	open := strings.Index(cell, "(")
	close := strings.Index(cell, "%")
	v, err := strconv.ParseFloat(cell[open+1:close], 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(v, "longhop-inversion-%")
}

// BenchmarkBNSSwarm regenerates the Bindal et al. swarm comparison; the
// metric is the inter-AS traffic reduction.
func BenchmarkBNSSwarm(b *testing.B) {
	res := runExp(b, "exp-bns-swarm")
	u, bi := num(b, res.Rows[0][1]), num(b, res.Rows[1][1])
	b.ReportMetric(100*(u-bi)/u, "interAS-reduction-%")
}

// BenchmarkPNSKademlia regenerates the Kaune et al. comparison; the
// metric is the lookup-latency reduction.
func BenchmarkPNSKademlia(b *testing.B) {
	res := runExp(b, "exp-pns-kademlia")
	plain, pns := num(b, res.Rows[0][2]), num(b, res.Rows[1][2])
	b.ReportMetric(100*(plain-pns)/plain, "latency-reduction-%")
}

// BenchmarkGeoSearch regenerates the zone-tree search-cost series; the
// metric is the pruning ratio of a 50 km query vs a full scan.
func BenchmarkGeoSearch(b *testing.B) {
	res := runExp(b, "exp-geo-search")
	visited, full := num(b, res.Rows[0][2]), num(b, res.Rows[0][4])
	b.ReportMetric(full/visited, "pruning-x")
}

// BenchmarkSkyEye regenerates the over-overlay statistics collection; the
// metric is update messages per peer per epoch (≈1.3 for arity 4).
func BenchmarkSkyEye(b *testing.B) {
	res := runExp(b, "exp-skyeye")
	var msgs, peers float64
	for _, row := range res.Rows {
		if row[0] == "update messages per epoch" {
			msgs = num(b, row[1])
		}
		if strings.HasPrefix(row[0], "peers (") {
			peers = num(b, strings.Split(row[1], "/")[0])
		}
	}
	b.ReportMetric(msgs/peers, "msgs/peer/epoch")
}

// BenchmarkAblCoords runs the latency-technique ablation; the metric is
// Vivaldi's median relative error.
func BenchmarkAblCoords(b *testing.B) {
	res := runExp(b, "abl-coords")
	for _, row := range res.Rows {
		if strings.HasPrefix(row[0], "Vivaldi") {
			b.ReportMetric(num(b, row[1]), "vivaldi-mre")
			return
		}
	}
	b.Fatal("vivaldi row missing")
}

// BenchmarkAblExternalLinks runs the connectivity/locality ablation; the
// metric is the component count at zero external links (must be > 1 —
// the partitioning hazard).
func BenchmarkAblExternalLinks(b *testing.B) {
	res := runExp(b, "abl-external-links")
	b.ReportMetric(num(b, res.Rows[0][2]), "components-at-0-external")
}

// BenchmarkAblICSDim runs the ICS dimension ablation; the metric is the
// dimension chosen at the 95% variation threshold.
func BenchmarkAblICSDim(b *testing.B) {
	res := runExp(b, "abl-ics-dim")
	for _, note := range res.Notes {
		if strings.Contains(note, "picks dimension") {
			fields := strings.Fields(note)
			v, err := strconv.ParseFloat(strings.TrimSuffix(fields[len(fields)-1], ";"), 64)
			if err == nil {
				b.ReportMetric(v, "chosen-dim")
				return
			}
		}
	}
	b.Fatal("dimension note missing")
}

// BenchmarkGSHLeopard regenerates the Leopard comparison; the metric is
// the hot-spot relief factor (global max load / scoped max load).
func BenchmarkGSHLeopard(b *testing.B) {
	res := runExp(b, "exp-gsh-leopard")
	b.ReportMetric(num(b, res.Rows[0][4])/num(b, res.Rows[1][4]), "hotspot-relief-x")
}

// BenchmarkSuperPeer regenerates the super-peer stability comparison; the
// metric is the ultrapeer-failure reduction.
func BenchmarkSuperPeer(b *testing.B) {
	res := runExp(b, "exp-superpeer")
	r, a := num(b, res.Rows[0][1]), num(b, res.Rows[1][1])
	b.ReportMetric(100*(r-a)/r, "up-failure-reduction-%")
}

// BenchmarkMobility regenerates the staleness study; the metric is the
// wrong-ISP fraction at the horizon.
func BenchmarkMobility(b *testing.B) {
	res := runExp(b, "exp-mobility")
	b.ReportMetric(num(b, res.Rows[len(res.Rows)-1][1]), "stale-ISP-%")
}

// BenchmarkOracleTrust regenerates the trust study; the metric is the
// RTT penalty of a malicious oracle vs no oracle.
func BenchmarkOracleTrust(b *testing.B) {
	res := runExp(b, "exp-oracle-trust")
	var unb, mal float64
	for _, row := range res.Rows {
		if strings.HasPrefix(row[0], "no oracle") {
			unb = num(b, row[2])
		}
		if strings.HasPrefix(row[0], "malicious") {
			mal = num(b, row[2])
		}
	}
	b.ReportMetric(100*(mal-unb)/unb, "malicious-rtt-penalty-%")
}

// BenchmarkPongCache regenerates the discovery ablation; the metric is
// the byte reduction factor.
func BenchmarkPongCache(b *testing.B) {
	res := runExp(b, "abl-pong-cache")
	b.ReportMetric(num(b, res.Rows[0][3])/num(b, res.Rows[1][3]), "byte-reduction-x")
}

// BenchmarkPNSMetric regenerates the proximity-source ablation; the
// metric is explicit-RTT PNS's latency gain.
func BenchmarkPNSMetric(b *testing.B) {
	res := runExp(b, "abl-pns-metric")
	b.ReportMetric(num(b, res.Rows[1][3]), "explicit-gain-%")
}

// BenchmarkTopologyMatching regenerates the LTM adaptation study; the
// metric is the mean-neighbor-RTT reduction after convergence.
func BenchmarkTopologyMatching(b *testing.B) {
	res := runExp(b, "exp-topology-matching")
	start := num(b, res.Rows[0][2])
	var final float64
	for _, row := range res.Rows {
		if strings.HasPrefix(row[0], "after") {
			final = num(b, row[2])
		}
	}
	b.ReportMetric(100*(start-final)/start, "rtt-reduction-%")
}

// BenchmarkStreaming regenerates the P2P-TV comparison; the metric is the
// worst-peer continuity gain of bandwidth-aware scheduling.
func BenchmarkStreaming(b *testing.B) {
	res := runExp(b, "exp-streaming")
	b.ReportMetric(num(b, res.Rows[1][2])-num(b, res.Rows[0][2]), "worst-continuity-gain-pp")
}

// BenchmarkChordPNS regenerates the proximity-in-DHTs comparison; the
// metric is the per-hop latency reduction.
func BenchmarkChordPNS(b *testing.B) {
	res := runExp(b, "exp-chord-pns")
	classic, pns := num(b, res.Rows[0][3]), num(b, res.Rows[1][3])
	b.ReportMetric(100*(classic-pns)/classic, "perhop-latency-reduction-%")
}

// BenchmarkOverhead regenerates the §5.4 overhead/benefit frontier; the
// metric is explicit measurement's RTT gain over random selection.
func BenchmarkOverhead(b *testing.B) {
	res := runExp(b, "exp-overhead")
	for _, row := range res.Rows {
		if strings.Contains(row[0], "explicit") {
			b.ReportMetric(num(b, row[4]), "explicit-rtt-gain-%")
			return
		}
	}
	b.Fatal("explicit row missing")
}

// BenchmarkBrocade regenerates the landmark-routing comparison; the
// metric is the flat DHT's mean inter-AS crossings (landmark = 1 by
// construction).
func BenchmarkBrocade(b *testing.B) {
	res := runExp(b, "exp-brocade")
	b.ReportMetric(num(b, res.Rows[0][2]), "flat-interAS-crossings")
}
