package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// testCfg keeps experiment tests quick but statistically meaningful.
func testCfg() RunConfig { return RunConfig{Seed: 1, Scale: 0.5} }

// cell parses a numeric table cell ("25.06%", "1219.0", "42").
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSpace(s), "%")
	// Strip trailing annotations like "12/80 (15.00)".
	if i := strings.Index(s, " "); i > 0 {
		s = s[:i]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cannot parse cell %q: %v", s, err)
	}
	return v
}

func mustRun(t *testing.T, id string, cfg RunConfig) Result {
	t.Helper()
	r, err := Run(id, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != id || len(r.Rows) == 0 || len(r.Headers) == 0 {
		t.Fatalf("experiment %s returned empty result", id)
	}
	for _, row := range r.Rows {
		if len(row) != len(r.Headers) {
			t.Fatalf("%s: row width %d != headers %d", id, len(row), len(r.Headers))
		}
	}
	if r.Render() == "" {
		t.Fatalf("%s: empty render", id)
	}
	return r
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) < 12 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	for _, id := range ids {
		if TitleOf(id) == "" {
			t.Fatalf("experiment %s has no title", id)
		}
	}
	if _, err := Run("no-such-exp", RunConfig{Seed: 1, Scale: 1}); err == nil {
		t.Fatal("unknown experiment did not error")
	}
}

func TestFig1Hierarchy(t *testing.T) {
	r := mustRun(t, "fig1-hierarchy", testCfg())
	// The peering flow must be settlement-free; the cross flow must cross
	// the transit core with both locals paying.
	if !strings.Contains(r.Rows[0][3], "settlement-free") {
		t.Fatalf("peered flow payer = %q", r.Rows[0][3])
	}
	if !strings.Contains(r.Rows[1][2], "transit,peering,transit") {
		t.Fatalf("cross flow kinds = %q", r.Rows[1][2])
	}
}

func TestFig2CostShapes(t *testing.T) {
	r := mustRun(t, "fig2-costs", testCfg())
	for i := 1; i < len(r.Rows); i++ {
		if cell(t, r.Rows[i][1]) <= cell(t, r.Rows[i-1][1]) {
			t.Fatal("transit total must rise")
		}
		if cell(t, r.Rows[i][2]) != cell(t, r.Rows[i-1][2]) {
			t.Fatal("transit per-Mbps must be flat")
		}
		if cell(t, r.Rows[i][4]) >= cell(t, r.Rows[i-1][4]) {
			t.Fatal("peering per-Mbps must fall")
		}
	}
	// Crossover note present.
	found := false
	for _, n := range r.Notes {
		if strings.Contains(n, "crossover") {
			found = true
		}
	}
	if !found {
		t.Fatal("no crossover note")
	}
}

func TestFig3TaxonomyComplete(t *testing.T) {
	r := mustRun(t, "fig3-taxonomy", testCfg())
	if len(r.Rows) < 8 {
		t.Fatalf("only %d estimator rows", len(r.Rows))
	}
	for _, n := range r.Notes {
		if strings.Contains(n, "8/8") {
			return
		}
	}
	t.Fatal("taxonomy coverage incomplete")
}

func TestFig4ICSMatchesPublished(t *testing.T) {
	r := mustRun(t, "fig4-ics", testCfg())
	byName := map[string][2]string{}
	for _, row := range r.Rows {
		byName[row[0]] = [2]string{row[1], row[2]}
	}
	if byName["α (n=2)"][0] != "0.60" {
		t.Fatalf("alpha = %q", byName["α (n=2)"][0])
	}
	if byName["α (n=4)"][0] != "0.5927" {
		t.Fatalf("alpha4 = %q", byName["α (n=4)"][0])
	}
	if byName["L2(c̄1,c̄2) (n=4)"][0] != "0.8383" {
		t.Fatalf("l12 = %q", byName["L2(c̄1,c̄2) (n=4)"][0])
	}
	if byName["host A coordinate"][0] != "[-3.00, 1.80]" {
		t.Fatalf("xa = %q", byName["host A coordinate"][0])
	}
}

func TestFig5BiasedClustering(t *testing.T) {
	r := mustRun(t, "fig5-overlay-viz", testCfg())
	unb, bia := r.Rows[0], r.Rows[1]
	if cell(t, bia[1]) <= cell(t, unb[1]) {
		t.Fatal("biased intra-AS edge share must exceed unbiased")
	}
	if cell(t, unb[1]) > 10 {
		t.Fatalf("unbiased intra-AS share %s too high (paper: <5%%)", unb[1])
	}
	if cell(t, bia[4]) != 1 || cell(t, unb[4]) != 1 {
		t.Fatal("overlay must stay connected")
	}
	if cell(t, bia[2]) <= cell(t, unb[2]) {
		t.Fatal("biased modularity must exceed unbiased")
	}
}

func TestTab1MessageCountsDecrease(t *testing.T) {
	r := mustRun(t, "tab1-gnutella-msgs", testCfg())
	for _, row := range r.Rows {
		u, b100, b1000 := cell(t, row[1]), cell(t, row[2]), cell(t, row[3])
		if !(u > b100 && b100 > b1000) {
			t.Fatalf("%s counts not decreasing: %v %v %v", row[0], u, b100, b1000)
		}
	}
	// Pong ≫ Ping.
	var ping, pong float64
	for _, row := range r.Rows {
		if row[0] == "Ping" {
			ping = cell(t, row[1])
		}
		if row[0] == "Pong" {
			pong = cell(t, row[1])
		}
	}
	if pong <= ping {
		t.Fatal("Pong must exceed Ping")
	}
}

func TestIntraASGradient(t *testing.T) {
	r := mustRun(t, "exp-intra-as", testCfg())
	prev := -1.0
	for i, row := range r.Rows {
		v := cell(t, row[1])
		if v <= prev {
			t.Fatalf("row %d intra-AS %v not above previous %v", i, v, prev)
		}
		prev = v
	}
	// The file-exchange-stage row dwarfs the unbiased one (paper: 6.5 → 40.57).
	if cell(t, r.Rows[3][1]) < 2.5*cell(t, r.Rows[0][1]) {
		t.Fatalf("file-exchange stage %s not ≫ unbiased %s", r.Rows[3][1], r.Rows[0][1])
	}
	// Search success stays usable everywhere.
	for _, row := range r.Rows {
		if cell(t, row[3]) < 70 {
			t.Fatalf("search success %s collapsed", row[3])
		}
	}
}

func TestTestlabNoExtraFailures(t *testing.T) {
	r := mustRun(t, "exp-testlab", testCfg())
	// Rows come in (unbiased, oracle) pairs per topology×scheme.
	for i := 0; i+1 < len(r.Rows); i += 2 {
		unb, orc := r.Rows[i], r.Rows[i+1]
		if unb[0] != orc[0] || unb[1] != orc[1] {
			t.Fatalf("row pairing broken at %d", i)
		}
		if cell(t, orc[5]) > cell(t, unb[5]) {
			t.Fatalf("%s/%s: oracle added search failures (%s vs %s)",
				unb[0], unb[1], orc[5], unb[5])
		}
	}
}

func TestTab2ImpactWinners(t *testing.T) {
	r := mustRun(t, "tab2-impact", testCfg())
	rowBy := func(param string) []string {
		for _, row := range r.Rows {
			if row[1] == param {
				return row
			}
		}
		t.Fatalf("row %q missing", param)
		return nil
	}
	rank := map[string]int{"o": 0, "+": 1, "++": 2}
	// Columns: 2=ISP-location, 3=latency, 4=geolocation, 5=peer-resources.
	dl := rowBy("Download time")
	if rank[dl[5]] < rank[dl[3]] || rank[dl[5]] < rank[dl[4]] {
		t.Fatalf("resources should lead download time: %v", dl)
	}
	delay := rowBy("Delay")
	if rank[delay[3]] < rank[delay[2]] || rank[delay[3]] < rank[delay[4]] || rank[delay[3]] < rank[delay[5]] {
		t.Fatalf("latency should lead delay: %v", delay)
	}
	costs := rowBy("ISP Costs")
	if rank[costs[2]] < rank[costs[3]] || rank[costs[2]] < rank[costs[4]] || rank[costs[2]] < rank[costs[5]] {
		t.Fatalf("ISP-location should lead costs: %v", costs)
	}
	apps := rowBy("New application areas (derived)")
	if apps[4] != "++" {
		t.Fatalf("geolocation should lead new applications: %v", apps)
	}
}

func TestChallengesNonTrivial(t *testing.T) {
	r := mustRun(t, "exp-challenges", testCfg())
	// Both asymmetry rates strictly positive; inversions exist.
	if cell(t, strings.Split(r.Rows[0][2], "/")[0]) == 0 {
		t.Fatal("no measurement asymmetry found")
	}
	if cell(t, strings.Split(r.Rows[1][2], "/")[0]) == 0 {
		t.Fatal("no selection asymmetry found")
	}
	if cell(t, strings.Split(r.Rows[2][2], "/")[0]) == 0 {
		t.Fatal("no long-hop inversions found")
	}
}

func TestBNSSwarmShape(t *testing.T) {
	r := mustRun(t, "exp-bns-swarm", testCfg())
	unb, bia := r.Rows[0], r.Rows[1]
	if cell(t, bia[1]) >= cell(t, unb[1]) {
		t.Fatal("biased inter-AS traffic must drop")
	}
	if cell(t, bia[3]) > 2*cell(t, unb[3]) {
		t.Fatalf("biased completion %s too slow vs %s", bia[3], unb[3])
	}
	if cell(t, bia[5]) <= cell(t, unb[5]) {
		t.Fatal("biased neighbor locality must rise")
	}
}

func TestPNSKademliaShape(t *testing.T) {
	r := mustRun(t, "exp-pns-kademlia", testCfg())
	plain, pns := r.Rows[0], r.Rows[1]
	if cell(t, pns[2]) >= cell(t, plain[2]) {
		t.Fatal("PNS lookup latency must drop")
	}
	if cell(t, pns[1]) > cell(t, plain[1])*1.2 {
		t.Fatal("PNS must not inflate hop count")
	}
}

func TestGeoSearchPruning(t *testing.T) {
	r := mustRun(t, "exp-geo-search", testCfg())
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if cell(t, first[2]) >= cell(t, first[4]) {
		t.Fatal("small-radius search should visit fewer zones than full scan")
	}
	if cell(t, last[1]) <= cell(t, first[1]) {
		t.Fatal("larger radius should find more peers")
	}
}

func TestSkyEyeLossless(t *testing.T) {
	r := mustRun(t, "exp-skyeye", testCfg())
	for _, row := range r.Rows {
		if strings.Contains(row[0], "view / truth") {
			parts := strings.Split(row[1], "/")
			if len(parts) != 2 || strings.TrimSpace(parts[0]) != strings.TrimSpace(parts[1]) {
				t.Fatalf("aggregate %q diverges from truth", row[1])
			}
		}
	}
}

func TestAblExternalLinks(t *testing.T) {
	r := mustRun(t, "abl-external-links", testCfg())
	// ext=0 partitions; ext≥1 single component; locality falls with ext.
	if cell(t, r.Rows[0][2]) <= 1 {
		t.Fatal("zero external links should partition the overlay")
	}
	for i := 1; i < len(r.Rows); i++ {
		if cell(t, r.Rows[i][2]) != 1 {
			t.Fatalf("ext=%s still partitioned", r.Rows[i][0])
		}
		if cell(t, r.Rows[i][1]) >= cell(t, r.Rows[i-1][1]) {
			t.Fatal("locality should fall as external budget grows")
		}
	}
}

func TestAblCoords(t *testing.T) {
	r := mustRun(t, "abl-coords", testCfg())
	if !strings.Contains(r.Rows[0][0], "explicit") || cell(t, r.Rows[0][1]) != 0 {
		t.Fatal("explicit measurement must have zero error")
	}
	// Prediction methods must beat ordinal bins' probe count ≥ explicit's.
	explicitProbes := cell(t, r.Rows[0][3])
	for i := 1; i < len(r.Rows); i++ {
		if strings.Contains(r.Rows[i][0], "ICS") || strings.Contains(r.Rows[i][0], "landmark") {
			if cell(t, r.Rows[i][3]) >= explicitProbes {
				t.Fatalf("%s probes should be below explicit's O(N²)", r.Rows[i][0])
			}
		}
	}
}

func TestAblICSDim(t *testing.T) {
	r := mustRun(t, "abl-ics-dim", testCfg())
	// Cumulative variation is nondecreasing; fit error at dim 8 below dim 1.
	for i := 1; i < len(r.Rows); i++ {
		if cell(t, r.Rows[i][1]) < cell(t, r.Rows[i-1][1]) {
			t.Fatal("cumulative variation must be nondecreasing")
		}
	}
	if cell(t, r.Rows[len(r.Rows)-1][2]) >= cell(t, r.Rows[0][2]) {
		t.Fatal("fit error should improve with dimension")
	}
}

func TestDeterministicResults(t *testing.T) {
	a := mustRun(t, "fig5-overlay-viz", testCfg())
	b := mustRun(t, "fig5-overlay-viz", testCfg())
	if a.Render() != b.Render() {
		t.Fatal("same seed produced different results")
	}
	c := mustRun(t, "fig5-overlay-viz", RunConfig{Seed: 2, Scale: 0.5})
	if a.Render() == c.Render() {
		t.Fatal("different seeds produced identical results (suspicious)")
	}
}

func TestMobilityStaleness(t *testing.T) {
	r := mustRun(t, "exp-mobility", testCfg())
	// Fresh snapshot row: everything zero.
	if cell(t, r.Rows[0][1]) != 0 || cell(t, r.Rows[0][2]) != 0 {
		t.Fatalf("fresh snapshot already stale: %v", r.Rows[0])
	}
	// Staleness grows from age 0 to age 30 and stays high.
	if cell(t, r.Rows[1][1]) <= 0 {
		t.Fatal("no ISP-location staleness after churn")
	}
	if cell(t, r.Rows[2][1]) < cell(t, r.Rows[1][1]) {
		t.Fatal("wrong-ISP fraction should not shrink early")
	}
	if cell(t, r.Rows[3][2]) <= 0 {
		t.Fatal("no geo drift at the horizon")
	}
}

func TestOracleTrustOrdering(t *testing.T) {
	r := mustRun(t, "exp-oracle-trust", testCfg())
	get := func(name string) []string {
		for _, row := range r.Rows {
			if strings.HasPrefix(row[0], name) {
				return row
			}
		}
		t.Fatalf("row %q missing", name)
		return nil
	}
	unb := get("no oracle")
	honest := get("honest")
	malicious := get("malicious")
	outage := get("outage")
	// Honest beats unbiased on both user metrics.
	if cell(t, honest[1]) <= cell(t, unb[1]) {
		t.Fatal("honest oracle should raise intra-AS share")
	}
	if cell(t, honest[2]) >= cell(t, unb[2]) {
		t.Fatal("honest oracle should lower RTT")
	}
	// Malicious is worse than no oracle at all — the §6 trust hazard.
	if cell(t, malicious[1]) >= cell(t, unb[1]) {
		t.Fatal("malicious oracle should hurt locality below unbiased")
	}
	if cell(t, malicious[2]) <= cell(t, unb[2]) {
		t.Fatal("malicious oracle should raise RTT above unbiased")
	}
	// Outage degrades to ≈ unbiased (within 30% relative).
	if ratio := cell(t, outage[2]) / cell(t, unb[2]); ratio < 0.7 || ratio > 1.3 {
		t.Fatalf("outage RTT %v not close to unbiased %v", outage[2], unb[2])
	}
}

func TestPongCacheAblation(t *testing.T) {
	r := mustRun(t, "abl-pong-cache", testCfg())
	flood, cached := r.Rows[0], r.Rows[1]
	if cell(t, cached[1]) >= cell(t, flood[1]) {
		t.Fatal("caching should cut ping messages")
	}
	if cell(t, cached[2]) >= cell(t, flood[2]) {
		t.Fatal("caching should cut pong messages")
	}
	if cell(t, cached[3]) >= cell(t, flood[3]) {
		t.Fatal("caching should cut discovery bytes")
	}
	if cell(t, cached[4]) <= 0 {
		t.Fatal("caching should teach addresses")
	}
}

func TestGSHLeopardShape(t *testing.T) {
	r := mustRun(t, "exp-gsh-leopard", testCfg())
	global, scoped := r.Rows[0], r.Rows[1]
	// Hot-spot relief: scoped max registry load far below global's.
	if cell(t, scoped[4]) >= cell(t, global[4]) {
		t.Fatalf("no hot-spot relief: %s vs %s", scoped[4], global[4])
	}
	// Local resolutions only exist under scoping.
	if cell(t, global[3]) != 0 {
		t.Fatal("global rendezvous cannot resolve locally")
	}
	if cell(t, scoped[3]) < 30 {
		t.Fatalf("scoped local resolutions %s too low", scoped[3])
	}
}

func TestSuperPeerStability(t *testing.T) {
	r := mustRun(t, "exp-superpeer", testCfg())
	random, aware := r.Rows[0], r.Rows[1]
	if cell(t, aware[1]) >= cell(t, random[1]) {
		t.Fatal("aware election should cut ultrapeer failures")
	}
	if cell(t, aware[2]) >= cell(t, random[2]) {
		t.Fatal("aware election should cut leaf orphanings")
	}
	if cell(t, aware[4]) <= cell(t, random[4]) {
		t.Fatal("aware ultrapeers should be more capable")
	}
	// Search success must not collapse relative to random (within 15pp).
	if cell(t, aware[3]) < cell(t, random[3])-15 {
		t.Fatalf("aware election hurt search success: %s vs %s", aware[3], random[3])
	}
}

func TestPNSMetricOrdering(t *testing.T) {
	r := mustRun(t, "abl-pns-metric", testCfg())
	plain := cell(t, r.Rows[0][1])
	explicit := cell(t, r.Rows[1][1])
	if explicit >= plain {
		t.Fatal("explicit-RTT PNS should beat plain")
	}
	// Every PNS variant keeps hop counts within 20% of plain.
	plainHops := cell(t, r.Rows[0][2])
	for _, row := range r.Rows[1:] {
		if cell(t, row[2]) > plainHops*1.2 {
			t.Fatalf("%s inflated hops: %s vs %s", row[0], row[2], r.Rows[0][2])
		}
	}
}

func TestTopologyMatchingShape(t *testing.T) {
	r := mustRun(t, "exp-topology-matching", testCfg())
	start := r.Rows[0]
	var last []string
	for _, row := range r.Rows {
		if strings.HasPrefix(row[0], "after") {
			last = row
		}
	}
	if last == nil {
		t.Fatal("no adaptation rows")
	}
	if cell(t, last[1]) <= cell(t, start[1]) {
		t.Fatal("adaptation should raise intra-AS edges")
	}
	if cell(t, last[2]) >= cell(t, start[2]) {
		t.Fatal("adaptation should lower mean neighbor RTT")
	}
	// Connectivity never breaks.
	for _, row := range r.Rows {
		if cell(t, row[5]) != 1 {
			t.Fatalf("state %q fragmented", row[0])
		}
	}
	// Probe overhead is real and grows.
	if cell(t, last[4]) == 0 {
		t.Fatal("no probe overhead")
	}
}

func TestStreamingShape(t *testing.T) {
	r := mustRun(t, "exp-streaming", testCfg())
	random, aware := r.Rows[0], r.Rows[1]
	// Strictly better, unless both already saturate (small populations
	// can leave no starved tail to rescue).
	if cell(t, aware[2]) < cell(t, random[2]) ||
		(cell(t, aware[2]) == cell(t, random[2]) && cell(t, aware[2]) < 99) {
		t.Fatalf("aware worst-peer continuity %s did not improve on %s", aware[2], random[2])
	}
	if cell(t, aware[1]) < cell(t, random[1]) {
		t.Fatal("aware scheduling should not hurt mean continuity")
	}
	if cell(t, aware[3]) <= cell(t, random[3]) {
		t.Fatal("aware parents should have more capacity")
	}
}

func TestChordPNSShape(t *testing.T) {
	r := mustRun(t, "exp-chord-pns", testCfg())
	classic, pns := r.Rows[0], r.Rows[1]
	if cell(t, pns[2]) >= cell(t, classic[2]) {
		t.Fatal("PNS fingers should cut lookup latency")
	}
	if cell(t, pns[1]) > cell(t, classic[1])*1.35 {
		t.Fatal("PNS fingers should not inflate hops materially")
	}
	if cell(t, pns[3]) >= cell(t, classic[3]) {
		t.Fatal("per-hop latency should drop under PNS")
	}
}

func TestOverheadFrontier(t *testing.T) {
	r := mustRun(t, "exp-overhead", testCfg())
	if r.Rows[0][0] != "random (unaware)" {
		t.Fatal("baseline row missing")
	}
	randomRTT := cell(t, r.Rows[0][3])
	var explicitGain, vivaldiOps, explicitOps float64
	for _, row := range r.Rows[1:] {
		// Every technique must beat or match random on this workload
		// except the resource overlay (different objective).
		rtt := cell(t, row[3])
		if !strings.Contains(row[0], "information management") && rtt > randomRTT {
			t.Fatalf("%s picked worse than random: %s vs %.1f", row[0], row[3], randomRTT)
		}
		if strings.Contains(row[0], "explicit") {
			explicitGain = cell(t, row[4])
			explicitOps = cell(t, row[1])
			// Only explicit measurement generates probe bytes during the
			// workload.
			if cell(t, row[2]) == 0 {
				t.Fatal("explicit measurement sent no bytes")
			}
		}
		if strings.Contains(row[0], "Vivaldi") {
			vivaldiOps = cell(t, row[1])
		}
	}
	if explicitGain < 50 {
		t.Fatalf("explicit gain %.1f%% too small", explicitGain)
	}
	// Vivaldi's overhead is setup-only gossip, explicit pays per query —
	// both must be nonzero and distinct.
	if vivaldiOps == 0 || explicitOps == 0 {
		t.Fatal("overhead columns empty")
	}
}

func TestFig5HeatmapInNotes(t *testing.T) {
	r := mustRun(t, "fig5-overlay-viz", testCfg())
	found := 0
	for _, n := range r.Notes {
		if strings.Contains(n, "heatmap") {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("expected 2 heatmap sections, found %d", found)
	}
}

// TestAllExperimentsDeterministic replays every registered experiment at
// a small scale and asserts bit-identical output — the reproducibility
// guarantee the README promises, enforced globally.
func TestAllExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full determinism sweep skipped in -short")
	}
	cfg := RunConfig{Seed: 3, Scale: 0.25}
	for _, id := range IDs() {
		a, err := Run(id, cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		b, err := Run(id, cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if a.Render() != b.Render() {
			t.Fatalf("%s is not deterministic", id)
		}
	}
}

func TestBrocadeShape(t *testing.T) {
	r := mustRun(t, "exp-brocade", testCfg())
	flat, lm := r.Rows[0], r.Rows[1]
	// The headline: landmark routing crosses the wide area exactly once.
	if cell(t, lm[2]) != 1 {
		t.Fatalf("landmark inter-AS crossings = %s, want 1.00", lm[2])
	}
	if cell(t, flat[2]) <= cell(t, lm[2]) {
		t.Fatal("flat walk should cross more")
	}
	if cell(t, lm[3]) >= cell(t, flat[3]) {
		t.Fatal("landmark latency should drop")
	}
	if cell(t, lm[4]) >= cell(t, flat[4]) {
		t.Fatal("landmark messages should drop")
	}
}

func TestResilienceShape(t *testing.T) {
	r := mustRun(t, "exp-resilience", testCfg())
	if len(r.Rows) != 3 {
		t.Fatalf("want 3 crash victims, got %d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		crashed, suspected, evicted := cell(t, row[1]), cell(t, row[2]), cell(t, row[3])
		// The loss burst can raise a (recanted) suspicion before the
		// wave, so only the eviction must follow the crash.
		if suspected <= 0 || evicted <= crashed || evicted <= suspected {
			t.Fatalf("%s: timeline out of order: %v", row[0], row)
		}
		// Detection must beat the post-fault window by a wide margin.
		if detect := cell(t, row[4]); detect <= 0 || detect > 5000 {
			t.Fatalf("%s: detect latency %v ms outside (0, 5000]", row[0], detect)
		}
	}
}
