package core

import (
	"testing"

	"unap2p/internal/cdn"
	"unap2p/internal/coords"
	"unap2p/internal/geo"
	"unap2p/internal/ipmap"
	"unap2p/internal/linalg"
	"unap2p/internal/oracle"
	"unap2p/internal/resources"
	"unap2p/internal/sim"
	"unap2p/internal/topology"
	"unap2p/internal/underlay"
)

func buildNet(t *testing.T) *underlay.Network {
	t.Helper()
	src := sim.NewSource(1)
	net := topology.Star(5, topology.DefaultConfig())
	topology.PlaceHosts(net, 6, false, 1, 3, src.Stream("place"))
	ipmap.AssignAll(net)
	return net
}

func TestTaxonomyCoversFigure3(t *testing.T) {
	tax := Taxonomy()
	if len(tax) != 4 {
		t.Fatalf("taxonomy has %d kinds, want 4", len(tax))
	}
	total := 0
	for _, methods := range tax {
		total += len(methods)
	}
	if total != 8 {
		t.Fatalf("taxonomy has %d methods, want 8", total)
	}
	// String methods are readable (no default fallthrough).
	for _, m := range []Method{IPToISPMapping, ISPComponent, CDNProvided,
		ExplicitMeasurement, PredictionMethod, GPS, IPToLocationMapping, InfoManagementOverlay} {
		if m.String() == "" || m.String()[0] == 'M' {
			t.Fatalf("method %d has bad String %q", int(m), m.String())
		}
	}
	for _, k := range []Kind{ISPLocation, Latency, Geolocation, PeerResources} {
		if k.String() == "" || k.String()[0] == 'K' {
			t.Fatalf("kind %d has bad String %q", int(k), k.String())
		}
	}
}

func TestIPMapEstimator(t *testing.T) {
	net := buildNet(t)
	reg := ipmap.NewRegistry(net, ipmap.AssignAll(net))
	e := &IPMapEstimator{Reg: reg}
	sameAS := net.HostsInAS(1)
	c0, ok := e.Estimate(sameAS[0], sameAS[1])
	if !ok || c0 != 0 {
		t.Fatalf("same-AS cost = %v,%v", c0, ok)
	}
	other := net.HostsInAS(2)[0]
	c1, ok := e.Estimate(sameAS[0], other)
	if !ok || c1 != 1 {
		t.Fatalf("cross-AS cost = %v,%v", c1, ok)
	}
	if e.Overhead() == 0 {
		t.Fatal("no overhead recorded")
	}
	if e.Kind() != ISPLocation || e.Method() != IPToISPMapping {
		t.Fatal("classification wrong")
	}
}

func TestOracleEstimator(t *testing.T) {
	net := buildNet(t)
	o := oracle.New(net)
	e := &OracleEstimator{O: o, U: net}
	a := net.HostsInAS(1)[0]
	b := net.HostsInAS(2)[0]
	c, ok := e.Estimate(a, b)
	if !ok || c != 2 { // leaf→hub→leaf
		t.Fatalf("oracle cost = %v,%v; want 2", c, ok)
	}
	o.Down = true
	if _, ok := e.Estimate(a, b); ok {
		t.Fatal("down oracle should miss")
	}
}

func TestCDNEstimator(t *testing.T) {
	net := buildNet(t)
	c := cdn.Deploy(net, []int{1, 3}, sim.NewSource(2).Stream("cdn"))
	maps := map[underlay.HostID]cdn.RatioMap{}
	for _, h := range net.Hosts()[:10] {
		maps[h.ID] = c.ObserveRatioMap(h, 50)
	}
	e := &CDNEstimator{Maps: maps, Observations: c.Redirections}
	a := net.HostsInAS(1)[0]
	b := net.HostsInAS(1)[1]
	cost, ok := e.Estimate(a, b)
	if !ok || cost > 0.3 {
		t.Fatalf("same-AS CDN cost = %v,%v", cost, ok)
	}
	if _, ok := e.Estimate(a, net.Hosts()[len(net.Hosts())-1]); ok {
		t.Fatal("host without map should miss")
	}
	if e.Overhead() == 0 {
		t.Fatal("no overhead")
	}
}

func TestRTTEstimatorProbesUnderlay(t *testing.T) {
	net := buildNet(t)
	e := &RTTEstimator{U: net}
	a, b := net.Hosts()[0], net.Hosts()[10]
	before := net.SentBytes()
	cost, ok := e.Estimate(a, b)
	if !ok || cost != float64(net.RTT(a, b)) {
		t.Fatalf("rtt estimate = %v,%v", cost, ok)
	}
	if net.SentBytes() == before {
		t.Fatal("explicit measurement sent no probes")
	}
	if e.Overhead() != 2 {
		t.Fatalf("overhead = %d", e.Overhead())
	}
	b.Up = false
	if _, ok := e.Estimate(a, b); ok {
		t.Fatal("probing a dead host should miss")
	}
}

func TestVivaldiAndICSEstimators(t *testing.T) {
	net := buildNet(t)
	hosts := net.Hosts()
	rtt := func(i, j int) float64 { return float64(net.RTT(hosts[i], hosts[j])) }
	vs := coords.NewVivaldiSystem(len(hosts), rtt, sim.NewSource(3).Stream("v"))
	vs.Run(50)
	idx := map[underlay.HostID]int{}
	for i, h := range hosts {
		idx[h.ID] = i
	}
	ve := &VivaldiEstimator{S: vs, Index: idx}
	c, ok := ve.Estimate(hosts[0], hosts[5])
	if !ok || c <= 0 {
		t.Fatalf("vivaldi estimate = %v,%v", c, ok)
	}
	if ve.Overhead() == 0 {
		t.Fatal("vivaldi overhead should count gossip probes")
	}
	if _, ok := ve.Estimate(hosts[0], &underlay.Host{ID: 9999}); ok {
		t.Fatal("unknown host should miss")
	}

	// ICS: 4 beacons are hosts 0,6,12,18; distance matrix from RTTs.
	beacons := []int{0, 6, 12, 18}
	d := make([][]float64, 4)
	for i := range d {
		d[i] = make([]float64, 4)
		for j := range d[i] {
			if i != j {
				d[i][j] = rtt(beacons[i], beacons[j])
			}
		}
	}
	// Symmetrize (RTT is symmetric here, but keep it robust).
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			m := (d[i][j] + d[j][i]) / 2
			d[i][j], d[j][i] = m, m
		}
	}
	dm := linalg.FromRows(d)
	ics, err := coords.BuildICS(dm, coords.ICSOptions{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	cmap := map[underlay.HostID][]float64{}
	for _, h := range hosts {
		delays := make([]float64, 4)
		for bi, b := range beacons {
			delays[bi] = rtt(idx[h.ID], b)
		}
		xc, err := ics.HostCoord(delays)
		if err != nil {
			t.Fatal(err)
		}
		cmap[h.ID] = xc
	}
	ie := &ICSEstimator{ICS: ics, Coords: cmap, Measurements: uint64(len(hosts) * 4)}
	c2, ok := ie.Estimate(hosts[0], hosts[5])
	if !ok || c2 < 0 {
		t.Fatalf("ics estimate = %v,%v", c2, ok)
	}
	if ie.Overhead() == 0 {
		t.Fatal("ics overhead missing")
	}
}

func TestGeoEstimator(t *testing.T) {
	net := buildNet(t)
	pos := map[underlay.HostID]geo.Coord{}
	for _, h := range net.Hosts() {
		pos[h.ID] = geo.Coord{Lat: h.Lat, Lon: h.Lon}
	}
	e := &GeoEstimator{Positions: pos, Via: GPS, Fixes: uint64(len(pos))}
	sameAS := net.HostsInAS(1)
	near, _ := e.Estimate(sameAS[0], sameAS[1])
	far, _ := e.Estimate(sameAS[0], net.HostsInAS(3)[0])
	if near >= far {
		t.Fatalf("same-AS geo distance %v not below cross-AS %v", near, far)
	}
	if e.Method() != GPS {
		t.Fatal("method should be GPS")
	}
	e.Via = IPToLocationMapping
	if e.Method() != IPToLocationMapping {
		t.Fatal("method should follow Via")
	}
}

func TestResourceEstimator(t *testing.T) {
	net := buildNet(t)
	tab := resources.GenerateAll(net, sim.NewSource(4).Stream("res"))
	e := &ResourceEstimator{Table: tab, UpdateMsgs: 42}
	a, b := net.Hosts()[0], net.Hosts()[1]
	ca, _ := e.Estimate(nil, a)
	cb, _ := e.Estimate(nil, b)
	if (tab.Get(a.ID).Score() > tab.Get(b.ID).Score()) != (ca < cb) {
		t.Fatal("resource cost must invert capability score")
	}
	a.Up = false
	if _, ok := e.Estimate(nil, a); ok {
		t.Fatal("offline peer should miss")
	}
	if e.Overhead() != 42 {
		t.Fatal("overhead wrong")
	}
}

func TestEngineRankAndSelect(t *testing.T) {
	net := buildNet(t)
	reg := ipmap.NewRegistry(net, ipmap.AssignAll(net))
	eng := NewEngine().Add(&IPMapEstimator{Reg: reg}, 1)
	client := net.HostsInAS(1)[0]
	var cands []underlay.HostID
	for _, h := range net.Hosts() {
		if h.ID != client.ID {
			cands = append(cands, h.ID)
		}
	}
	hostOf := func(id underlay.HostID) *underlay.Host { return net.Host(id) }
	ranked := eng.Rank(client, cands, hostOf)
	if len(ranked) != len(cands) {
		t.Fatal("rank changed length")
	}
	nSame := len(net.HostsInAS(1)) - 1
	for i := 0; i < nSame; i++ {
		if net.Host(ranked[i]).AS.ID != client.AS.ID {
			t.Fatalf("rank %d not same-AS", i)
		}
	}
	if eng.TotalOverhead() == 0 {
		t.Fatal("engine overhead not aggregated")
	}
}

func TestEngineMultiEstimator(t *testing.T) {
	net := buildNet(t)
	reg := ipmap.NewRegistry(net, ipmap.AssignAll(net))
	tab := resources.GenerateAll(net, sim.NewSource(6).Stream("res2"))
	eng := NewEngine().
		Add(&IPMapEstimator{Reg: reg}, 10).
		Add(&ResourceEstimator{Table: tab}, 1)
	client := net.HostsInAS(1)[0]
	// Among two same-AS peers, the more capable one must rank first.
	peers := net.HostsInAS(1)[1:3]
	s0 := eng.Score(client, peers[0])
	s1 := eng.Score(client, peers[1])
	want := tab.Get(peers[0].ID).Score() > tab.Get(peers[1].ID).Score()
	if want != (s0 < s1) {
		t.Fatal("multi-estimator weighting broken")
	}
}

func TestEnginePanics(t *testing.T) {
	eng := NewEngine()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic on zero-weight Add")
			}
		}()
		eng.Add(&RTTEstimator{}, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic on empty Score")
			}
		}()
		NewEngine().Score(nil, nil)
	}()
}
