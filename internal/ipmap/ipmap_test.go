package ipmap

import (
	"testing"
	"testing/quick"

	"unap2p/internal/geo"
	"unap2p/internal/sim"
	"unap2p/internal/topology"
	"unap2p/internal/underlay"
)

func testNet(t *testing.T) *underlay.Network {
	t.Helper()
	net := topology.Star(4, topology.DefaultConfig())
	r := sim.NewSource(1).Stream("ipmap-place")
	topology.PlaceHosts(net, 5, false, 1, 5, r)
	return net
}

func TestFormatIP(t *testing.T) {
	if s := FormatIP(10<<24 | 3<<16 | 0<<8 | 7); s != "10.3.0.7" {
		t.Fatalf("FormatIP = %q", s)
	}
	if s := FormatIP(0xFFFFFFFF); s != "255.255.255.255" {
		t.Fatalf("FormatIP = %q", s)
	}
}

func TestPrefix(t *testing.T) {
	p := Prefix{Base: 10<<24 | 5<<16, Bits: 16}
	if !p.Contains(10<<24 | 5<<16 | 42) {
		t.Fatal("prefix should contain inside address")
	}
	if p.Contains(10<<24 | 6<<16) {
		t.Fatal("prefix should not contain outside address")
	}
	if p.String() != "10.5.0.0/16" {
		t.Fatalf("String = %q", p.String())
	}
	all := Prefix{Bits: 0}
	if !all.Contains(12345) {
		t.Fatal("/0 contains everything")
	}
}

func TestPlanAllocation(t *testing.T) {
	net := testNet(t)
	plan := AssignAll(net)
	seen := map[IP]bool{}
	for _, h := range net.Hosts() {
		if h.IP == 0 {
			t.Fatalf("host %d has no IP", h.ID)
		}
		if seen[h.IP] {
			t.Fatalf("duplicate IP %s", FormatIP(h.IP))
		}
		seen[h.IP] = true
		pf, ok := plan.PrefixOf(h.AS.ID)
		if !ok || !pf.Contains(h.IP) {
			t.Fatalf("host %d IP %s outside AS%d prefix %v", h.ID, FormatIP(h.IP), h.AS.ID, pf)
		}
	}
}

func TestPlanAllocatePanicsOnUnknownAS(t *testing.T) {
	net := testNet(t)
	plan := NewPlan(net)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	plan.Allocate(999)
}

func TestRegistryASOf(t *testing.T) {
	net := testNet(t)
	plan := AssignAll(net)
	reg := NewRegistry(net, plan)
	for _, h := range net.Hosts() {
		as, ok := reg.ASOf(h.IP)
		if !ok || as != h.AS.ID {
			t.Fatalf("ASOf(%s) = %d,%v; want %d", FormatIP(h.IP), as, ok, h.AS.ID)
		}
	}
	// Address outside every prefix.
	if _, ok := reg.ASOf(192 << 24); ok {
		t.Fatal("unknown address should miss")
	}
	if _, ok := reg.ASOf(1); ok {
		t.Fatal("address below all prefixes should miss")
	}
}

func TestRegistryLocationOf(t *testing.T) {
	net := testNet(t)
	plan := AssignAll(net)
	reg := NewRegistry(net, plan)
	h := net.Hosts()[0]
	loc, ok := reg.LocationOf(h.IP)
	if !ok {
		t.Fatal("no location for valid host")
	}
	// Registry returns the AS centroid — close to (host dispersion σ=1.5°)
	// but generally not equal to the host's true position.
	d := geo.Haversine(loc, geo.Coord{Lat: h.Lat, Lon: h.Lon})
	if d > 2000 {
		t.Fatalf("centroid %v is %.0f km from host — dispersion should be small", loc, d)
	}
	if _, ok := reg.LocationOf(192 << 24); ok {
		t.Fatal("unknown IP should have no location")
	}
}

// Property: ASOf is consistent with prefix containment for arbitrary IPs.
func TestQuickRegistryConsistency(t *testing.T) {
	net := testNet(t)
	plan := AssignAll(net)
	reg := NewRegistry(net, plan)
	f := func(ip IP) bool {
		as, ok := reg.ASOf(ip)
		if ok {
			pf, exists := plan.PrefixOf(as)
			return exists && pf.Contains(ip)
		}
		// A miss must mean no prefix contains ip.
		for _, a := range net.ASes() {
			pf, _ := plan.PrefixOf(a.ID)
			if pf.Contains(ip) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
