// Package ipmap implements the IP address plan of the simulated Internet
// and the mapping services of §3.1/§3.3: every AS owns a well-known prefix,
// so mapping a peer's IP to its ISP is a prefix lookup (the IP2Country /
// IP2Location class of services), and mapping an IP to a location returns
// the "rough geographical area" of that ISP: the centroid of its hosts.
package ipmap

import (
	"fmt"
	"sort"

	"unap2p/internal/geo"
	"unap2p/internal/underlay"
)

// IP is an IPv4 address in host byte order.
type IP = uint32

// FormatIP renders an IP in dotted-quad form.
func FormatIP(ip IP) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// Prefix is a CIDR block.
type Prefix struct {
	Base IP
	Bits int // prefix length
}

// Contains reports whether ip falls inside the prefix.
func (p Prefix) Contains(ip IP) bool {
	if p.Bits <= 0 {
		return true
	}
	mask := ^IP(0) << (32 - p.Bits)
	return ip&mask == p.Base&mask
}

func (p Prefix) String() string { return fmt.Sprintf("%s/%d", FormatIP(p.Base), p.Bits) }

// Plan is the address plan: one /16 per AS out of 10.0.0.0/8-style space.
type Plan struct {
	prefixes map[int]Prefix // AS id → prefix
	next     map[int]IP     // AS id → next free host address
}

// NewPlan allocates a /16 for every AS in the network: AS i receives
// 10.(i).0.0/16 (wrapping into 11.x for i > 255, which simulated networks
// never reach in practice).
func NewPlan(net *underlay.Network) *Plan {
	p := &Plan{prefixes: make(map[int]Prefix), next: make(map[int]IP)}
	for _, as := range net.ASes() {
		base := IP(10)<<24 | IP(as.ID)<<16
		p.prefixes[as.ID] = Prefix{Base: base, Bits: 16}
		p.next[as.ID] = base + 1
	}
	return p
}

// PrefixOf returns the prefix owned by an AS.
func (p *Plan) PrefixOf(asID int) (Prefix, bool) {
	pf, ok := p.prefixes[asID]
	return pf, ok
}

// Allocate returns the next free address in an AS's prefix.
func (p *Plan) Allocate(asID int) IP {
	pf, ok := p.prefixes[asID]
	if !ok {
		panic(fmt.Sprintf("ipmap: AS %d has no prefix", asID))
	}
	ip := p.next[asID]
	if !pf.Contains(ip) {
		panic(fmt.Sprintf("ipmap: prefix %v exhausted", pf))
	}
	p.next[asID] = ip + 1
	return ip
}

// AssignAll allocates an address for every host in the network, storing it
// in Host.IP, and returns the plan for later lookups.
func AssignAll(net *underlay.Network) *Plan {
	p := NewPlan(net)
	for _, h := range net.Hosts() {
		h.IP = p.Allocate(h.AS.ID)
	}
	return p
}

// Registry is a mapping service built from the address plan — the
// simulated equivalent of the commercial IP-to-ISP databases. Its
// answers are exact at AS granularity; a location is only the AS
// centroid, the paper's caveat that such services are "less accurate"
// than ISP-provided data.
type Registry struct {
	entries   []registryEntry // sorted by Base for binary search
	centroids map[int]geo.Coord
}

type registryEntry struct {
	prefix Prefix
	asID   int
}

// NewRegistry builds a registry over the plan. Centroids for location
// lookups are derived from the mean position of each AS's hosts.
func NewRegistry(net *underlay.Network, plan *Plan) *Registry {
	r := &Registry{centroids: make(map[int]geo.Coord)}
	for asID, pf := range plan.prefixes {
		r.entries = append(r.entries, registryEntry{prefix: pf, asID: asID})
	}
	sort.Slice(r.entries, func(i, j int) bool {
		return r.entries[i].prefix.Base < r.entries[j].prefix.Base
	})
	counts := make(map[int]int)
	sums := make(map[int]geo.Coord)
	for _, h := range net.Hosts() {
		s := sums[h.AS.ID]
		s.Lat += h.Lat
		s.Lon += h.Lon
		sums[h.AS.ID] = s
		counts[h.AS.ID]++
	}
	for asID, c := range counts {
		r.centroids[asID] = geo.Coord{
			Lat: sums[asID].Lat / float64(c),
			Lon: sums[asID].Lon / float64(c),
		}
	}
	return r
}

// ASOf maps ip to its owning AS by longest(-only) prefix match, or
// reports false when no prefix holds it.
func (r *Registry) ASOf(ip IP) (int, bool) {
	i := sort.Search(len(r.entries), func(i int) bool {
		return r.entries[i].prefix.Base > ip
	}) - 1
	if i < 0 {
		return 0, false
	}
	if r.entries[i].prefix.Contains(ip) {
		return r.entries[i].asID, true
	}
	return 0, false
}

// LocationOf returns the centroid of the owning AS — a "rough
// geographical area in which a peer is (most probably) located" (§3.3).
func (r *Registry) LocationOf(ip IP) (geo.Coord, bool) {
	asID, ok := r.ASOf(ip)
	if !ok {
		return geo.Coord{}, false
	}
	c, ok := r.centroids[asID]
	return c, ok
}
