// Package underlay simulates the physical network beneath a P2P overlay at
// the Autonomous System level: local and transit ISPs (Figure 1 of the
// paper), customer/provider and peering links, valley-free inter-domain
// routing, end-host access links, end-to-end latency, and per-link byte
// accounting.
//
// The underlay is the substrate "on which the overlay resides" (§2); every
// overlay implementation in unap2p sends its messages through a Network so
// that locality, latency, and cost effects are measured rather than assumed.
package underlay

import (
	"fmt"
	"sort"

	"unap2p/internal/sim"
)

// ASKind distinguishes the two ISP roles of Figure 1.
type ASKind int

const (
	// LocalISP provides connectivity in a limited area (stub AS).
	LocalISP ASKind = iota
	// TransitISP acts on a global plane and supplies connectivity between
	// local ISPs.
	TransitISP
)

func (k ASKind) String() string {
	switch k {
	case LocalISP:
		return "local"
	case TransitISP:
		return "transit"
	default:
		return fmt.Sprintf("ASKind(%d)", int(k))
	}
}

// AS is an autonomous system / ISP.
type AS struct {
	ID   int
	Kind ASKind
	Name string
	// IntraDelay is the one-way delay between two hosts inside this AS,
	// excluding their access links.
	IntraDelay sim.Duration
	links      []*Link
}

// Links returns the inter-AS links attached to this AS.
func (a *AS) Links() []*Link { return a.links }

// LinkKind distinguishes paid transit links from settlement-free peering.
type LinkKind int

const (
	// Transit is a customer→provider link: the customer pays per Mbps
	// (95th percentile) for traffic in either direction.
	Transit LinkKind = iota
	// Peering is a settlement-free link between ISPs: flat maintenance
	// cost, no per-traffic charge.
	Peering
)

func (k LinkKind) String() string {
	if k == Peering {
		return "peering"
	}
	return "transit"
}

// Link is an inter-AS adjacency. For Transit links A is the customer and B
// the provider; for Peering links the roles are symmetric.
type Link struct {
	A, B *AS
	Kind LinkKind
	// DelayAB and DelayBA are the one-way delays in each direction;
	// asymmetric values model the asymmetric-path problem of §6.
	DelayAB, DelayBA sim.Duration
	// BytesAB and BytesBA account traffic carried in each direction.
	BytesAB, BytesBA uint64
}

// Delay returns the one-way delay from AS from to the opposite end.
func (l *Link) Delay(from int) sim.Duration {
	if from == l.A.ID {
		return l.DelayAB
	}
	return l.DelayBA
}

// Other returns the AS at the opposite end from id.
func (l *Link) Other(id int) *AS {
	if id == l.A.ID {
		return l.B
	}
	return l.A
}

// Carry accounts n bytes flowing out of AS from over this link.
func (l *Link) Carry(from int, n uint64) {
	if from == l.A.ID {
		l.BytesAB += n
	} else {
		l.BytesBA += n
	}
}

// Bytes returns the total bytes carried in both directions.
func (l *Link) Bytes() uint64 { return l.BytesAB + l.BytesBA }

// HostID identifies a host within a Network.
type HostID int

// SortedIDs returns a host-id set's members in ascending order. Whatever
// iterates or exports such a set — eviction ledgers, chaos reports,
// overlay reference sweeps — goes through it, so event order and run
// files never see Go's randomized map iteration.
func SortedIDs(set map[HostID]bool) []HostID {
	out := make([]HostID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Host is an end system attached to an AS.
type Host struct {
	ID HostID
	AS *AS
	// AccessDelay is the one-way last-mile delay of this host.
	AccessDelay sim.Duration
	// IP is the host's address, allocated from its AS's prefix by the
	// ipmap package.
	IP uint32
	// Lat, Lon is the ground-truth geolocation in degrees.
	Lat, Lon float64
	// Up reports whether the host is currently online (churn models flip
	// this).
	Up bool
}

// RoutingPolicy selects how inter-AS paths are computed.
type RoutingPolicy int

const (
	// ValleyFree routes follow Gao–Rexford export rules: zero or more
	// customer→provider hops, at most one peering hop, then zero or more
	// provider→customer hops; shortest such path by (hops, delay).
	ValleyFree RoutingPolicy = iota
	// ShortestDelay ignores economics and uses minimum-delay paths.
	ShortestDelay
)

// Network is the simulated underlay.
type Network struct {
	Policy RoutingPolicy

	ases  []*AS
	links []*Link
	hosts []*Host

	// sent totals the bytes of every Send; the links hold the per-hop
	// split, and per-type AS-pair matrices are transport views.
	sent uint64

	routes *routeTable // computed lazily, invalidated on topology change
}

// New returns an empty network with valley-free routing.
func New() *Network { return &Network{} }

// SentBytes returns the bytes of every Send so far, intra- and inter-AS.
func (n *Network) SentBytes() uint64 { return n.sent }

// AddAS creates an AS. IDs are dense and assigned in creation order.
func (n *Network) AddAS(kind ASKind, intraDelay sim.Duration) *AS {
	a := &AS{ID: len(n.ases), Kind: kind, IntraDelay: intraDelay,
		Name: fmt.Sprintf("AS%d", len(n.ases))}
	n.ases = append(n.ases, a)
	n.routes = nil
	return a
}

// ASes returns all ASes in ID order.
func (n *Network) ASes() []*AS { return n.ases }

// AS returns the AS with the given id.
func (n *Network) AS(id int) *AS { return n.ases[id] }

// NumASes reports the number of ASes.
func (n *Network) NumASes() int { return len(n.ases) }

// Links returns all inter-AS links.
func (n *Network) Links() []*Link { return n.links }

func (n *Network) addLink(l *Link) *Link {
	n.links = append(n.links, l)
	l.A.links = append(l.A.links, l)
	l.B.links = append(l.B.links, l)
	n.routes = nil
	return l
}

// ConnectTransit links customer to provider with symmetric delay.
func (n *Network) ConnectTransit(customer, provider *AS, delay sim.Duration) *Link {
	return n.addLink(&Link{A: customer, B: provider, Kind: Transit,
		DelayAB: delay, DelayBA: delay})
}

// ConnectPeering links two ASes as settlement-free peers.
func (n *Network) ConnectPeering(a, b *AS, delay sim.Duration) *Link {
	return n.addLink(&Link{A: a, B: b, Kind: Peering,
		DelayAB: delay, DelayBA: delay})
}

// ConnectTransitAsym links customer to provider with per-direction delays,
// for asymmetric-path experiments (§6).
func (n *Network) ConnectTransitAsym(customer, provider *AS, up, down sim.Duration) *Link {
	return n.addLink(&Link{A: customer, B: provider, Kind: Transit,
		DelayAB: up, DelayBA: down})
}

// AddHost attaches a host to an AS.
func (n *Network) AddHost(a *AS, accessDelay sim.Duration) *Host {
	h := &Host{ID: HostID(len(n.hosts)), AS: a, AccessDelay: accessDelay, Up: true}
	n.hosts = append(n.hosts, h)
	return h
}

// Hosts returns all hosts in ID order.
func (n *Network) Hosts() []*Host { return n.hosts }

// Host returns the host with the given id.
func (n *Network) Host(id HostID) *Host { return n.hosts[id] }

// NumHosts reports the number of hosts.
func (n *Network) NumHosts() int { return len(n.hosts) }

// HostsInAS returns the hosts attached to AS id, in host-ID order.
func (n *Network) HostsInAS(id int) []*Host {
	var out []*Host
	for _, h := range n.hosts {
		if h.AS.ID == id {
			out = append(out, h)
		}
	}
	return out
}
