// Package topology generates underlay networks: the four 5-AS testlab
// shapes of Aggarwal et al. (ring, star, tree, random mesh), the
// transit–stub hierarchy of Figure 1, and standard AS-graph models
// (Barabási–Albert preferential attachment, Waxman random geometric).
package topology

import (
	"fmt"
	"math"
	"math/rand"

	"unap2p/internal/sim"
	"unap2p/internal/underlay"
)

// Config holds the delay parameters shared by all generators.
type Config struct {
	// IntraDelay is the host-to-host delay inside one AS.
	IntraDelay sim.Duration
	// LinkDelay is the base inter-AS link delay.
	LinkDelay sim.Duration
	// LinkJitter, when > 0, adds uniform jitter in [0, LinkJitter) to each
	// link delay, drawn from Rand.
	LinkJitter sim.Duration
	// Rand supplies the generator's randomness; required when any
	// stochastic feature is enabled.
	Rand *rand.Rand
}

// DefaultConfig returns the parameters used throughout the experiments:
// 5 ms intra-AS delay and 20 ms inter-AS links, no jitter.
func DefaultConfig() Config {
	return Config{IntraDelay: 5, LinkDelay: 20}
}

func (c Config) linkDelay() sim.Duration {
	d := c.LinkDelay
	if c.LinkJitter > 0 {
		if c.Rand == nil {
			panic("topology: LinkJitter requires Rand")
		}
		d += sim.Duration(c.Rand.Float64() * float64(c.LinkJitter))
	}
	return d
}

// Ring builds n local ISPs connected in a cycle. Router-style topologies
// model the testlab's plain IP routing, so the network uses the
// ShortestDelay policy.
func Ring(n int, cfg Config) *underlay.Network {
	if n < 3 {
		panic("topology: ring needs ≥3 ASes")
	}
	net := underlay.New()
	net.Policy = underlay.ShortestDelay
	ases := addLocals(net, n, cfg)
	for i := 0; i < n; i++ {
		net.ConnectPeering(ases[i], ases[(i+1)%n], cfg.linkDelay())
	}
	return net
}

// Star builds one hub AS with n-1 leaves. The hub is a transit ISP; the
// policy is ShortestDelay for testlab parity.
func Star(n int, cfg Config) *underlay.Network {
	if n < 2 {
		panic("topology: star needs ≥2 ASes")
	}
	net := underlay.New()
	net.Policy = underlay.ShortestDelay
	hub := net.AddAS(underlay.TransitISP, cfg.IntraDelay)
	for i := 1; i < n; i++ {
		leaf := net.AddAS(underlay.LocalISP, cfg.IntraDelay)
		net.ConnectTransit(leaf, hub, cfg.linkDelay())
	}
	return net
}

// Tree builds a rooted tree of n ASes with the given branching factor
// (breadth-first filling). Policy is ShortestDelay.
func Tree(n, branching int, cfg Config) *underlay.Network {
	if n < 1 || branching < 1 {
		panic("topology: tree needs n ≥ 1, branching ≥ 1")
	}
	net := underlay.New()
	net.Policy = underlay.ShortestDelay
	ases := make([]*underlay.AS, n)
	for i := 0; i < n; i++ {
		kind := underlay.LocalISP
		// Interior vertices act as transit.
		if i*branching+1 < n {
			kind = underlay.TransitISP
		}
		ases[i] = net.AddAS(kind, cfg.IntraDelay)
	}
	for i := 1; i < n; i++ {
		parent := (i - 1) / branching
		net.ConnectTransit(ases[i], ases[parent], cfg.linkDelay())
	}
	return net
}

// Mesh builds a connected random mesh over n ASes: a random spanning tree
// plus extra random edges until the target mean degree is reached. This is
// the testlab's "random mesh" topology. Policy is ShortestDelay.
func Mesh(n int, meanDegree float64, cfg Config) *underlay.Network {
	if n < 2 {
		panic("topology: mesh needs ≥2 ASes")
	}
	if cfg.Rand == nil {
		panic("topology: Mesh requires Rand")
	}
	net := underlay.New()
	net.Policy = underlay.ShortestDelay
	ases := addLocals(net, n, cfg)
	have := make(map[[2]int]bool)
	addEdge := func(i, j int) bool {
		if i == j {
			return false
		}
		if i > j {
			i, j = j, i
		}
		if have[[2]int{i, j}] {
			return false
		}
		have[[2]int{i, j}] = true
		net.ConnectPeering(ases[i], ases[j], cfg.linkDelay())
		return true
	}
	// Random spanning tree: attach each node to a random earlier node.
	for i := 1; i < n; i++ {
		addEdge(i, cfg.Rand.Intn(i))
	}
	target := int(meanDegree * float64(n) / 2)
	for len(have) < target {
		addEdge(cfg.Rand.Intn(n), cfg.Rand.Intn(n))
	}
	return net
}

// TransitStubConfig parameterizes the Figure 1 hierarchy generator.
type TransitStubConfig struct {
	Config
	// Transits is the number of transit-core ISPs (fully peered clique).
	Transits int
	// Stubs is the number of local ISPs.
	Stubs int
	// MultihomeProb is the probability a stub buys transit from a second
	// provider.
	MultihomeProb float64
	// StubPeeringProb is the probability that two stubs sharing a provider
	// establish a peering link — the "peering agreements between closely
	// located ISPs" of §2.1.
	StubPeeringProb float64
}

// TransitStub builds a two-tier Internet: a clique of transit ISPs and
// stub ISPs buying transit from random providers, with optional
// multihoming and stub peering. Transit-core peering links take
// 2×LinkDelay. Routing is valley-free. The returned network is always
// fully reachable.
func TransitStub(cfg TransitStubConfig) *underlay.Network {
	if cfg.Transits < 1 || cfg.Stubs < 1 {
		panic("topology: TransitStub needs ≥1 transit and ≥1 stub")
	}
	if cfg.Rand == nil {
		panic("topology: TransitStub requires Rand")
	}
	td := 2 * cfg.LinkDelay
	net := underlay.New()
	transits := make([]*underlay.AS, cfg.Transits)
	for i := range transits {
		transits[i] = net.AddAS(underlay.TransitISP, cfg.IntraDelay)
	}
	for i := 0; i < cfg.Transits; i++ {
		for j := i + 1; j < cfg.Transits; j++ {
			net.ConnectPeering(transits[i], transits[j], td)
		}
	}
	providerOf := make([]int, cfg.Stubs)
	stubs := make([]*underlay.AS, cfg.Stubs)
	for i := 0; i < cfg.Stubs; i++ {
		s := net.AddAS(underlay.LocalISP, cfg.IntraDelay)
		stubs[i] = s
		p := cfg.Rand.Intn(cfg.Transits)
		providerOf[i] = p
		net.ConnectTransit(s, transits[p], cfg.linkDelay())
		if cfg.MultihomeProb > 0 && cfg.Rand.Float64() < cfg.MultihomeProb && cfg.Transits > 1 {
			q := cfg.Rand.Intn(cfg.Transits)
			for q == p {
				q = cfg.Rand.Intn(cfg.Transits)
			}
			net.ConnectTransit(s, transits[q], cfg.linkDelay())
		}
	}
	if cfg.StubPeeringProb > 0 {
		for i := 0; i < cfg.Stubs; i++ {
			for j := i + 1; j < cfg.Stubs; j++ {
				if providerOf[i] == providerOf[j] && cfg.Rand.Float64() < cfg.StubPeeringProb {
					net.ConnectPeering(stubs[i], stubs[j], cfg.LinkDelay/2)
				}
			}
		}
	}
	return net
}

// BarabasiAlbert builds a scale-free AS graph: each new AS attaches to m
// existing ASes with probability proportional to their degree. Links are
// peering and the policy ShortestDelay (the model captures AS-graph shape,
// not economics).
func BarabasiAlbert(n, m int, cfg Config) *underlay.Network {
	if n < m+1 || m < 1 {
		panic("topology: BarabasiAlbert needs n ≥ m+1, m ≥ 1")
	}
	if cfg.Rand == nil {
		panic("topology: BarabasiAlbert requires Rand")
	}
	net := underlay.New()
	net.Policy = underlay.ShortestDelay
	ases := addLocals(net, n, cfg)
	// Repeated-node list for preferential attachment.
	var targets []int
	// Seed: clique over the first m+1 nodes.
	for i := 0; i <= m; i++ {
		for j := i + 1; j <= m; j++ {
			net.ConnectPeering(ases[i], ases[j], cfg.linkDelay())
			targets = append(targets, i, j)
		}
	}
	for v := m + 1; v < n; v++ {
		chosen := map[int]bool{}
		for len(chosen) < m {
			t := targets[cfg.Rand.Intn(len(targets))]
			if t != v {
				chosen[t] = true
			}
		}
		// Link and update the attachment list in sorted key order: map
		// order would make the link order (and the delay draws) vary
		// between runs of the same seed.
		for t := 0; t < n; t++ {
			if chosen[t] {
				net.ConnectPeering(ases[v], ases[t], cfg.linkDelay())
				targets = append(targets, v, t)
			}
		}
	}
	return net
}

// Waxman builds a random geometric AS graph on the unit square: ASes at
// uniform positions, edge probability alpha·exp(−d/(beta·L)) with L=√2,
// and link delay proportional to distance. Connectivity is guaranteed by
// adding a nearest-neighbor chain over any disconnected components.
func Waxman(n int, alpha, beta float64, cfg Config) *underlay.Network {
	if n < 2 {
		panic("topology: Waxman needs ≥2 ASes")
	}
	if cfg.Rand == nil {
		panic("topology: Waxman requires Rand")
	}
	net := underlay.New()
	net.Policy = underlay.ShortestDelay
	ases := addLocals(net, n, cfg)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = cfg.Rand.Float64()
		ys[i] = cfg.Rand.Float64()
	}
	l := math.Sqrt2
	dist := func(i, j int) float64 {
		return math.Hypot(xs[i]-xs[j], ys[i]-ys[j])
	}
	delayFor := func(d float64) sim.Duration {
		return cfg.LinkDelay*sim.Duration(d) + 1
	}
	connected := make(map[[2]int]bool)
	addEdge := func(i, j int) {
		if i > j {
			i, j = j, i
		}
		if i == j || connected[[2]int{i, j}] {
			return
		}
		connected[[2]int{i, j}] = true
		net.ConnectPeering(ases[i], ases[j], delayFor(dist(i, j)))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if cfg.Rand.Float64() < alpha*math.Exp(-dist(i, j)/(beta*l)) {
				addEdge(i, j)
			}
		}
	}
	// Connectivity fix-up: union-find, then join each component to its
	// nearest outside neighbor.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for e := range connected {
		parent[find(e[0])] = find(e[1])
	}
	for {
		// Find two components' closest pair.
		bestI, bestJ, bestD := -1, -1, math.Inf(1)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if find(i) != find(j) && dist(i, j) < bestD {
					bestI, bestJ, bestD = i, j, dist(i, j)
				}
			}
		}
		if bestI < 0 {
			break
		}
		addEdge(bestI, bestJ)
		parent[find(bestI)] = find(bestJ)
	}
	return net
}

func addLocals(net *underlay.Network, n int, cfg Config) []*underlay.AS {
	ases := make([]*underlay.AS, n)
	for i := 0; i < n; i++ {
		ases[i] = net.AddAS(underlay.LocalISP, cfg.IntraDelay)
	}
	return ases
}

// PlaceHosts attaches hostsPerAS hosts to every local ISP (and to transit
// ISPs when includeTransit is set), assigns access delays uniform in
// [minAccess, maxAccess), and scatters ground-truth geolocations: each AS
// gets a random center on the globe and its hosts a small dispersion
// around it, so geographic proximity correlates with (but does not equal)
// AS membership — the caveat of §2.4.
func PlaceHosts(net *underlay.Network, hostsPerAS int, includeTransit bool,
	minAccess, maxAccess sim.Duration, r *rand.Rand) []*underlay.Host {
	if r == nil {
		panic("topology: PlaceHosts requires rand")
	}
	var out []*underlay.Host
	for _, as := range net.ASes() {
		if as.Kind == underlay.TransitISP && !includeTransit {
			continue
		}
		// AS center: latitude in [-60,60], longitude in [-180,180).
		lat := r.Float64()*120 - 60
		lon := r.Float64()*360 - 180
		for i := 0; i < hostsPerAS; i++ {
			acc := minAccess
			if maxAccess > minAccess {
				acc += sim.Duration(r.Float64() * float64(maxAccess-minAccess))
			}
			h := net.AddHost(as, acc)
			h.Lat = clampLat(lat + r.NormFloat64()*1.5)
			h.Lon = wrapLon(lon + r.NormFloat64()*1.5)
			out = append(out, h)
		}
	}
	return out
}

func clampLat(lat float64) float64 {
	if lat > 89.9 {
		return 89.9
	}
	if lat < -89.9 {
		return -89.9
	}
	return lat
}

func wrapLon(lon float64) float64 {
	for lon >= 180 {
		lon -= 360
	}
	for lon < -180 {
		lon += 360
	}
	return lon
}

// Describe returns a short human-readable summary of a network.
func Describe(net *underlay.Network) string {
	nT, nL := 0, 0
	for _, as := range net.ASes() {
		if as.Kind == underlay.TransitISP {
			nT++
		} else {
			nL++
		}
	}
	nTr, nPe := 0, 0
	for _, l := range net.Links() {
		if l.Kind == underlay.Transit {
			nTr++
		} else {
			nPe++
		}
	}
	return fmt.Sprintf("%d ASes (%d transit, %d local), %d links (%d transit, %d peering), %d hosts",
		net.NumASes(), nT, nL, len(net.Links()), nTr, nPe, net.NumHosts())
}
