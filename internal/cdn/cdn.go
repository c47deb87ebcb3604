// Package cdn simulates a content distribution network and the Ono
// technique of Choffnes & Bustamante ("Taming the torrent", SIGCOMM 2008 —
// [5] in the paper): a CDN redirects each client to the edge cluster with
// the least load and shortest path; two peers that are frequently
// redirected to the same clusters are inferred to be close — locality
// information obtained without any ISP cooperation or active probing.
package cdn

import (
	"math"
	"math/rand"
	"sort"

	"unap2p/internal/sim"
	"unap2p/internal/underlay"
)

// Cluster is one CDN edge site, hosted inside an AS.
type Cluster struct {
	ID   int
	Host *underlay.Host
	// Load is the current synthetic load factor added to the redirection
	// score (captures the "least load" half of CDN server selection).
	Load float64
}

// CDN is the simulated content distribution network.
type CDN struct {
	net      *underlay.Network
	Clusters []*Cluster
	// LoadJitter is the magnitude of random load fluctuation applied at
	// each redirection — it makes redirections stochastic, so ratio maps
	// carry more information than a single lookup.
	LoadJitter float64
	// Rand drives load fluctuation.
	Rand *rand.Rand
	// Redirections counts lookups served.
	Redirections uint64
}

// Deploy places one edge cluster in each of the given ASes (using the
// first host of the AS as the server's attachment point).
func Deploy(net *underlay.Network, asIDs []int, r *rand.Rand) *CDN {
	c := &CDN{net: net, LoadJitter: 0.3, Rand: r}
	for _, asID := range asIDs {
		hosts := net.HostsInAS(asID)
		var h *underlay.Host
		if len(hosts) > 0 {
			h = hosts[0]
		} else {
			h = net.AddHost(net.AS(asID), 1)
		}
		c.Clusters = append(c.Clusters, &Cluster{ID: len(c.Clusters), Host: h})
	}
	return c
}

// Redirect returns the cluster chosen for a client: minimum of
// (path latency + load + jitter). This is the observable behaviour peers
// exploit; they never see the latency or load directly.
func (c *CDN) Redirect(client *underlay.Host) *Cluster {
	c.Redirections++
	best, bestScore := -1, math.Inf(1)
	for i, cl := range c.Clusters {
		score := float64(c.net.Latency(client, cl.Host)) + cl.Load
		if c.Rand != nil && c.LoadJitter > 0 {
			score += c.Rand.Float64() * c.LoadJitter * float64(sim.Second) / 10
		}
		if score < bestScore {
			best, bestScore = i, score
		}
	}
	return c.Clusters[best]
}

// RatioMap is a peer's observed distribution over edge clusters — Ono's
// core data structure.
type RatioMap map[int]float64

// ObserveRatioMap performs n redirections for a client and returns the
// normalized frequency of each cluster.
func (c *CDN) ObserveRatioMap(client *underlay.Host, n int) RatioMap {
	counts := make(map[int]int)
	for i := 0; i < n; i++ {
		counts[c.Redirect(client).ID]++
	}
	rm := make(RatioMap, len(counts))
	for id, k := range counts {
		rm[id] = float64(k) / float64(n)
	}
	return rm
}

// Cosine returns the cosine similarity of two ratio maps in [0,1]; Ono
// treats peers above a threshold (0.15 in the paper) as likely close.
// Keys are visited in sorted order so the floating-point sums — and
// therefore every downstream ranking decision — are deterministic.
func Cosine(a, b RatioMap) float64 {
	var dot, na, nb float64
	for _, id := range sortedKeys(a) {
		va := a[id]
		dot += va * b[id]
		na += va * va
	}
	for _, id := range sortedKeys(b) {
		vb := b[id]
		nb += vb * vb
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

func sortedKeys(m RatioMap) []int {
	keys := make([]int, 0, len(m))
	for id := range m {
		keys = append(keys, id)
	}
	sort.Ints(keys)
	return keys
}
