// Package workload generates content catalogs and query streams: Zipf
// content popularity and the locality-correlated interest model observed
// by Rasti et al. ([25] in the paper) — "users' searches, whose desired
// contents are located in the proximity" — which is precisely why
// ISP-locality biasing works.
package workload

import (
	"math"
	"math/rand"

	"unap2p/internal/sim"
	"unap2p/internal/underlay"
)

// ItemID identifies a content item.
type ItemID int

// Catalog is the universe of shared content.
type Catalog struct {
	// NumItems is the catalog size.
	NumItems int
	// replicas maps item → hosts holding it.
	replicas map[ItemID][]underlay.HostID
	// holdings maps host → items held.
	holdings map[underlay.HostID][]ItemID
}

// NewCatalog returns an empty catalog of n items.
func NewCatalog(n int) *Catalog {
	return &Catalog{
		NumItems: n,
		replicas: make(map[ItemID][]underlay.HostID),
		holdings: make(map[underlay.HostID][]ItemID),
	}
}

// Place records that host h shares item it.
func (c *Catalog) Place(it ItemID, h underlay.HostID) {
	c.replicas[it] = append(c.replicas[it], h)
	c.holdings[h] = append(c.holdings[h], it)
}

// Replicas returns the hosts sharing an item.
func (c *Catalog) Replicas(it ItemID) []underlay.HostID { return c.replicas[it] }

// Has reports whether host h shares item it.
func (c *Catalog) Has(h underlay.HostID, it ItemID) bool {
	for _, have := range c.holdings[h] {
		if have == it {
			return true
		}
	}
	return false
}

// PopulateZipf distributes items over hosts with Zipf popularity: item
// rank k receives a replica count proportional to 1/(k+1)^s, with at least
// one replica, placed on uniformly random hosts.
func PopulateZipf(c *Catalog, hosts []*underlay.Host, meanReplicas float64, s float64, r *rand.Rand) {
	if len(hosts) == 0 || c.NumItems == 0 {
		return
	}
	// Normalizing constant for the truncated zeta distribution.
	var z float64
	for k := 0; k < c.NumItems; k++ {
		z += 1 / math.Pow(float64(k+1), s)
	}
	total := meanReplicas * float64(c.NumItems)
	for k := 0; k < c.NumItems; k++ {
		share := total * (1 / math.Pow(float64(k+1), s)) / z
		n := int(share + 0.5)
		if n < 1 {
			n = 1
		}
		if n > len(hosts) {
			n = len(hosts)
		}
		seen := make(map[int]bool, n)
		for len(seen) < n {
			i := r.Intn(len(hosts))
			if !seen[i] {
				seen[i] = true
				c.Place(ItemID(k), hosts[i].ID)
			}
		}
	}
}

// PopulateLocal places items with AS-locality correlation: each item gets
// a "home" AS; a fraction localBias of its replicas land on hosts of that
// AS, the rest anywhere. This reproduces the Rasti et al. observation that
// desired content tends to exist in the requester's proximity.
func PopulateLocal(c *Catalog, net *underlay.Network, hosts []*underlay.Host,
	replicasPerItem int, localBias float64, r *rand.Rand) {
	if len(hosts) == 0 || c.NumItems == 0 {
		return
	}
	byAS := make(map[int][]*underlay.Host)
	var asIDs []int
	for _, h := range hosts {
		if len(byAS[h.AS.ID]) == 0 {
			asIDs = append(asIDs, h.AS.ID)
		}
		byAS[h.AS.ID] = append(byAS[h.AS.ID], h)
	}
	for k := 0; k < c.NumItems; k++ {
		home := asIDs[r.Intn(len(asIDs))]
		placed := make(map[underlay.HostID]bool)
		for n := 0; n < replicasPerItem; n++ {
			var pool []*underlay.Host
			if r.Float64() < localBias {
				pool = byAS[home]
			} else {
				pool = hosts
			}
			h := pool[r.Intn(len(pool))]
			if !placed[h.ID] {
				placed[h.ID] = true
				c.Place(ItemID(k), h.ID)
			}
		}
	}
}

// Query is one search request.
type Query struct {
	From underlay.HostID
	Item ItemID
	At   sim.Time
}

// QueryGen produces a query stream.
type QueryGen struct {
	Catalog *Catalog
	Hosts   []*underlay.Host
	// LocalInterestBias is the probability that a querying peer asks for
	// an item that already has a replica in its own AS (locality-
	// correlated interests); the rest are Zipf-popular picks.
	LocalInterestBias float64
	// Zipf drives the popularity of non-local picks.
	Zipf *sim.Zipf
	Rand *rand.Rand

	net *underlay.Network
	// localItems caches AS → items with a replica in that AS.
	localItems map[int][]ItemID
}

// NewQueryGen builds a generator over a populated catalog.
func NewQueryGen(net *underlay.Network, c *Catalog, hosts []*underlay.Host,
	localBias float64, zipfS float64, r *rand.Rand) *QueryGen {
	g := &QueryGen{
		Catalog:           c,
		Hosts:             hosts,
		LocalInterestBias: localBias,
		Zipf:              sim.NewZipf(r, zipfS, c.NumItems),
		Rand:              r,
		net:               net,
		localItems:        make(map[int][]ItemID),
	}
	for it, hs := range c.replicas {
		seen := make(map[int]bool)
		for _, hid := range hs {
			as := net.Host(hid).AS.ID
			if !seen[as] {
				seen[as] = true
				g.localItems[as] = append(g.localItems[as], it)
			}
		}
	}
	// Deterministic ordering of the cached lists.
	for as := range g.localItems {
		items := g.localItems[as]
		for i := 1; i < len(items); i++ {
			for j := i; j > 0 && items[j] < items[j-1]; j-- {
				items[j], items[j-1] = items[j-1], items[j]
			}
		}
	}
	return g
}

// Next draws one query at time t from a random online host.
func (g *QueryGen) Next(t sim.Time) (Query, bool) {
	var from *underlay.Host
	for tries := 0; tries < 4*len(g.Hosts); tries++ {
		h := g.Hosts[g.Rand.Intn(len(g.Hosts))]
		if h.Up {
			from = h
			break
		}
	}
	if from == nil {
		return Query{}, false
	}
	var item ItemID
	local := g.localItems[from.AS.ID]
	if len(local) > 0 && g.Rand.Float64() < g.LocalInterestBias {
		item = local[g.Rand.Intn(len(local))]
	} else {
		item = ItemID(g.Zipf.Next())
	}
	return Query{From: from.ID, Item: item, At: t}, true
}
