// Package oracle implements the ISP-hosted oracle of Aggarwal, Feldmann
// and Scheideler ("Can ISPs and P2P users cooperate for improved
// performance?", CCR 2007 — [1] in the paper): a service run by the ISP
// that, given a client and a list of candidate peers, returns the list
// ranked by proximity in the ISP metric space (AS-hop distance, same-AS
// first). P2P clients consult it when choosing neighbors (biased neighbor
// selection) and optionally again when choosing a download source among
// QueryHits (the file-exchange stage that raises intra-AS transfers from
// ~10% to ~40%).
package oracle

import (
	"sort"

	"unap2p/internal/underlay"
)

// Oracle is the ISP component. One instance serves all ASes in simulation;
// conceptually each ISP deploys its own, and ranking only needs the
// AS-hop distances the ISP already learns from BGP.
type Oracle struct {
	net *underlay.Network
	// MaxList caps the length of the ranked list the oracle returns
	// (the "list size 100 / 1000" knob in the testlab study). Zero means
	// unlimited.
	MaxList int
	// Down simulates an oracle outage: Rank returns the input order
	// unchanged, so clients degrade to unbiased behaviour (failure
	// injection for §6's ISP-cooperation caveat).
	Down bool
	// Queries counts ranking requests served.
	Queries uint64
}

// New returns an oracle over the given underlay.
func New(net *underlay.Network) *Oracle { return &Oracle{net: net} }

// Rank returns candidates ordered by increasing AS-hop distance from the
// client (same AS first), preserving the input order among equals so
// results are deterministic. Unreachable candidates sort last. The
// returned slice is newly allocated; the input is not modified.
func (o *Oracle) Rank(client *underlay.Host, candidates []underlay.HostID) []underlay.HostID {
	o.Queries++
	out := append([]underlay.HostID(nil), candidates...)
	if !o.Down {
		key := func(id underlay.HostID) int {
			h := o.net.Host(id)
			d := o.net.ASHops(client.AS.ID, h.AS.ID)
			if d < 0 {
				return 1 << 30
			}
			return d
		}
		sort.SliceStable(out, func(i, j int) bool { return key(out[i]) < key(out[j]) })
	}
	if o.MaxList > 0 && len(out) > o.MaxList {
		out = out[:o.MaxList]
	}
	return out
}

// Best returns the closest candidate (or false when candidates is empty).
func (o *Oracle) Best(client *underlay.Host, candidates []underlay.HostID) (underlay.HostID, bool) {
	if len(candidates) == 0 {
		return 0, false
	}
	return o.Rank(client, candidates)[0], true
}
