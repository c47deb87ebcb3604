package kademlia

import (
	"unap2p/internal/sim"
	"unap2p/internal/underlay"
)

// LookupResult summarizes one iterative lookup.
type LookupResult struct {
	// Closest are the K nearest contacts found, nearest first.
	Closest []Contact
	// Hops is the number of lookup rounds.
	Hops int
	// Msgs is the number of RPC messages (requests + responses).
	Msgs int
	// Latency is the wall-clock cost: per round, the α requests run in
	// parallel, so the round costs the slowest RTT of the batch.
	Latency sim.Duration
	// Value is the payload when the lookup was a Get and a holder was
	// found.
	Value []byte
	// Found reports whether a Get located the value.
	Found bool
}

// Lookup performs an iterative FIND_NODE from the given host toward
// target, updating routing tables along the way (every response teaches
// the querier new contacts, and every queried node observes the querier).
func (d *DHT) Lookup(from underlay.HostID, target NodeID) LookupResult {
	return d.lookup(from, target, nil)
}

// Get performs FIND_VALUE: like Lookup but terminates early when a
// traversed node holds key.
func (d *DHT) Get(from underlay.HostID, key Key) LookupResult {
	return d.lookup(from, key, &key)
}

// cand is one lookup shortlist entry: a contact, its XOR distance to the
// target, and whether the lookup has already queried it.
type cand struct {
	c       Contact
	d       uint64
	queried bool
}

// offer inserts c into the lookup shortlist d.short, which is kept sorted
// by distance to the target and capped at the K best: a candidate beyond
// them can never re-enter (entries are only ever displaced by closer
// ones), so dropping it is the same as keeping it unqueried forever.
// Equal distance means equal ID, i.e. already listed.
func (d *DHT) offer(c Contact, dist uint64, queried bool) {
	s := d.short
	i := len(s)
	for i > 0 && s[i-1].d > dist {
		i--
	}
	if i == d.Cfg.K || (i > 0 && s[i-1].d == dist) {
		return
	}
	if len(s) < d.Cfg.K {
		s = append(s, cand{})
	}
	copy(s[i+1:], s[i:])
	s[i] = cand{c: c, d: dist, queried: queried}
	d.short = s
}

func (d *DHT) lookup(from underlay.HostID, target NodeID, valueKey *Key) LookupResult {
	origin := d.nodes[from]
	if origin == nil {
		return LookupResult{}
	}
	kind := "find_node"
	if valueKey != nil {
		kind = "find_value"
	}

	var res LookupResult
	d.short = d.short[:0]
	// The origin never queries itself: it enters the shortlist (when a
	// peer hands it back) already marked queried.
	add := func(c Contact) { d.offer(c, Distance(c.ID, target), c.ID == origin.ID) }
	for _, c := range origin.closest(target, d.Cfg.K) {
		add(c)
	}
	topContacts := func() []Contact {
		out := make([]Contact, 0, d.Cfg.K)
		for _, s := range d.short {
			out = append(out, s.c)
		}
		return out
	}

	for {
		// Pick up to α unqueried candidates among the K best.
		batch := d.batch[:0]
		for i := range d.short {
			if len(batch) == d.Cfg.Alpha {
				break
			}
			if s := &d.short[i]; !s.queried {
				s.queried = true
				batch = append(batch, s.c)
			}
		}
		d.batch = batch
		if len(batch) == 0 {
			break
		}
		res.Hops++
		var roundLatency sim.Duration
		for _, c := range batch {
			peer := d.byID[c.ID]
			if peer == nil || !peer.host.Up {
				continue // dead contact: RPC times out, contributes nothing
			}
			// Request and response through the transport (which counts
			// both messages, charges the underlay, and records the
			// AS-pair traffic).
			rt := d.T.RoundTrip(origin.host, peer.host,
				d.Cfg.RPCBytes, d.Cfg.RPCBytes, kind, "response")
			res.Msgs += 2
			if !rt.OK {
				continue // RPC lost: times out, contributes nothing
			}
			if rt.Latency > roundLatency {
				roundLatency = rt.Latency
			}
			// The queried node learns about the querier; the querier
			// learns the peer's K closest to the target.
			peer.observe(origin.Contact)
			if valueKey != nil {
				if v, ok := peer.store[*valueKey]; ok {
					res.Latency += roundLatency
					res.Value = v
					res.Found = true
					res.Closest = topContacts()
					return res
				}
			}
			for _, learned := range peer.closest(target, d.Cfg.K) {
				origin.observe(learned)
				add(learned)
			}
		}
		res.Latency += roundLatency
	}

	res.Closest = topContacts()
	return res
}

// Put stores value under key on the K closest nodes found by a lookup
// from the given host, counting one STORE RPC per replica.
func (d *DHT) Put(from underlay.HostID, key Key, value []byte) LookupResult {
	res := d.Lookup(from, key)
	origin := d.nodes[from]
	for _, c := range res.Closest {
		peer := d.byID[c.ID]
		if peer == nil || !peer.host.Up {
			continue
		}
		sr := d.T.Send(origin.host, peer.host, d.Cfg.RPCBytes+uint64(len(value)), "store")
		res.Msgs++
		if !sr.OK {
			continue // STORE lost: this replica is not written
		}
		peer.store[key] = value
	}
	// The origin may itself be among the K closest.
	if origin != nil && withinKClosest(d, key, origin.ID) {
		origin.store[key] = value
	}
	return res
}

// withinKClosest reports whether id is among the true K closest node IDs
// to key (global knowledge used only for the origin's self-store check).
func withinKClosest(d *DHT, key Key, id NodeID) bool {
	own, closer := Distance(id, key), 0
	for _, n := range d.sorted {
		if Distance(n.ID, key) < own {
			closer++
		}
	}
	return closer < d.Cfg.K
}
