// Package brocade implements Brocade-style landmark routing on overlay
// networks (Zhao, Duan, Huang, Joseph, Kubiatowicz — IPTPS 2002, [36] in
// the paper): each autonomous system elects a well-provisioned supernode;
// supernodes form a fully-connected secondary overlay. A cross-domain
// message travels peer → local supernode → remote supernode → destination
// peer, crossing the wide area exactly once instead of the O(log N)
// inter-AS hops a flat DHT walk takes.
package brocade

import (
	"fmt"
	"sort"

	"unap2p/internal/core"
	"unap2p/internal/metrics"
	"unap2p/internal/resilience"
	"unap2p/internal/sim"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

// Overlay is a Brocade layer over a peer population.
type Overlay struct {
	// T carries routed messages; U serves topology queries.
	T *transport.Transport
	U *underlay.Network
	// MsgBytes is the size of one routed message.
	MsgBytes uint64
	// Msgs counts "hop" messages — a view of the transport's counters.
	Msgs *metrics.CounterSet

	// supernodes maps AS id → elected supernode host.
	supernodes map[int]underlay.HostID
	members    map[underlay.HostID]bool
	// groups keeps the per-AS member lists (id-sorted) so heal.go can
	// re-elect a supernode when one is evicted; sel is the election
	// policy Build ran with.
	groups map[int][]*underlay.Host
	sel    core.Selector
	// Ledger records the failure detector's evictions (see heal.go).
	resilience.Ledger
}

// Build elects one supernode per AS that has members via the selector's
// ElectSuperPeer verb — the member with the highest capacity score
// (Brocade chooses "supernodes with significant processing power and
// network bandwidth" near the wide-area access point). Ties break on
// host id for determinism. A nil selector (or one with no election
// preference) takes the lowest-id member of each AS.
func Build(tr *transport.Transport, sel core.Selector, members []*underlay.Host) *Overlay {
	if len(members) == 0 {
		panic("brocade: no members")
	}
	o := &Overlay{
		T:          tr,
		U:          tr.Underlay(),
		MsgBytes:   120,
		Msgs:       tr.Counters(),
		supernodes: make(map[int]underlay.HostID),
		members:    make(map[underlay.HostID]bool),
		sel:        sel,
	}
	sorted := append([]*underlay.Host(nil), members...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	groups := map[int][]*underlay.Host{}
	var asOrder []int
	for _, h := range sorted {
		o.members[h.ID] = true
		if _, ok := groups[h.AS.ID]; !ok {
			asOrder = append(asOrder, h.AS.ID)
		}
		groups[h.AS.ID] = append(groups[h.AS.ID], h)
	}
	for _, asID := range asOrder {
		group := groups[asID]
		super := group[0]
		if sel != nil {
			if h, ok := sel.ElectSuperPeer(group); ok {
				super = h
			}
		}
		o.supernodes[asID] = super.ID
	}
	o.groups = groups
	return o
}

// Supernode returns the supernode elected for an AS.
func (o *Overlay) Supernode(asID int) (underlay.HostID, bool) {
	id, ok := o.supernodes[asID]
	return id, ok
}

// Supernodes returns the number of elected supernodes.
func (o *Overlay) Supernodes() int { return len(o.supernodes) }

// RouteStats reports one routed message's cost.
type RouteStats struct {
	// Hops is the number of overlay legs traversed.
	Hops int
	// Latency is the end-to-end one-way delay.
	Latency sim.Duration
	// InterASCrossings counts legs whose endpoints are in different ASes
	// — each is wide-area traffic.
	InterASCrossings int
}

// Route delivers a message from src to dst through the landmark overlay:
// same-AS destinations go direct; cross-domain ones take the three-leg
// supernode path (legs collapse when src or dst *is* a supernode).
func (o *Overlay) Route(src, dst underlay.HostID) RouteStats {
	if !o.members[src] || !o.members[dst] {
		panic(fmt.Sprintf("brocade: %d→%d not members", src, dst))
	}
	from := o.U.Host(src)
	to := o.U.Host(dst)
	var st RouteStats
	if src == dst {
		return st
	}
	// leg sends one overlay hop; it reports false when the message was
	// lost, which aborts the remaining legs of the route.
	leg := func(a, b *underlay.Host) bool {
		if a.ID == b.ID {
			return true
		}
		sr := o.T.Send(a, b, o.MsgBytes, "hop")
		st.Hops++
		if !sr.OK {
			return false
		}
		st.Latency += sr.Latency
		if a.AS.ID != b.AS.ID {
			st.InterASCrossings++
		}
		return true
	}
	if from.AS.ID == to.AS.ID {
		leg(from, to)
		return st
	}
	// An AS whose supernode was evicted and could not be replaced (no
	// live members left) degrades to a direct wide-area leg.
	sn1ID, ok1 := o.supernodes[from.AS.ID]
	sn2ID, ok2 := o.supernodes[to.AS.ID]
	if !ok1 || !ok2 {
		leg(from, to)
		return st
	}
	sn1 := o.U.Host(sn1ID)
	sn2 := o.U.Host(sn2ID)
	if leg(from, sn1) && leg(sn1, sn2) {
		leg(sn2, to)
	}
	return st
}

// HealthStats feeds telemetry.Recorder.ObserveHealth: the state of
// the secondary overlay (pure reads, deterministic).
//
//   - supernodes: elected AS landmarks
//   - members: primary-overlay population
//   - members_per_supernode_mean: delegation fan-in per landmark
func (o *Overlay) HealthStats() map[string]float64 {
	out := map[string]float64{
		"supernodes": float64(len(o.supernodes)),
		"members":    float64(len(o.members)),
	}
	if len(o.supernodes) > 0 {
		out["members_per_supernode_mean"] = float64(len(o.members)) / float64(len(o.supernodes))
	}
	return out
}
