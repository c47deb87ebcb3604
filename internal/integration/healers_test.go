package integration

import (
	"reflect"
	"sort"
	"testing"

	"unap2p/internal/chaos"
	"unap2p/internal/core"
	"unap2p/internal/overlay/bittorrent"
	"unap2p/internal/overlay/brocade"
	"unap2p/internal/overlay/chord"
	"unap2p/internal/overlay/geotree"
	"unap2p/internal/overlay/gnutella"
	"unap2p/internal/overlay/gsh"
	"unap2p/internal/overlay/kademlia"
	"unap2p/internal/overlay/streaming"
	"unap2p/internal/resilience"
	"unap2p/internal/resources"
	"unap2p/internal/sim"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

// healer is what every overlay's heal.go plus the shared
// resilience.Ledger add up to.
type healer interface {
	resilience.Healer
	chaos.Subject
}

// TestHealersEvictIsIdempotent holds all eight overlays to the ledger
// contract they share: evicting a peer twice (with a recanted-looking
// Suspect in between) leaves exactly the state one eviction left, the
// evicted peers are gone from every reference, and Evicted() is sorted
// whatever order the verdicts arrived in.
func TestHealersEvictIsIdempotent(t *testing.T) {
	builders := []struct {
		name  string
		build func(tr *transport.Transport, hosts []*underlay.Host, src *sim.Source) healer
	}{
		{"kademlia", func(tr *transport.Transport, hosts []*underlay.Host, src *sim.Source) healer {
			d := kademlia.New(tr, nil, kademlia.DefaultConfig(), src.Stream("dht"))
			for _, h := range hosts {
				d.AddNode(h)
			}
			d.Bootstrap(4)
			return d
		}},
		{"gnutella", func(tr *transport.Transport, hosts []*underlay.Host, src *sim.Source) healer {
			ov := gnutella.New(tr, nil, gnutella.DefaultConfig(), src.Stream("overlay"))
			for i, h := range hosts {
				ov.AddNode(h, i%4 == 0)
			}
			ov.JoinAll()
			return ov
		}},
		{"chord", func(tr *transport.Transport, hosts []*underlay.Host, src *sim.Source) healer {
			ring := chord.New(tr, nil, src.Stream("ring"))
			for _, h := range hosts {
				ring.AddNode(h)
			}
			ring.Build()
			return ring
		}},
		{"bittorrent", func(tr *transport.Transport, hosts []*underlay.Host, src *sim.Source) healer {
			s := bittorrent.NewSwarm(tr, nil, bittorrent.DefaultConfig(), src.Stream("swarm"))
			s.AddSeed(hosts[0])
			for _, h := range hosts[1:] {
				s.AddLeecher(h)
			}
			s.AssignNeighbors()
			return s
		}},
		{"geotree", func(tr *transport.Transport, hosts []*underlay.Host, _ *sim.Source) healer {
			gt := geotree.New(tr, core.GeoSelector{})
			for _, h := range hosts {
				gt.Insert(h)
			}
			return gt
		}},
		{"gsh", func(tr *transport.Transport, hosts []*underlay.Host, _ *sim.Source) healer {
			o := gsh.New(tr, core.GeoSelector{})
			for _, h := range hosts {
				o.Join(h)
			}
			o.Publish(hosts[7], gsh.HashKey("item"))
			return o
		}},
		{"brocade", func(tr *transport.Transport, hosts []*underlay.Host, _ *sim.Source) healer {
			return brocade.Build(tr, nil, hosts)
		}},
		{"streaming", func(tr *transport.Transport, hosts []*underlay.Host, src *sim.Source) healer {
			table := resources.GenerateAll(tr.Underlay(), src.Stream("res"))
			sel := &core.ResourceSelector{Table: table, WeightParents: true}
			m := streaming.NewMesh(tr, sel, hosts[0], src.Stream("mesh"))
			for _, h := range hosts[1:] {
				m.AddViewer(h)
			}
			m.AssignParents()
			return m
		}},
	}
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			net, hosts, src := buildWorld(5, 5)
			h := b.build(transport.New(net, sim.NewKernel()), hosts, src)
			if got := h.Evicted(); len(got) != 0 {
				t.Fatalf("fresh overlay reports evictions %v", got)
			}
			// Descending order, so a ledger that merely appends fails
			// the sortedness check.
			first, second := hosts[7], hosts[3]
			for _, victim := range []*underlay.Host{first, second} {
				victim.Up = false
				h.Suspect(victim.ID)
				h.Evict(victim.ID)
			}
			evicted, refs := h.Evicted(), h.Refs()
			if want := []underlay.HostID{second.ID, first.ID}; !reflect.DeepEqual(evicted, want) {
				t.Fatalf("Evicted() = %v, want sorted %v", evicted, want)
			}
			if !sort.SliceIsSorted(refs, func(i, j int) bool { return refs[i] < refs[j] }) {
				t.Fatalf("Refs() not sorted: %v", refs)
			}
			if v := chaos.Check(b.name, h).Violations; len(v) != 0 {
				t.Fatalf("evicted peers still referenced: %v", v)
			}

			h.Suspect(first.ID)
			h.Evict(first.ID)
			if got := h.Evicted(); !reflect.DeepEqual(got, evicted) {
				t.Fatalf("second Evict changed the ledger: %v → %v", evicted, got)
			}
			if got := h.Refs(); !reflect.DeepEqual(got, refs) {
				t.Fatalf("second Evict changed the overlay's references:\n once %v\ntwice %v", refs, got)
			}
		})
	}
}
