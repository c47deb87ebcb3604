package coords

import (
	"reflect"
	"testing"

	"unap2p/internal/sim"
)

// refRound is the Round this package used to run: the remote node is
// cloned for every probe, as if its coordinate had travelled in a
// message. Round now hands Update the live node (Update only reads its
// remote, and a node never probes itself), which must change nothing.
func refRound(s *VivaldiSystem) {
	n := len(s.Nodes)
	if n < 2 {
		return
	}
	for i := 0; i < n; i++ {
		for k := 0; k < s.NeighborsPerRound; k++ {
			j := s.r.Intn(n)
			for j == i {
				j = s.r.Intn(n)
			}
			s.Probes++
			s.Nodes[i].Update(s.Nodes[j].Clone(), s.RTT(i, j), s.r)
		}
	}
}

func TestRoundMatchesClonePerProbe(t *testing.T) {
	for _, cfg := range []VivaldiConfig{
		DefaultVivaldiConfig(),
		{Dim: 5, CE: 0.25, CC: 0.25},
		{Dim: 12, CE: 0.25, CC: 0.25, UseHeight: true, MinHeight: 0.1}, // beyond the stack buffer
	} {
		a := NewVivaldiSystem(40, cfg, gridRTT(40), sim.NewSource(9).Stream("v"))
		b := NewVivaldiSystem(40, cfg, gridRTT(40), sim.NewSource(9).Stream("v"))
		for round := 0; round < 30; round++ {
			a.Round()
			refRound(b)
		}
		if a.Probes != b.Probes {
			t.Fatalf("dim %d: %d probes vs %d", cfg.Dim, a.Probes, b.Probes)
		}
		for i := range a.Nodes {
			if !reflect.DeepEqual(a.Nodes[i], b.Nodes[i]) {
				t.Fatalf("dim %d: node %d diverges from the clone-per-probe run:\n got %+v\nwant %+v",
					cfg.Dim, i, a.Nodes[i], b.Nodes[i])
			}
		}
	}
}

func TestVivaldiHotPathAllocs(t *testing.T) {
	r := sim.NewSource(2).Stream("v")
	cfg := DefaultVivaldiConfig()
	n, o := NewVivaldiNode(cfg), NewVivaldiNode(cfg)
	if a := testing.AllocsPerRun(200, func() { n.Update(o, 40, r) }); a != 0 {
		t.Errorf("Update allocates %.0f times per call, want 0", a)
	}
	s := NewVivaldiSystem(50, cfg, gridRTT(50), r)
	if a := testing.AllocsPerRun(20, s.Round); a != 0 {
		t.Errorf("Round allocates %.0f times per call, want 0", a)
	}
}
