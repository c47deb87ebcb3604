package coords

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"unap2p/internal/sim"
)

// refUpdate is the Update this package used to run: Distance computes the
// diff vector and its square root, then the spring direction computes
// them again. Update now does it once, which must change no bit.
func refUpdate(n, remote *VivaldiNode, rtt float64, r *rand.Rand) {
	if rtt <= 0 {
		return
	}
	n.Samples++

	w := 0.5
	if n.Err+remote.Err > 0 {
		w = n.Err / (n.Err + remote.Err)
	}

	dist := n.Distance(remote)
	relErr := math.Abs(dist-rtt) / rtt

	ce := vivaldiCE
	n.Err = relErr*ce*w + n.Err*(1-ce*w)
	if n.Err > 2.0 {
		n.Err = 2.0
	}
	if n.Err < 0.001 {
		n.Err = 0.001
	}

	unit := make([]float64, len(n.Pos))
	var norm float64
	for i := range unit {
		unit[i] = n.Pos[i] - remote.Pos[i]
		norm += unit[i] * unit[i]
	}
	norm = math.Sqrt(norm)
	if norm < 1e-12 {
		for i := range unit {
			unit[i] = r.NormFloat64()
		}
		norm = 0
		for _, v := range unit {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm < 1e-12 {
			unit[0], norm = 1, 1
		}
	}
	for i := range unit {
		unit[i] /= norm
	}

	delta := vivaldiCC * w
	force := delta * (rtt - dist)
	for i := range n.Pos {
		n.Pos[i] += force * unit[i]
	}
	denom := norm
	if denom < 1e-9 {
		denom = 1e-9
	}
	n.Height += force * n.Height / denom
	if n.Height < minHeight {
		n.Height = minHeight
	}
}

// sameBits reports whether two node states are bit-identical.
func sameBits(a, b *VivaldiNode) bool {
	if a.Samples != b.Samples ||
		math.Float64bits(a.Height) != math.Float64bits(b.Height) ||
		math.Float64bits(a.Err) != math.Float64bits(b.Err) {
		return false
	}
	for i := range a.Pos {
		if math.Float64bits(a.Pos[i]) != math.Float64bits(b.Pos[i]) {
			return false
		}
	}
	return true
}

// TestQuickUpdateMatchesTwoPass runs Update and refUpdate from the same
// state and RNG: coincident and nearly coincident coordinates (the random
// direction must draw the same numbers) and non-positive RTTs (no-ops).
func TestQuickUpdateMatchesTwoPass(t *testing.T) {
	f := func(seed int64, shape uint8) bool {
		r := rand.New(rand.NewSource(seed))
		state := func() *VivaldiNode {
			n := NewVivaldiNode()
			for i := range n.Pos {
				n.Pos[i] = r.NormFloat64() * 100
			}
			n.Height = minHeight + r.Float64()*20
			n.Err = r.Float64() * 2
			n.Samples = r.Intn(100)
			return n
		}
		local, remote := state(), state()
		rtt := 1 + r.Float64()*300
		switch shape % 5 {
		case 1: // coincident coordinates
			remote.Pos = local.Pos
		case 2: // non-positive RTT
			rtt = -r.Float64() * float64(shape&4)
		case 3: // both at the origin, no confidence yet
			local, remote = NewVivaldiNode(), NewVivaldiNode()
		case 4: // nearly coincident: a norm below 1e-12 but not zero
			for i := range local.Pos {
				local.Pos[i], remote.Pos[i] = r.NormFloat64()*1e-13, 0
			}
		}
		a, b := local.Clone(), local.Clone()
		ra, rb := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for step := 0; step < 3; step++ { // repeated, so later steps start from moved states
			a.Update(remote, rtt, ra)
			refUpdate(b, remote, rtt, rb)
			if !sameBits(a, b) {
				t.Logf("shape %d step %d:\n got %+v\nwant %+v", shape%5, step, a, b)
				return false
			}
		}
		return ra.Int63() == rb.Int63() // the same draws were taken
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// NewVivaldiSystem's slab nodes start exactly as free-standing ones.
func TestSystemSlabMatchesNewVivaldiNode(t *testing.T) {
	s := NewVivaldiSystem(5, gridRTT(5), sim.NewSource(1).Stream("v"))
	for i := range s.Nodes {
		if want := NewVivaldiNode(); s.Nodes[i] != *want {
			t.Fatalf("slab node %d = %+v, want %+v", i, s.Nodes[i], want)
		}
	}
}

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
		for k := 0; k < neighborsPerRound; k++ {
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
	a := NewVivaldiSystem(40, gridRTT(40), sim.NewSource(9).Stream("v"))
	b := NewVivaldiSystem(40, gridRTT(40), sim.NewSource(9).Stream("v"))
	for round := 0; round < 30; round++ {
		a.Round()
		refRound(b)
	}
	if a.Probes != b.Probes {
		t.Fatalf("%d probes vs %d", a.Probes, b.Probes)
	}
	for i := range a.Nodes {
		if !sameBits(&a.Nodes[i], &b.Nodes[i]) {
			t.Fatalf("node %d diverges from the clone-per-probe run:\n got %+v\nwant %+v",
				i, a.Nodes[i], b.Nodes[i])
		}
	}
}

func TestVivaldiHotPathAllocs(t *testing.T) {
	r := sim.NewSource(2).Stream("v")
	n, o := NewVivaldiNode(), NewVivaldiNode()
	if a := testing.AllocsPerRun(200, func() { n.Update(o, 40, r) }); a != 0 {
		t.Errorf("Update allocates %.0f times per call, want 0", a)
	}
	s := NewVivaldiSystem(50, gridRTT(50), r)
	if a := testing.AllocsPerRun(20, s.Round); a != 0 {
		t.Errorf("Round allocates %.0f times per call, want 0", a)
	}
}
