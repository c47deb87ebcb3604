package coords

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"unap2p/internal/linalg"
	"unap2p/internal/sim"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// limD is the beacon delay matrix of Lim et al. Examples 1/4: beacons 1,2
// in one AS and 3,4 in another, intra-AS delay 1, inter-AS delay 3.
func limD() *linalg.Matrix {
	return linalg.FromRows([][]float64{
		{0, 1, 3, 3},
		{1, 0, 3, 3},
		{3, 3, 0, 1},
		{3, 3, 1, 0},
	})
}

// TestICSLimExample4 asserts the exact published numbers of Example 4 in
// Lim et al. (reprinted in Figure 4's source): α = 0.6, the transformation
// matrix Ū₂, and the scaled beacon coordinates.
func TestICSLimExample4(t *testing.T) {
	ics, err := BuildICS(limD(), ICSOptions{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(ics.Alpha, 0.6, 1e-9) {
		t.Fatalf("alpha = %v, want 0.6", ics.Alpha)
	}
	wantUBar := linalg.FromRows([][]float64{
		{-0.3, -0.3},
		{-0.3, -0.3},
		{-0.3, 0.3},
		{-0.3, 0.3},
	})
	if ics.UBar.Sub(wantUBar).FrobeniusNorm() > 1e-9 {
		t.Fatalf("UBar =\n%v\nwant\n%v", ics.UBar, wantUBar)
	}
	wantCoords := [][]float64{
		{-2.1, 1.5}, {-2.1, 1.5}, {-2.1, -1.5}, {-2.1, -1.5},
	}
	for i, want := range wantCoords {
		for d := 0; d < 2; d++ {
			if !almost(ics.BeaconCoords[i][d], want[d], 1e-9) {
				t.Fatalf("beacon %d coord = %v, want %v", i, ics.BeaconCoords[i], want)
			}
		}
	}
	// "The distances between two hosts in different ASs is exactly 3."
	if !almost(ics.BeaconPredict(0, 2), 3, 1e-9) {
		t.Fatalf("inter-AS beacon distance = %v, want 3", ics.BeaconPredict(0, 2))
	}
}

// TestICSLimExample4FullDim asserts the n=4 variant: α = 0.5927,
// L2(c̄1,c̄2) = 0.8383 and L2(c̄1,c̄3) = 3.0224.
func TestICSLimExample4FullDim(t *testing.T) {
	ics, err := BuildICS(limD(), ICSOptions{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(ics.Alpha, 0.5927, 5e-5) {
		t.Fatalf("alpha = %v, want 0.5927", ics.Alpha)
	}
	if !almost(ics.BeaconPredict(0, 1), 0.8383, 5e-5) {
		t.Fatalf("L2(c1,c2) = %v, want 0.8383", ics.BeaconPredict(0, 1))
	}
	for _, pair := range [][2]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}} {
		if !almost(ics.BeaconPredict(pair[0], pair[1]), 3.0224, 5e-5) {
			t.Fatalf("L2(c%d,c%d) = %v, want 3.0224", pair[0]+1, pair[1]+1,
				ics.BeaconPredict(pair[0], pair[1]))
		}
	}
}

// TestICSLimExample5 asserts the host-coordinate numbers of Example 5:
// host A with delays (1,1,4,4) lands at (−3, 1.8) with beacon distances
// 0.94 / 3.42; host B with delays (10,10,10,10) lands at (−12, 0) with all
// beacon distances 10.01.
func TestICSLimExample5(t *testing.T) {
	ics, err := BuildICS(limD(), ICSOptions{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	xa, err := ics.HostCoord([]float64{1, 1, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(xa[0], -3, 1e-9) || !almost(xa[1], 1.8, 1e-9) {
		t.Fatalf("xa = %v, want [-3, 1.8]", xa)
	}
	if d := ics.Predict(ics.BeaconCoords[0], xa); !almost(d, 0.94, 0.01) {
		t.Fatalf("d(c1,xa) = %v, want ≈0.94", d)
	}
	if d := ics.Predict(ics.BeaconCoords[2], xa); !almost(d, 3.42, 0.01) {
		t.Fatalf("d(c3,xa) = %v, want ≈3.42", d)
	}

	xb, err := ics.HostCoord([]float64{10, 10, 10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(xb[0], -12, 1e-9) || !almost(xb[1], 0, 1e-9) {
		t.Fatalf("xb = %v, want [-12, 0]", xb)
	}
	for i := 0; i < 4; i++ {
		if d := ics.Predict(ics.BeaconCoords[i], xb); !almost(d, 10.01, 0.01) {
			t.Fatalf("d(c%d,xb) = %v, want ≈10.01", i+1, d)
		}
	}
}

func TestICSDimensionSelection(t *testing.T) {
	// σ = (7,5,1,1): cumulative variation 49/76, 74/76, 75/76, 1.
	ics, err := BuildICS(limD(), ICSOptions{VarThreshold: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if ics.Dim != 2 {
		t.Fatalf("chosen dim = %d, want 2 at threshold 0.95", ics.Dim)
	}
	ics2, _ := BuildICS(limD(), ICSOptions{}) // default threshold 0.95
	if ics2.Dim != 2 {
		t.Fatalf("default-threshold dim = %d, want 2", ics2.Dim)
	}
}

func TestICSValidation(t *testing.T) {
	if _, err := BuildICS(linalg.NewMatrix(2, 3), ICSOptions{}); err == nil {
		t.Fatal("non-square matrix accepted")
	}
	asym := linalg.FromRows([][]float64{{0, 1}, {2, 0}})
	if _, err := BuildICS(asym, ICSOptions{}); err == nil {
		t.Fatal("asymmetric matrix accepted")
	}
	selfDelay := linalg.FromRows([][]float64{{1, 2}, {2, 0}})
	if _, err := BuildICS(selfDelay, ICSOptions{}); err == nil {
		t.Fatal("nonzero diagonal accepted")
	}
	ics, _ := BuildICS(limD(), ICSOptions{Dim: 2})
	if _, err := ics.HostCoord([]float64{1, 2}); err == nil {
		t.Fatal("short delay vector accepted")
	}
	// Dim beyond matrix size is clamped.
	big, err := BuildICS(limD(), ICSOptions{Dim: 10})
	if err != nil || big.Dim != 4 {
		t.Fatalf("dim clamp: %v dim=%d", err, big.Dim)
	}
}

func TestICSFitErrorImprovesWithDim(t *testing.T) {
	d1, _ := BuildICS(limD(), ICSOptions{Dim: 1})
	d2, _ := BuildICS(limD(), ICSOptions{Dim: 2})
	if d2.FitError() > d1.FitError()+1e-12 {
		t.Fatalf("fit error rose with dimension: %v → %v", d1.FitError(), d2.FitError())
	}
}

// gridRTT places n nodes on a √n×√n grid with Euclidean RTTs — a latency
// space Vivaldi can embed almost perfectly.
func gridRTT(n int) func(i, j int) float64 {
	side := int(math.Ceil(math.Sqrt(float64(n))))
	return func(i, j int) float64 {
		xi, yi := float64(i%side)*10, float64(i/side)*10
		xj, yj := float64(j%side)*10, float64(j/side)*10
		return math.Hypot(xi-xj, yi-yj) + 2 // +2 keeps RTT positive
	}
}

func TestVivaldiConvergesOnEuclideanSpace(t *testing.T) {
	r := sim.NewSource(1).Stream("vivaldi")
	s := NewVivaldiSystem(36, gridRTT(36), r)
	s.Run(200)
	if mre := s.MedianRelativeError(); mre > 0.12 {
		t.Fatalf("median relative error = %v, want < 0.12", mre)
	}
	if s.Probes != 36*4*200 {
		t.Fatalf("probes = %d, want %d", s.Probes, 36*4*200)
	}
}

func TestVivaldiErrorDecreases(t *testing.T) {
	r := sim.NewSource(2).Stream("vivaldi2")
	s := NewVivaldiSystem(25, gridRTT(25), r)
	s.Run(5)
	early := s.MedianRelativeError()
	s.Run(195)
	late := s.MedianRelativeError()
	if late >= early {
		t.Fatalf("error did not decrease: %v → %v", early, late)
	}
}

func TestVivaldiHeightModel(t *testing.T) {
	// Access-delay-dominated space: constant 50 ms access at both ends,
	// tiny Euclidean part. Height model should fit it well.
	rtt := func(i, j int) float64 { return 100 + float64((i+j)%3) }
	r := sim.NewSource(3).Stream("vivaldi3")
	s := NewVivaldiSystem(20, rtt, r)
	s.Run(300)
	if mre := s.MedianRelativeError(); mre > 0.25 {
		t.Fatalf("height-model error = %v", mre)
	}
	for _, n := range s.Nodes {
		if n.Height < minHeight {
			t.Fatal("height fell below floor")
		}
	}
}

func TestVivaldiIgnoresNonPositiveRTT(t *testing.T) {
	r := sim.NewSource(4).Stream("vivaldi4")
	n, o := NewVivaldiNode(), NewVivaldiNode()
	n.Update(o, 0, r)
	n.Update(o, -5, r)
	if n.Samples != 0 {
		t.Fatal("non-positive RTT must be ignored")
	}
}

func TestVivaldiCoincidentNodesSeparate(t *testing.T) {
	r := sim.NewSource(5).Stream("vivaldi5")
	a, b := NewVivaldiNode(), NewVivaldiNode()
	a.Update(b.Clone(), 50, r) // both at origin: needs random direction
	if a.Pos == b.Pos {
		t.Fatal("node did not move off the origin")
	}
}

func TestVivaldiClone(t *testing.T) {
	a := NewVivaldiNode()
	a.Pos[0] = 7
	c := a.Clone()
	c.Pos[0] = 9
	if a.Pos[0] != 7 {
		t.Fatal("Clone aliases position")
	}
}

func TestComputeBinOrdering(t *testing.T) {
	b := ComputeBin([]float64{150, 10, 60})
	// Sorted by RTT: landmark 1 (10ms), 2 (60ms), 0 (150ms).
	if b.Order[0] != 1 || b.Order[1] != 2 || b.Order[2] != 0 {
		t.Fatalf("order = %v", b.Order)
	}
}

func TestBinSimilarity(t *testing.T) {
	a := ComputeBin([]float64{10, 50, 200})
	b := ComputeBin([]float64{12, 55, 190})
	c := ComputeBin([]float64{200, 50, 10})
	if s := a.Similarity(b); s != 1 {
		t.Fatalf("identical ordering similarity = %v", s)
	}
	if s := a.Similarity(c); s != 0 {
		t.Fatalf("reversed ordering similarity = %v", s)
	}
	var empty Bin
	if empty.Similarity(a) != 0 {
		t.Fatal("empty bin similarity should be 0")
	}
}

func TestBinsClusterSameASNodes(t *testing.T) {
	// Nodes in the same "AS" share landmark RTT shape; bins must agree.
	lmRTT := func(as int) []float64 {
		base := []float64{10, 80, 150}
		out := make([]float64, 3)
		for i := range out {
			out[i] = base[(i+as)%3]
		}
		return out
	}
	a1 := ComputeBin(lmRTT(0))
	a2 := ComputeBin(lmRTT(0))
	b1 := ComputeBin(lmRTT(1))
	if !reflect.DeepEqual(a1, a2) {
		t.Fatal("same-AS nodes got different bins")
	}
	if reflect.DeepEqual(a1, b1) {
		t.Fatal("different-AS nodes got identical bins")
	}
}

// Property: Vivaldi distance is symmetric and non-negative for any pair of
// coordinate states.
func TestQuickVivaldiDistanceSymmetric(t *testing.T) {
	f := func(p1, p2 [vivaldiDim]int8, h1, h2 uint8) bool {
		a, b := NewVivaldiNode(), NewVivaldiNode()
		for i := range a.Pos {
			a.Pos[i], b.Pos[i] = float64(p1[i]), float64(p2[i])
		}
		a.Height, b.Height = float64(h1)+0.1, float64(h2)+0.1
		return a.Distance(b) == b.Distance(a) && a.Distance(b) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the bin is a function of the RTT vector (deterministic)
// and bins of permuted-identical vectors differ when the ordering differs.
func TestQuickBinDeterministic(t *testing.T) {
	f := func(rtts [4]uint16) bool {
		v := []float64{float64(rtts[0]), float64(rtts[1]), float64(rtts[2]), float64(rtts[3])}
		return reflect.DeepEqual(ComputeBin(v), ComputeBin(v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
