package coords

import (
	"testing"

	"unap2p/internal/linalg"
	"unap2p/internal/sim"
)

// BenchmarkVivaldiUpdate measures one coordinate update — the per-probe
// cost of running Vivaldi.
func BenchmarkVivaldiUpdate(b *testing.B) {
	r := sim.NewSource(1).Stream("bench")
	a, o := NewVivaldiNode(), NewVivaldiNode()
	o.Pos[0] = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Update(o, 42, r)
	}
}

// BenchmarkVivaldiRound measures one gossip round over 100 nodes.
func BenchmarkVivaldiRound(b *testing.B) {
	r := sim.NewSource(2).Stream("bench")
	s := NewVivaldiSystem(100, gridRTT(100), r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Round()
	}
}

// BenchmarkBuildICS measures full beacon calibration (SVD + PCA + α fit)
// for 16 beacons.
func BenchmarkBuildICS(b *testing.B) {
	const m = 16
	d := linalg.NewMatrix(m, m)
	rtt := gridRTT(m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i != j {
				d.Set(i, j, rtt(i, j))
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildICS(d, ICSOptions{VarThreshold: 0.95}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHostCoord measures the per-host coordinate computation (H3).
func BenchmarkHostCoord(b *testing.B) {
	const m = 16
	d := linalg.NewMatrix(m, m)
	rtt := gridRTT(m)
	delays := make([]float64, m)
	for i := 0; i < m; i++ {
		delays[i] = rtt(i, 0) + 1
		for j := 0; j < m; j++ {
			if i != j {
				d.Set(i, j, rtt(i, j))
			}
		}
	}
	ics, err := BuildICS(d, ICSOptions{Dim: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ics.HostCoord(delays); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComputeBin measures landmark-bin derivation.
func BenchmarkComputeBin(b *testing.B) {
	rtts := []float64{12, 88, 45, 190, 7, 33, 140, 61}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeBin(rtts)
	}
}
