package geo

import (
	"math"
	"testing"
	"testing/quick"

	"unap2p/internal/sim"
)

func TestHaversineKnownDistances(t *testing.T) {
	frankfurt := Coord{50.1109, 8.6821}
	darmstadt := Coord{49.8728, 8.6512}
	newYork := Coord{40.7128, -74.0060}

	if d := Haversine(frankfurt, darmstadt); math.Abs(d-26.6) > 1.5 {
		t.Fatalf("FRA-DA = %.1f km, want ~26.6", d)
	}
	if d := Haversine(frankfurt, newYork); math.Abs(d-6206) > 60 {
		t.Fatalf("FRA-NYC = %.0f km, want ~6206", d)
	}
	if d := Haversine(frankfurt, frankfurt); d != 0 {
		t.Fatalf("self distance = %v", d)
	}
	// Antipodal-ish: half circumference ≈ 20015 km.
	if d := Haversine(Coord{0, 0}, Coord{0, 180}); math.Abs(d-20015) > 30 {
		t.Fatalf("antipodal = %.0f km", d)
	}
}

func TestGPSFix(t *testing.T) {
	r := sim.NewSource(1).Stream("gps")
	truth := Coord{49.87, 8.65}
	g := GPSReceiver{AccuracyM: 5}
	var sumErr float64
	const n = 2000
	for i := 0; i < n; i++ {
		fix := g.Fix(truth, r)
		if fix.Lat < -90 || fix.Lat > 90 || fix.Lon < -180 || fix.Lon > 180 {
			t.Fatalf("invalid fix %v", fix)
		}
		sumErr += Haversine(truth, fix) * 1000
	}
	mean := sumErr / n
	// Mean radial error of 2D Gaussian with σ=5 per axis is σ√(π/2) ≈ 6.27 m.
	if mean < 4 || mean > 9 {
		t.Fatalf("mean GPS error %.2f m, want ≈6.3", mean)
	}
	// Perfect receiver passes through.
	if fix := (GPSReceiver{}).Fix(truth, r); fix != truth {
		t.Fatal("zero-accuracy receiver must return truth")
	}
}

func TestBoxAroundAndContains(t *testing.T) {
	c := Coord{49.87, 8.65}
	box := BoxAround(c, 50)
	if !box.Contains(c) {
		t.Fatal("center not in box")
	}
	near := Coord{50.1, 8.68} // ~26 km away
	if !box.Contains(near) {
		t.Fatal("nearby point should be inside 50 km box")
	}
	far := Coord{52.52, 13.40} // Berlin, ~420 km
	if box.Contains(far) {
		t.Fatal("Berlin inside 50 km box of Darmstadt?")
	}
	// Polar clamping must not produce invalid boxes.
	pb := BoxAround(Coord{89.5, 0}, 200)
	if pb.MaxLat > 90 || pb.MinLon < -180 {
		t.Fatalf("polar box out of range: %+v", pb)
	}
}

// Property: haversine is a metric — symmetric, non-negative, triangle
// inequality (within floating tolerance).
func TestQuickHaversineMetric(t *testing.T) {
	mk := func(a, b uint16) Coord {
		return Coord{float64(a)/65535*170 - 85, float64(b)/65535*360 - 180}
	}
	f := func(a1, a2, b1, b2, c1, c2 uint16) bool {
		a, b, c := mk(a1, a2), mk(b1, b2), mk(c1, c2)
		dab, dba := Haversine(a, b), Haversine(b, a)
		if math.Abs(dab-dba) > 1e-9 || dab < 0 {
			return false
		}
		return Haversine(a, c) <= dab+Haversine(b, c)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStringers(t *testing.T) {
	c := Coord{49.8728, 8.6512}
	if s := c.String(); s != "(49.8728,8.6512)" {
		t.Fatalf("Coord.String = %q", s)
	}
}
