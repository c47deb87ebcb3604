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

func TestUTMKnownPoint(t *testing.T) {
	// TU Darmstadt: 49.8728N 8.6512E is UTM zone 32U, ~475151E 5524444N.
	u := ToUTM(Coord{49.8728, 8.6512})
	if u.Zone != 32 || !u.Northern {
		t.Fatalf("zone = %v", u)
	}
	if math.Abs(u.Easting-474949) > 1000 || math.Abs(u.Northing-5524130) > 1200 {
		t.Fatalf("utm = %v, want ~474949E 5524130N", u)
	}
}

func TestUTMRoundTrip(t *testing.T) {
	coords := []Coord{
		{49.8728, 8.6512},
		{-33.8688, 151.2093}, // Sydney, southern hemisphere
		{0.01, 0.01},
		{60, -135},
		{-45, 170},
	}
	for _, c := range coords {
		got := FromUTM(ToUTM(c))
		if math.Abs(got.Lat-c.Lat) > 1e-6 || math.Abs(got.Lon-c.Lon) > 1e-6 {
			t.Fatalf("round trip %v → %v", c, got)
		}
	}
}

func TestQuickUTMRoundTrip(t *testing.T) {
	f := func(latRaw, lonRaw uint16) bool {
		// Stay away from poles and zone edges handled by known tests.
		lat := float64(latRaw)/65535*160 - 80
		lon := float64(lonRaw)/65535*359.9 - 180
		c := Coord{lat, lon}
		got := FromUTM(ToUTM(c))
		return math.Abs(got.Lat-c.Lat) < 1e-5 && math.Abs(got.Lon-c.Lon) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUTMDistanceMatchesHaversineLocally(t *testing.T) {
	a := Coord{49.87, 8.65}
	b := Coord{49.93, 8.70}
	ua, ub := ToUTM(a), ToUTM(b)
	planar := UTMDistance(ua, ub) / 1000
	sphere := Haversine(a, b)
	if math.Abs(planar-sphere)/sphere > 0.01 {
		t.Fatalf("planar %.3f km vs haversine %.3f km", planar, sphere)
	}
}

func TestUTMDistancePanicsAcrossZones(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	UTMDistance(ToUTM(Coord{50, 8}), ToUTM(Coord{50, 20}))
}

func TestZoneFor(t *testing.T) {
	cases := []struct {
		lon  float64
		zone int
	}{{-180, 1}, {-177, 1}, {0, 31}, {8.65, 32}, {179.9, 60}}
	for _, c := range cases {
		if z := ZoneFor(c.lon); z != c.zone {
			t.Fatalf("ZoneFor(%v) = %d, want %d", c.lon, z, c.zone)
		}
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
	u := ToUTM(c)
	s := u.String()
	if len(s) == 0 || s[len(s)-1] != 'N' {
		t.Fatalf("UTM.String = %q", s)
	}
	south := ToUTM(Coord{-33.9, 151.2})
	if got := south.String(); got[2] != 'S' && got[3] != 'S' {
		t.Fatalf("southern hemisphere marker missing: %q", got)
	}
}
