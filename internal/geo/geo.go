// Package geo implements the geolocation substrate of §2.4/§3.3:
// great-circle distances, noisy GPS-fix sampling, and point-of-interest
// search primitives.
package geo

import (
	"fmt"
	"math"
	"math/rand"
)

// EarthRadiusKm is the mean Earth radius used for great-circle distances.
const EarthRadiusKm = 6371.0

// Coord is a WGS84 latitude/longitude pair in degrees.
type Coord struct {
	Lat, Lon float64
}

func (c Coord) String() string { return fmt.Sprintf("(%.4f,%.4f)", c.Lat, c.Lon) }

func rad(deg float64) float64 { return deg * math.Pi / 180 }

// Haversine returns the great-circle distance between two coordinates in
// kilometres.
func Haversine(a, b Coord) float64 {
	dLat := rad(b.Lat - a.Lat)
	dLon := rad(b.Lon - a.Lon)
	s := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(rad(a.Lat))*math.Cos(rad(b.Lat))*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * EarthRadiusKm * math.Asin(math.Min(1, math.Sqrt(s)))
}

// GPSReceiver models a satellite positioning fix (§3.3 "first class"):
// it perturbs the true position with Gaussian noise of the given accuracy.
type GPSReceiver struct {
	// AccuracyM is the 1-σ horizontal error in metres (consumer GPS ≈ 5 m,
	// Galileo ≈ 1 m).
	AccuracyM float64
}

// Fix returns a noisy position for a host truly located at c.
func (g GPSReceiver) Fix(c Coord, r *rand.Rand) Coord {
	if g.AccuracyM <= 0 {
		return c
	}
	// Convert metre-level noise to degrees (small-angle).
	dLat := r.NormFloat64() * g.AccuracyM / 111_320
	lonScale := 111_320 * math.Cos(rad(c.Lat))
	dLon := 0.0
	if lonScale > 1 {
		dLon = r.NormFloat64() * g.AccuracyM / lonScale
	}
	out := Coord{Lat: c.Lat + dLat, Lon: c.Lon + dLon}
	if out.Lat > 90 {
		out.Lat = 90
	}
	if out.Lat < -90 {
		out.Lat = -90
	}
	return out
}

// Box is a latitude/longitude bounding box (no date-line wrapping).
type Box struct {
	MinLat, MaxLat, MinLon, MaxLon float64
}

// Contains reports whether c lies within the box.
func (b Box) Contains(c Coord) bool {
	return c.Lat >= b.MinLat && c.Lat <= b.MaxLat &&
		c.Lon >= b.MinLon && c.Lon <= b.MaxLon
}

// BoxAround returns a box of ±radiusKm around a center (clamped at the
// poles; longitude span grows with latitude).
func BoxAround(c Coord, radiusKm float64) Box {
	dLat := radiusKm / 111.32
	cosLat := math.Cos(rad(c.Lat))
	dLon := 180.0
	if cosLat > 1e-6 {
		dLon = radiusKm / (111.32 * cosLat)
	}
	return Box{
		MinLat: math.Max(-90, c.Lat-dLat),
		MaxLat: math.Min(90, c.Lat+dLat),
		MinLon: math.Max(-180, c.Lon-dLon),
		MaxLon: math.Min(180, c.Lon+dLon),
	}
}
