// Package geo implements the geolocation substrate of §2.4/§3.3:
// great-circle distances, the UTM (Universal Transverse Mercator)
// representation the paper cites for satellite positioning, noisy GPS-fix
// sampling, and point-of-interest search primitives.
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
func deg(rad float64) float64 { return rad * 180 / math.Pi }

// Haversine returns the great-circle distance between two coordinates in
// kilometres.
func Haversine(a, b Coord) float64 {
	dLat := rad(b.Lat - a.Lat)
	dLon := rad(b.Lon - a.Lon)
	s := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(rad(a.Lat))*math.Cos(rad(b.Lat))*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * EarthRadiusKm * math.Asin(math.Min(1, math.Sqrt(s)))
}

// WGS84 ellipsoid constants.
const (
	wgs84A = 6378137.0         // semi-major axis, metres
	wgs84F = 1 / 298.257223563 // flattening
	utmK0  = 0.9996            // UTM scale factor
	utmE0  = 500000.0          // false easting
	utmN0S = 10000000.0        // false northing, southern hemisphere
)

// UTM is a Universal Transverse Mercator position: zone number, hemisphere
// and metric easting/northing — the coordinate system the paper notes is
// "typically used" to represent satellite-derived geolocation (§3.3).
type UTM struct {
	Zone     int
	Northern bool
	Easting  float64 // metres
	Northing float64 // metres
}

func (u UTM) String() string {
	h := "S"
	if u.Northern {
		h = "N"
	}
	return fmt.Sprintf("%d%s %.1fE %.1fN", u.Zone, h, u.Easting, u.Northing)
}

// ZoneFor returns the UTM zone number for a longitude.
func ZoneFor(lon float64) int {
	z := int(math.Floor((lon+180)/6)) + 1
	if z < 1 {
		z = 1
	}
	if z > 60 {
		z = 60
	}
	return z
}

// zoneCentralMeridian returns the central meridian of a zone in degrees.
func zoneCentralMeridian(zone int) float64 { return float64(zone-1)*6 - 180 + 3 }

// ToUTM projects a WGS84 coordinate to UTM using the Krüger series
// (accurate to well under a metre away from the poles).
func ToUTM(c Coord) UTM {
	zone := ZoneFor(c.Lon)
	lat := rad(c.Lat)
	lon := rad(c.Lon - zoneCentralMeridian(zone))

	n := wgs84F / (2 - wgs84F)
	aBar := wgs84A / (1 + n) * (1 + n*n/4 + n*n*n*n/64)

	t := math.Sinh(math.Atanh(math.Sin(lat)) -
		2*math.Sqrt(n)/(1+n)*math.Atanh(2*math.Sqrt(n)/(1+n)*math.Sin(lat)))
	xi := math.Atan2(t, math.Cos(lon))
	eta := math.Atanh(math.Sin(lon) / math.Sqrt(1+t*t))

	a1 := n/2 - 2*n*n/3 + 5*n*n*n/16
	a2 := 13*n*n/48 - 3*n*n*n/5
	a3 := 61 * n * n * n / 240

	xiP := xi + a1*math.Sin(2*xi)*math.Cosh(2*eta) +
		a2*math.Sin(4*xi)*math.Cosh(4*eta) +
		a3*math.Sin(6*xi)*math.Cosh(6*eta)
	etaP := eta + a1*math.Cos(2*xi)*math.Sinh(2*eta) +
		a2*math.Cos(4*xi)*math.Sinh(4*eta) +
		a3*math.Cos(6*xi)*math.Sinh(6*eta)

	easting := utmE0 + utmK0*aBar*etaP
	northing := utmK0 * aBar * xiP
	northern := c.Lat >= 0
	if !northern {
		northing += utmN0S
	}
	return UTM{Zone: zone, Northern: northern, Easting: easting, Northing: northing}
}

// FromUTM inverts ToUTM.
func FromUTM(u UTM) Coord {
	n := wgs84F / (2 - wgs84F)
	aBar := wgs84A / (1 + n) * (1 + n*n/4 + n*n*n*n/64)

	northing := u.Northing
	if !u.Northern {
		northing -= utmN0S
	}
	xiP := northing / (utmK0 * aBar)
	etaP := (u.Easting - utmE0) / (utmK0 * aBar)

	b1 := n/2 - 2*n*n/3 + 37*n*n*n/96
	b2 := n*n/48 + n*n*n/15
	b3 := 17 * n * n * n / 480

	xi := xiP - b1*math.Sin(2*xiP)*math.Cosh(2*etaP) -
		b2*math.Sin(4*xiP)*math.Cosh(4*etaP) -
		b3*math.Sin(6*xiP)*math.Cosh(6*etaP)
	eta := etaP - b1*math.Cos(2*xiP)*math.Sinh(2*etaP) -
		b2*math.Cos(4*xiP)*math.Sinh(4*etaP) -
		b3*math.Cos(6*xiP)*math.Sinh(6*etaP)

	chi := math.Asin(math.Sin(xi) / math.Cosh(eta))
	d1 := 2*n - 2*n*n/3 - 2*n*n*n
	d2 := 7*n*n/3 - 8*n*n*n/5
	d3 := 56 * n * n * n / 15
	lat := chi + d1*math.Sin(2*chi) + d2*math.Sin(4*chi) + d3*math.Sin(6*chi)
	lon := math.Atan2(math.Sinh(eta), math.Cos(xi))

	return Coord{Lat: deg(lat), Lon: deg(lon) + zoneCentralMeridian(u.Zone)}
}

// UTMDistance returns the planar distance in metres between two positions
// in the same zone; it panics on zone mismatch (cross-zone geometry must
// use Haversine).
func UTMDistance(a, b UTM) float64 {
	if a.Zone != b.Zone || a.Northern != b.Northern {
		panic("geo: UTMDistance across zones")
	}
	return math.Hypot(a.Easting-b.Easting, a.Northing-b.Northing)
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
