package sim

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// Source is a deterministic random source for a simulation run. Components
// derive independent substreams by name so that adding randomness to one
// component does not perturb another (a classic reproducibility trap in
// simulation studies).
type Source struct {
	seed uint64
}

// NewSource returns a Source rooted at seed.
func NewSource(seed int64) *Source { return &Source{seed: uint64(seed)} }

// Stream returns a *rand.Rand whose sequence depends only on the root seed
// and the stream name.
func (s *Source) Stream(name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	mixed := Mix64((s.seed ^ h.Sum64()) + splitmixGamma)
	return rand.New(rand.NewSource(int64(mixed)))
}

// Fork returns a child Source for a named subcomponent; its streams are
// independent of the parent's streams of the same name.
func (s *Source) Fork(name string) *Source {
	h := fnv.New64a()
	h.Write([]byte("fork/"))
	h.Write([]byte(name))
	return &Source{seed: Mix64((s.seed ^ h.Sum64()) + splitmixGamma)}
}

// splitmixGamma is the SplitMix64 generator's increment: Source derives
// each seed as the generator's next output, Mix64(state + gamma).
const splitmixGamma = 0x9e3779b97f4a7c15

// Mix64 is the finalizer of the SplitMix64 generator: a stateless
// bijection that decorrelates nearby inputs. It is the one stateless
// draw of the module — every hash of (seed, peer, counter) that must not
// depend on the order or the shard it is drawn on (megascale ids and
// targets, sharded churn, rendezvous weights) derives from it.
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Exp draws an exponentially distributed duration with the given mean,
// a convenience wrapper used by churn and workload generators.
func Exp(r *rand.Rand, mean Duration) Duration {
	if mean <= 0 {
		return 0
	}
	return Duration(r.ExpFloat64() * float64(mean))
}

// Weibull draws from a Weibull distribution with shape k and scale lambda.
// Shape < 1 yields the heavy-tailed session lengths observed in P2P churn
// studies.
func Weibull(r *rand.Rand, shape, scale float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return scale * math.Pow(-math.Log(u), 1/shape)
}

// Zipf returns a rank in [0, n) drawn from a Zipf distribution with
// exponent s >= 1 (s=1 gives the classic harmonic popularity curve used for
// P2P content popularity).
type Zipf struct {
	z *rand.Zipf
}

// NewZipf builds a Zipf sampler over n items with exponent s (>1 required
// by math/rand; callers pass ~1.0+eps for classic popularity).
func NewZipf(r *rand.Rand, s float64, n int) *Zipf {
	if s <= 1 {
		s = 1.0000001
	}
	if n < 1 {
		n = 1
	}
	return &Zipf{z: rand.NewZipf(r, s, 1, uint64(n-1))}
}

// Next draws the next rank.
func (z *Zipf) Next() int { return int(z.z.Uint64()) }
