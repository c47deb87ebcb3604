// Package coords implements the latency-prediction techniques of §3.2:
// the decentralized Vivaldi network coordinate system (Dabek et al.), the
// landmark/PCA Internet Coordinate System of Lim et al. (Figure 4), and
// landmark-ordering bins (Ratnasamy et al.). Prediction lets every peer
// estimate the latency to any other peer from a handful of measurements,
// avoiding the O(N²) probing overhead of explicit measurement.
package coords

import (
	"math"
	"math/rand"
	"sort"
)

// The Vivaldi paper's parameters: a 2-dimensional Euclidean space plus a
// height, and c_e = c_c = 0.25.
const (
	// vivaldiDim is the Euclidean dimensionality of the coordinate space.
	vivaldiDim = 2
	// vivaldiCE is the error-averaging weight c_e.
	vivaldiCE = 0.25
	// vivaldiCC is the timestep weight c_c.
	vivaldiCC = 0.25
	// minHeight floors the height component (ms of access delay).
	minHeight = 0.1
	// neighborsPerRound is how many random probes each node sends per
	// round (Vivaldi's steady-state gossip).
	neighborsPerRound = 4
)

// VivaldiNode is one participant's coordinate state. Predicted latency is
// the Euclidean part plus both nodes' heights (the height-vector model),
// capturing access-link delay that no Euclidean embedding can express.
type VivaldiNode struct {
	// Pos is the Euclidean component.
	Pos [vivaldiDim]float64
	// Height is the non-Euclidean height component.
	Height float64
	// Err is the node's confidence-weighted relative error estimate,
	// starting at 1 (no confidence).
	Err float64
	// Samples counts observations applied.
	Samples int
}

// NewVivaldiNode returns a node at the origin with error 1.
func NewVivaldiNode() *VivaldiNode {
	return &VivaldiNode{Height: minHeight, Err: 1}
}

// Distance predicts the latency between two coordinate states.
func (n *VivaldiNode) Distance(o *VivaldiNode) float64 {
	var s float64
	for i := range n.Pos {
		d := n.Pos[i] - o.Pos[i]
		s += d * d
	}
	// The heights are summed first: (a + b) + c would round differently.
	return math.Sqrt(s) + (n.Height + o.Height)
}

// Update applies one RTT observation against a remote node's coordinate.
// rtt must be positive; r supplies the random direction used when the two
// coordinates coincide. remote is only read, so a caller may pass another
// live node of the same system directly (Clone is for coordinates that
// travel in a message while their owner keeps moving).
func (n *VivaldiNode) Update(remote *VivaldiNode, rtt float64, r *rand.Rand) {
	if rtt <= 0 {
		return
	}
	n.Samples++

	// Sample weight balances local and remote confidence.
	w := 0.5
	if n.Err+remote.Err > 0 {
		w = n.Err / (n.Err + remote.Err)
	}

	// Vector from remote toward us (the spring's push direction, unit
	// once divided by its norm). Its norm is also the Euclidean part of
	// the predicted distance: the same operations, in the same order, as
	// Distance.
	var unit [vivaldiDim]float64
	var norm float64
	for i := range unit {
		unit[i] = n.Pos[i] - remote.Pos[i]
		norm += unit[i] * unit[i]
	}
	norm = math.Sqrt(norm)
	dist := norm + (n.Height + remote.Height)
	relErr := math.Abs(dist-rtt) / rtt

	// Exponentially weighted moving average of the relative error.
	n.Err = relErr*vivaldiCE*w + n.Err*(1-vivaldiCE*w)
	if n.Err > 2.0 {
		n.Err = 2.0
	}
	if n.Err < 0.001 {
		n.Err = 0.001
	}

	if norm < 1e-12 {
		// Coincident coordinates: pick a random direction.
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

	// Displacement along the spring: δ·(rtt − dist).
	delta := vivaldiCC * w
	force := delta * (rtt - dist)
	for i := range n.Pos {
		n.Pos[i] += force * unit[i]
	}
	// Heights absorb a proportional share of the force (Dabek §5.4):
	// stretching the spring raises both heights.
	denom := norm
	if denom < 1e-9 {
		denom = 1e-9
	}
	n.Height += force * n.Height / denom
	if n.Height < minHeight {
		n.Height = minHeight
	}
}

// Clone returns a copy of the node's coordinate state (used to exchange
// coordinates in messages without aliasing).
func (n *VivaldiNode) Clone() *VivaldiNode {
	c := *n
	return &c
}

// VivaldiSystem runs Vivaldi over a set of nodes against a ground-truth
// RTT function, in rounds where every node probes a few random neighbors.
// It is the driver experiments use to converge a coordinate system.
type VivaldiSystem struct {
	Nodes []VivaldiNode
	// RTT returns the true round-trip time between node indices.
	RTT func(i, j int) float64
	// Probes counts total measurements issued, for overhead accounting.
	Probes uint64

	r *rand.Rand
}

// NewVivaldiSystem creates n nodes at the origin. The nodes live in one
// slab, so the round loop walks contiguous memory.
func NewVivaldiSystem(n int, rtt func(i, j int) float64, r *rand.Rand) *VivaldiSystem {
	s := &VivaldiSystem{Nodes: make([]VivaldiNode, n), RTT: rtt, r: r}
	for i := range s.Nodes {
		s.Nodes[i] = *NewVivaldiNode()
	}
	return s
}

// Round performs one gossip round.
func (s *VivaldiSystem) Round() {
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
			s.Nodes[i].Update(&s.Nodes[j], s.RTT(i, j), s.r)
		}
	}
}

// Run performs the given number of rounds.
func (s *VivaldiSystem) Run(rounds int) {
	for i := 0; i < rounds; i++ {
		s.Round()
	}
}

// Predict returns the embedded distance between nodes i and j.
func (s *VivaldiSystem) Predict(i, j int) float64 {
	return s.Nodes[i].Distance(&s.Nodes[j])
}

// MedianRelativeError evaluates embedding quality over all pairs:
// median of |predicted − actual| / actual. Vivaldi typically converges to
// ≈ 0.1–0.3 on internet-like latency matrices.
func (s *VivaldiSystem) MedianRelativeError() float64 {
	var errs []float64
	n := len(s.Nodes)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			actual := s.RTT(i, j)
			if actual <= 0 {
				continue
			}
			errs = append(errs, math.Abs(s.Predict(i, j)-actual)/actual)
		}
	}
	if len(errs) == 0 {
		return 0
	}
	return median(errs)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// HealthStats feeds telemetry.Recorder.ObserveHealth: embedding
// quality over time — the convergence curve Dabek et al. judge Vivaldi
// by. MedianRelativeError is an O(n²) all-pairs evaluation, fine at
// simulated populations; sample accordingly.
//
//   - nodes: embedded population
//   - median_rel_error: median |predicted-actual|/actual RTT error
//   - probes: cumulative measurements issued (the collection cost)
func (s *VivaldiSystem) HealthStats() map[string]float64 {
	return map[string]float64{
		"nodes":            float64(len(s.Nodes)),
		"median_rel_error": s.MedianRelativeError(),
		"probes":           float64(s.Probes),
	}
}
