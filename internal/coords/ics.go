package coords

import (
	"fmt"
	"math"

	"unap2p/internal/linalg"
)

// ICS is the landmark-based Internet Coordinate System of Lim, Hou and
// Choi (IEEE/ACM ToN 2005), the architecture reproduced in Figure 4 of the
// paper: a small set of beacon nodes measures mutual round-trip times; an
// administrative node applies PCA to the beacon distance matrix to obtain
// a linear transformation; any host then obtains an n-dimensional
// coordinate by measuring its delay to the beacons and multiplying by the
// transformation matrix ("GPS-like triangulation" with beacons as
// satellites).
type ICS struct {
	// D is the m×m beacon distance matrix (step S2).
	D *linalg.Matrix
	// Dim is the coordinate dimension n chosen in step S4.
	Dim int
	// Alpha is the scaling factor of their Eq. (11), fitted so embedded
	// distances match measured delays in a least-squares sense.
	Alpha float64
	// UBar is the scaled transformation matrix Ū = α·U (Eq. 12), U
	// being the unscaled m×n principal-component matrix of Eq. (8),
	// distributed to hosts in step H1.
	UBar *linalg.Matrix
	// BeaconCoords holds c̄_i = Ūᵀ d_i for each beacon i.
	BeaconCoords [][]float64
	// Sigma are the singular values of D, exposed for dimension studies.
	Sigma []float64
}

// ICSOptions configures calibration.
type ICSOptions struct {
	// Dim fixes the coordinate dimension; 0 means choose the smallest
	// dimension whose cumulative variation reaches VarThreshold (Eq. 9).
	Dim int
	// VarThreshold is the cumulative-variation cutoff when Dim is 0
	// (defaults to 0.95).
	VarThreshold float64
}

// BuildICS calibrates the system from the beacon distance matrix (the
// administrative node's steps S2–S5). The matrix must be square,
// symmetric and hollow (zero diagonal).
func BuildICS(d *linalg.Matrix, opts ICSOptions) (*ICS, error) {
	if d.Rows != d.Cols {
		return nil, fmt.Errorf("ics: distance matrix must be square, got %dx%d", d.Rows, d.Cols)
	}
	if !d.IsSymmetric(1e-9) {
		return nil, fmt.Errorf("ics: distance matrix must be symmetric")
	}
	for i := 0; i < d.Rows; i++ {
		if d.At(i, i) != 0 {
			return nil, fmt.Errorf("ics: nonzero self-delay at beacon %d", i)
		}
	}
	m := d.Rows
	_, sigma, _ := linalg.SVD(d)

	dim := opts.Dim
	if dim <= 0 {
		th := opts.VarThreshold
		if th <= 0 {
			th = 0.95
		}
		dim = linalg.ChooseDimension(sigma, th)
	}
	if dim > m {
		dim = m
	}

	u := linalg.PrincipalComponents(d, dim)

	// Unscaled beacon coordinates c_i = Uᵀ d_i.
	raw := make([][]float64, m)
	ut := u.T()
	for i := 0; i < m; i++ {
		raw[i] = ut.MulVec(d.Col(i))
	}

	// α minimizes Σ (α·l_ij − d_ij)² over beacon pairs: α = Σ l·d / Σ l².
	var num, den float64
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			l := linalg.L2(raw[i], raw[j])
			num += l * d.At(i, j)
			den += l * l
		}
	}
	alpha := 1.0
	if den > 0 {
		alpha = num / den
	}

	ubar := u.Scale(alpha)
	ubarT := ubar.T()
	coords := make([][]float64, m)
	for i := 0; i < m; i++ {
		coords[i] = ubarT.MulVec(d.Col(i))
	}

	return &ICS{
		D:            d,
		Dim:          dim,
		Alpha:        alpha,
		UBar:         ubar,
		BeaconCoords: coords,
		Sigma:        sigma,
	}, nil
}

// HostCoord computes a host's coordinate from its measured delay vector to
// every beacon (steps H2–H3: x_a = Ūᵀ · l_a).
func (s *ICS) HostCoord(delays []float64) ([]float64, error) {
	if len(delays) != s.D.Rows {
		return nil, fmt.Errorf("ics: need %d beacon delays, got %d", s.D.Rows, len(delays))
	}
	return s.UBar.T().MulVec(delays), nil
}

// Predict returns the estimated delay between two coordinates.
func (s *ICS) Predict(a, b []float64) float64 { return linalg.L2(a, b) }

// BeaconPredict returns the embedded distance between beacons i and j.
func (s *ICS) BeaconPredict(i, j int) float64 {
	return linalg.L2(s.BeaconCoords[i], s.BeaconCoords[j])
}

// FitError returns the root-mean-square error between embedded and
// measured beacon distances — the calibration quality metric.
func (s *ICS) FitError() float64 {
	m := s.D.Rows
	var ss float64
	n := 0
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			e := s.BeaconPredict(i, j) - s.D.At(i, j)
			ss += e * e
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(ss / float64(n))
}
