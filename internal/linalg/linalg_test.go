package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatrixBasics(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(1, 0) != 3 {
		t.Fatalf("At = %v", m.At(1, 0))
	}
	m.Set(1, 0, 7)
	if m.At(1, 0) != 7 {
		t.Fatal("Set failed")
	}
	tr := m.T()
	if tr.At(0, 1) != 7 || tr.At(1, 0) != 2 {
		t.Fatalf("transpose wrong: %v", tr)
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Fatal("Clone aliases data")
	}
}

func TestMatrixMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := FromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	c := a.Mul(b)
	want := FromRows([][]float64{{58, 64}, {139, 154}})
	if c.Sub(want).FrobeniusNorm() > 1e-12 {
		t.Fatalf("Mul = %v", c)
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	v := a.MulVec([]float64{5, 6})
	if v[0] != 17 || v[1] != 39 {
		t.Fatalf("MulVec = %v", v)
	}
}

func TestMulDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	a.Mul(b)
}

func TestScaleColRowFirstCols(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	s := a.Scale(2)
	if s.At(1, 2) != 12 || a.At(1, 2) != 6 {
		t.Fatal("Scale must not mutate receiver")
	}
	col := a.Col(1)
	if col[0] != 2 || col[1] != 5 {
		t.Fatalf("Col = %v", col)
	}
	fc := a.FirstCols(2)
	if fc.Cols != 2 || fc.At(1, 1) != 5 {
		t.Fatalf("FirstCols = %v", fc)
	}
}

func TestIdentityAndSymmetric(t *testing.T) {
	id := Identity(3)
	if !id.IsSymmetric(0) {
		t.Fatal("identity not symmetric")
	}
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	if a.IsSymmetric(0.5) {
		t.Fatal("asymmetric matrix reported symmetric")
	}
	if NewMatrix(2, 3).IsSymmetric(0) {
		t.Fatal("non-square matrix reported symmetric")
	}
}

func TestVectorHelpers(t *testing.T) {
	if !almost(L2([]float64{0, 0}, []float64{3, 4}), 5, 1e-15) {
		t.Fatal("L2 wrong")
	}
}

// limExampleD is the beacon delay matrix implied by Examples 1/4 of
// Lim et al.: hosts 1,2 in one AS, hosts 3,4 in another; intra-AS delay 1,
// inter-AS delay 3.
func limExampleD() *Matrix {
	return FromRows([][]float64{
		{0, 1, 3, 3},
		{1, 0, 3, 3},
		{3, 3, 0, 1},
		{3, 3, 1, 0},
	})
}

func TestEigenSymLimMatrix(t *testing.T) {
	d := limExampleD()
	vals, vecs := EigenSym(d)
	// Analytical eigenvalues: 7 (on (1,1,1,1)), -5 (on (1,1,-1,-1)), -1, -1.
	want := []float64{7, -5, -1, -1}
	for i, w := range want {
		if !almost(vals[i], w, 1e-9) {
			t.Fatalf("eigenvalue[%d] = %v, want %v (all: %v)", i, vals[i], w, vals)
		}
	}
	// Reconstruction: D = Q Λ Qᵀ.
	lam := NewMatrix(4, 4)
	for i, v := range vals {
		lam.Set(i, i, v)
	}
	rec := vecs.Mul(lam).Mul(vecs.T())
	if rec.Sub(d).FrobeniusNorm() > 1e-9 {
		t.Fatalf("reconstruction error %v", rec.Sub(d).FrobeniusNorm())
	}
	// Orthonormality: QᵀQ = I.
	if vecs.T().Mul(vecs).Sub(Identity(4)).FrobeniusNorm() > 1e-9 {
		t.Fatal("eigenvectors not orthonormal")
	}
}

func TestEigenSymRandomReconstruction(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(9)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := r.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		vals, vecs := EigenSym(a)
		lam := NewMatrix(n, n)
		for i, v := range vals {
			lam.Set(i, i, v)
		}
		rec := vecs.Mul(lam).Mul(vecs.T())
		if err := rec.Sub(a).FrobeniusNorm(); err > 1e-8*(1+a.FrobeniusNorm()) {
			t.Fatalf("n=%d reconstruction error %v", n, err)
		}
		for i := 1; i < n; i++ {
			if math.Abs(vals[i]) > math.Abs(vals[i-1])+1e-12 {
				t.Fatalf("eigenvalues not sorted by |λ|: %v", vals)
			}
		}
	}
}

func TestEigenSymPanicsOnAsymmetric(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EigenSym(FromRows([][]float64{{1, 2}, {3, 4}}))
}

func TestSVDRandomReconstruction(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		m := 2 + r.Intn(10)
		n := 2 + r.Intn(10)
		a := NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
		}
		u, sigma, v := SVD(a)
		// Rebuild A = U Σ Vᵀ.
		k := len(sigma)
		sm := NewMatrix(k, k)
		for i, s := range sigma {
			sm.Set(i, i, s)
		}
		rec := u.Mul(sm).Mul(v.T())
		if err := rec.Sub(a).FrobeniusNorm(); err > 1e-8*(1+a.FrobeniusNorm()) {
			t.Fatalf("%dx%d reconstruction error %v", m, n, err)
		}
		for i := 1; i < k; i++ {
			if sigma[i] > sigma[i-1]+1e-12 {
				t.Fatalf("singular values not sorted: %v", sigma)
			}
			if sigma[i] < 0 {
				t.Fatalf("negative singular value: %v", sigma)
			}
		}
	}
}

func TestSVDMatchesEigenForSymmetric(t *testing.T) {
	d := limExampleD()
	_, sigma, _ := SVD(d)
	want := []float64{7, 5, 1, 1}
	for i, w := range want {
		if !almost(sigma[i], w, 1e-8) {
			t.Fatalf("sigma[%d] = %v, want %v", i, sigma[i], w)
		}
	}
}

func TestPrincipalComponentsSignConvention(t *testing.T) {
	un := PrincipalComponents(limExampleD(), 2)
	// Lim et al. Example 4: u1 = -(.5,.5,.5,.5), u2 = (-.5,-.5,.5,.5).
	want := FromRows([][]float64{
		{-0.5, -0.5},
		{-0.5, -0.5},
		{-0.5, 0.5},
		{-0.5, 0.5},
	})
	if un.Sub(want).FrobeniusNorm() > 1e-9 {
		t.Fatalf("principal components =\n%v\nwant\n%v", un, want)
	}
}

func TestCumulativeVariationAndChooseDimension(t *testing.T) {
	sigma := []float64{7, 5, 1, 1}
	cv := CumulativeVariation(sigma)
	// total = 49+25+1+1 = 76.
	if !almost(cv[0], 49.0/76, 1e-12) || !almost(cv[1], 74.0/76, 1e-12) || !almost(cv[3], 1, 1e-12) {
		t.Fatalf("cv = %v", cv)
	}
	if d := ChooseDimension(sigma, 0.9); d != 2 {
		t.Fatalf("dimension at 0.9 = %d, want 2", d)
	}
	if d := ChooseDimension(sigma, 0.98); d != 3 {
		t.Fatalf("dimension at 0.98 = %d, want 3 (cv=%v)", d, cv)
	}
	if d := ChooseDimension(sigma, 0.999); d != 4 {
		t.Fatalf("dimension at 0.999 = %d, want 4", d)
	}
	if d := ChooseDimension(sigma, 0.5); d != 1 {
		t.Fatalf("dimension at 0.5 = %d, want 1", d)
	}
	if ChooseDimension(nil, 0.9) != 0 {
		t.Fatal("empty sigma should give 0")
	}
}

// Property: Jacobi eigendecomposition preserves the trace (Σλ = tr A) and
// Frobenius norm (Σλ² = ‖A‖²) of any symmetric matrix we feed it.
func TestQuickEigenInvariants(t *testing.T) {
	f := func(raw [6]int8) bool {
		a := NewMatrix(3, 3)
		k := 0
		for i := 0; i < 3; i++ {
			for j := i; j < 3; j++ {
				v := float64(raw[k]) / 8
				a.Set(i, j, v)
				a.Set(j, i, v)
				k++
			}
		}
		vals, _ := EigenSym(a)
		var trace, sumsq float64
		for i := 0; i < 3; i++ {
			trace += a.At(i, i)
		}
		var ltrace, lsumsq float64
		for _, v := range vals {
			ltrace += v
			lsumsq += v * v
		}
		fn := a.FrobeniusNorm()
		sumsq = fn * fn
		return almost(trace, ltrace, 1e-8) && almost(sumsq, lsumsq, 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: L2 satisfies the triangle inequality and symmetry.
func TestQuickL2Metric(t *testing.T) {
	f := func(a, b, c [3]int8) bool {
		av := []float64{float64(a[0]), float64(a[1]), float64(a[2])}
		bv := []float64{float64(b[0]), float64(b[1]), float64(b[2])}
		cv := []float64{float64(c[0]), float64(c[1]), float64(c[2])}
		return almost(L2(av, bv), L2(bv, av), 1e-12) &&
			L2(av, cv) <= L2(av, bv)+L2(bv, cv)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
