package metrics

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	c := NewCounter("ping")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("value = %d, want 5", c.Value())
	}
	if s := c.String(); s != "ping=5" {
		t.Fatalf("String = %q", s)
	}
}

func TestCounterSet(t *testing.T) {
	s := NewCounterSet()
	s.Get("b").Inc()
	s.Get("a").Add(2)
	s.Get("b").Inc()
	if s.Value("a") != 2 || s.Value("b") != 2 {
		t.Fatalf("a=%d b=%d", s.Value("a"), s.Value("b"))
	}
	if s.Value("missing") != 0 {
		t.Fatal("missing counter should read 0")
	}
	if snap := s.Snapshot(); len(snap) != 2 || snap["a"] != 2 || snap["b"] != 2 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestDistBasic(t *testing.T) {
	d := NewDist()
	for _, v := range []float64{5, 1, 3, 2, 4} {
		d.Observe(v)
	}
	if d.N() != 5 {
		t.Fatalf("n = %d", d.N())
	}
	if d.Mean() != 3 {
		t.Fatalf("mean = %v", d.Mean())
	}
	if d.Max() != 5 {
		t.Fatalf("max = %v", d.Max())
	}
	if q := d.Quantile(0.5); q != 3 {
		t.Fatalf("median = %v", q)
	}
	if q := d.Quantile(0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := d.Quantile(1); q != 5 {
		t.Fatalf("q1 = %v", q)
	}
}

func TestDistEmpty(t *testing.T) {
	d := NewDist()
	if d.Mean() != 0 || d.Quantile(0.5) != 0 || d.Quantile(0) != 0 || d.Max() != 0 {
		t.Fatal("empty dist should report zeros")
	}
}

func TestDistObserveAfterQuantile(t *testing.T) {
	d := NewDist()
	d.Observe(10)
	_ = d.Quantile(0.5)
	d.Observe(1) // must re-sort
	if d.Quantile(0) != 1 {
		t.Fatalf("min after late observe = %v", d.Quantile(0))
	}
}

func Test95thPercentileBillingSemantics(t *testing.T) {
	// 100 samples 1..100: the 95th percentile by nearest rank is 95 —
	// the "top 5% of peaks are free" billing rule.
	d := NewDist()
	for i := 1; i <= 100; i++ {
		d.Observe(float64(i))
	}
	if q := d.Quantile(0.95); q != 95 {
		t.Fatalf("p95 = %v, want 95", q)
	}
}

func TestQuickDistQuantileMonotone(t *testing.T) {
	f := func(vals []float64, a, b float64) bool {
		d := NewDist()
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			d.Observe(v)
		}
		qa := math.Abs(math.Mod(a, 1))
		qb := math.Abs(math.Mod(b, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		return d.Quantile(qa) <= d.Quantile(qb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTrafficMatrix(t *testing.T) {
	m := NewTrafficMatrix()
	m.Add(1, 1, 100)
	m.Add(1, 2, 300)
	m.Add(2, 2, 100)
	if m.Total() != 500 || m.Intra() != 200 || m.Inter() != 300 {
		t.Fatalf("total/intra/inter = %d/%d/%d", m.Total(), m.Intra(), m.Inter())
	}
	if f := m.IntraFraction(); f != 0.4 {
		t.Fatalf("intra fraction = %v", f)
	}
	if m.Pair(1, 2) != 300 || m.Pair(2, 1) != 0 {
		t.Fatal("pair lookup wrong (matrix must be directed)")
	}
	ps := m.Pairs()
	if len(ps) != 3 || ps[0] != (ASPair{1, 1}) || ps[2] != (ASPair{2, 2}) {
		t.Fatalf("pairs = %v", ps)
	}
	s := m.Snapshot()
	want := MatrixSnapshot{Total: 500, Intra: 200, Pairs: []PairBytes{{1, 1, 100}, {1, 2, 300}, {2, 2, 100}}}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("snapshot = %+v, want %+v", s, want)
	}
	if got := s.IntraFraction(); got != 0.4 {
		t.Fatalf("snapshot IntraFraction = %v, want 0.4", got)
	}
	if (MatrixSnapshot{}).IntraFraction() != 0 {
		t.Fatal("empty matrix IntraFraction must be 0, not NaN")
	}
}

// conserves checks the bookkeeping invariant on a quiescent matrix: the
// cells sum to the total, and intra-AS bytes never exceed it.
func conserves(m *TrafficMatrix) bool {
	var sum uint64
	for _, p := range m.Pairs() {
		sum += m.Pair(p.Src, p.Dst)
	}
	return sum == m.Total() && m.Intra() <= m.Total()
}

func TestTrafficMatrixEmpty(t *testing.T) {
	m := NewTrafficMatrix()
	if m.IntraFraction() != 0 {
		t.Fatal("empty matrix fraction should be 0")
	}
	if !conserves(m) {
		t.Fatal("empty matrix should conserve")
	}
}

func TestQuickTrafficConservation(t *testing.T) {
	f := func(flows []struct {
		Src, Dst uint8
		N        uint16
	}) bool {
		m := NewTrafficMatrix()
		for _, fl := range flows {
			m.Add(int(fl.Src), int(fl.Dst), uint64(fl.N))
		}
		return conserves(m) && m.Intra()+m.Inter() == m.Total()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTrafficMatrixMatchesModel replays random Add sequences — few ASes,
// so pairs repeat, and zero-byte adds, which still register their pair —
// into a matrix and into a plain map, and compares every read.
func TestTrafficMatrixMatchesModel(t *testing.T) {
	f := func(flows []struct {
		Src, Dst uint8
		N        uint16
	}) bool {
		m := NewTrafficMatrix()
		model := map[ASPair]uint64{}
		var total, intra uint64
		for _, fl := range flows {
			src, dst, n := int(fl.Src%5), int(fl.Dst%5), uint64(fl.N%4)*uint64(fl.N)
			m.Add(src, dst, n)
			model[ASPair{src, dst}] += n
			total += n
			if src == dst {
				intra += n
			}
		}
		wantPairs := make([]ASPair, 0, len(model))
		for src := 0; src < 5; src++ {
			for dst := 0; dst < 5; dst++ {
				if _, ok := model[ASPair{src, dst}]; ok {
					wantPairs = append(wantPairs, ASPair{src, dst})
				}
			}
		}
		want := MatrixSnapshot{Total: total, Intra: intra}
		for _, p := range wantPairs {
			want.Pairs = append(want.Pairs, PairBytes{Src: p.Src, Dst: p.Dst, Bytes: model[p]})
		}
		wantFrac := 0.0
		if total > 0 {
			wantFrac = float64(intra) / float64(total)
		}
		for src := 0; src < 6; src++ { // AS 5 never sends: Pair reads 0
			for dst := 0; dst < 6; dst++ {
				if m.Pair(src, dst) != model[ASPair{src, dst}] {
					return false
				}
			}
		}
		return m.Total() == total && m.Intra() == intra && m.Inter() == total-intra &&
			m.IntraFraction() == wantFrac &&
			reflect.DeepEqual(m.Pairs(), wantPairs) &&
			reflect.DeepEqual(m.Snapshot(), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestIntraASEdgeFraction(t *testing.T) {
	as := []int{0, 0, 1, 1}
	edges := []Edge{{0, 1}, {2, 3}, {0, 2}, {1, 3}}
	if f := IntraASEdgeFraction(edges, as); f != 0.5 {
		t.Fatalf("fraction = %v, want 0.5", f)
	}
	if f := IntraASEdgeFraction(nil, as); f != 0 {
		t.Fatal("no edges should give 0")
	}
}

func TestModularityClusteredVsRandomShape(t *testing.T) {
	// Two communities of 4, fully intra-connected, one bridge: high Q.
	as := []int{0, 0, 0, 0, 1, 1, 1, 1}
	var clustered []Edge
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			clustered = append(clustered, Edge{i, j}, Edge{i + 4, j + 4})
		}
	}
	clustered = append(clustered, Edge{0, 4})
	// Bipartite-ish graph that ignores communities: low/negative Q.
	var mixed []Edge
	for i := 0; i < 4; i++ {
		for j := 4; j < 8; j++ {
			mixed = append(mixed, Edge{i, j})
		}
	}
	qc, qm := Modularity(clustered, as), Modularity(mixed, as)
	if qc <= qm {
		t.Fatalf("clustered Q=%v should exceed mixed Q=%v", qc, qm)
	}
	if qc < 0.3 {
		t.Fatalf("clustered Q=%v unexpectedly low", qc)
	}
	if Modularity(nil, as) != 0 {
		t.Fatal("no edges → Q=0")
	}
}

func TestComponentCount(t *testing.T) {
	if c := ComponentCount(5, []Edge{{0, 1}, {1, 2}}); c != 3 {
		t.Fatalf("components = %d, want 3", c)
	}
	if c := ComponentCount(3, []Edge{{0, 1}, {1, 2}, {0, 2}}); c != 1 {
		t.Fatalf("components = %d, want 1", c)
	}
	if c := ComponentCount(4, nil); c != 4 {
		t.Fatalf("components = %d, want 4", c)
	}
}

func TestInterASEdgeCountAndMeanDegree(t *testing.T) {
	as := []int{0, 1, 1}
	edges := []Edge{{0, 1}, {1, 2}}
	if n := InterASEdgeCount(edges, as); n != 1 {
		t.Fatalf("inter edges = %d, want 1", n)
	}
	if d := MeanDegree(4, edges); d != 1 {
		t.Fatalf("mean degree = %v, want 1", d)
	}
	if MeanDegree(0, nil) != 0 {
		t.Fatal("zero nodes → degree 0")
	}
}

func TestQuickComponentCountBounds(t *testing.T) {
	f := func(rawEdges []struct{ A, B uint8 }, nRaw uint8) bool {
		n := int(nRaw%32) + 1
		var edges []Edge
		for _, e := range rawEdges {
			edges = append(edges, Edge{int(e.A) % n, int(e.B) % n})
		}
		c := ComponentCount(n, edges)
		return c >= 1 && c <= n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestASHeatmap(t *testing.T) {
	as := []int{0, 0, 1, 1}
	clustered := []Edge{{0, 1}, {2, 3}}
	art := ASHeatmap(clustered, as)
	lines := strings.Split(strings.TrimSuffix(art, "\n"), "\n")
	if len(lines) != 2 || len(lines[0]) != 4 {
		t.Fatalf("heatmap shape wrong: %q", art)
	}
	// Diagonal cells darkest, off-diagonal blank.
	if lines[0][0] == ' ' || lines[1][2] == ' ' {
		t.Fatalf("diagonal not dark:\n%s", art)
	}
	if lines[0][2] != ' ' {
		t.Fatalf("off-diagonal not blank:\n%s", art)
	}
	if ASHeatmap(nil, as) != "(empty)\n" {
		t.Fatal("empty case wrong")
	}
}
