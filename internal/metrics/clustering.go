package metrics

// Clustering statistics over an overlay graph whose vertices are labelled
// with an AS id. These quantify the ISP-boundary clustering visible in
// Figures 5 and 6 of the paper: biased neighbor selection turns a uniform
// random graph into per-AS clusters joined by a minimal number of inter-AS
// edges.

// Edge is an undirected overlay edge between node indices.
type Edge struct {
	A, B int
}

// IntraASEdgeFraction returns the fraction of edges whose endpoints share
// an AS, given a node→AS labelling. Aggarwal et al. measured <5% of
// Gnutella peers picking same-AS neighbors; the oracle raises this sharply.
func IntraASEdgeFraction(edges []Edge, as []int) float64 {
	if len(edges) == 0 {
		return 0
	}
	intra := 0
	for _, e := range edges {
		if as[e.A] == as[e.B] {
			intra++
		}
	}
	return float64(intra) / float64(len(edges))
}

// Modularity computes the Newman modularity Q of the partition of the
// overlay graph induced by the AS labelling. Q near 0 means the overlay
// ignores AS boundaries; Q approaching 1 means strong per-AS clustering.
func Modularity(edges []Edge, as []int) float64 {
	m := float64(len(edges))
	if m == 0 {
		return 0
	}
	deg := make(map[int]float64, len(as))
	for _, e := range edges {
		deg[e.A]++
		deg[e.B]++
	}
	// Sum over communities c of (e_c/m - (d_c/2m)^2).
	intra := make(map[int]float64) // edges inside community
	dsum := make(map[int]float64)  // total degree of community
	for _, e := range edges {
		if as[e.A] == as[e.B] {
			intra[as[e.A]]++
		}
	}
	for i, a := range as {
		dsum[a] += deg[i]
	}
	var q float64
	for c, d := range dsum {
		q += intra[c]/m - (d/(2*m))*(d/(2*m))
	}
	return q
}

// ComponentCount returns the number of connected components of the overlay
// graph on n nodes. The paper's key caveat for biased selection is keeping
// the network connected ("a minimal number of inter-AS connections
// necessary to keep the network connected"); experiments assert this stays 1.
func ComponentCount(n int, edges []Edge) int {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range edges {
		ra, rb := find(e.A), find(e.B)
		if ra != rb {
			parent[ra] = rb
		}
	}
	comps := 0
	for i := range parent {
		if find(i) == i {
			comps++
		}
	}
	return comps
}

// InterASEdgeCount returns the number of edges crossing AS boundaries.
func InterASEdgeCount(edges []Edge, as []int) int {
	n := 0
	for _, e := range edges {
		if as[e.A] != as[e.B] {
			n++
		}
	}
	return n
}

// MeanDegree returns the average vertex degree of the overlay graph.
func MeanDegree(n int, edges []Edge) float64 {
	if n == 0 {
		return 0
	}
	return 2 * float64(len(edges)) / float64(n)
}

// ASHeatmap renders the AS×AS overlay-edge density matrix as ASCII art —
// the textual equivalent of the overlay-topology visualizations in
// Figures 5 and 6: a biased overlay shows a dark diagonal (intra-AS
// clustering), an unbiased one a uniform haze.
func ASHeatmap(edges []Edge, as []int) string {
	maxAS := -1
	for _, a := range as {
		if a > maxAS {
			maxAS = a
		}
	}
	if maxAS < 0 || len(edges) == 0 {
		return "(empty)\n"
	}
	n := maxAS + 1
	counts := make([][]int, n)
	for i := range counts {
		counts[i] = make([]int, n)
	}
	peak := 0
	for _, e := range edges {
		a, b := as[e.A], as[e.B]
		counts[a][b]++
		if a != b {
			counts[b][a]++
		}
		if counts[a][b] > peak {
			peak = counts[a][b]
		}
		if counts[b][a] > peak {
			peak = counts[b][a]
		}
	}
	shades := []byte(" .:-=+*#%@")
	var sb []byte
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			idx := 0
			if peak > 0 {
				idx = counts[i][j] * (len(shades) - 1) / peak
			}
			sb = append(sb, shades[idx], shades[idx])
		}
		sb = append(sb, '\n')
	}
	return string(sb)
}
