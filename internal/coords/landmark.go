package coords

import (
	"sort"
)

// Landmark-ordering bins (Ratnasamy et al., "Topologically-aware overlay
// construction and server selection", INFOCOM 2002 — [26] in the paper):
// each node measures its RTT to a fixed set of landmarks and sorts the
// landmarks by proximity; nodes with the same landmark ordering are likely
// topologically close.

// Bin is a node's landmark signature.
type Bin struct {
	// Order is the landmark permutation sorted by increasing RTT.
	Order []int
}

// ComputeBin builds a node's bin from its landmark RTT vector.
func ComputeBin(rtts []float64) Bin {
	order := make([]int, len(rtts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rtts[order[a]] < rtts[order[b]] })
	return Bin{Order: order}
}

// Similarity scores how alike two bins are: the length of the common
// prefix of their landmark orderings, normalized to [0,1]. Higher means
// likelier proximity.
func (b Bin) Similarity(o Bin) float64 {
	n := len(b.Order)
	if len(o.Order) < n {
		n = len(o.Order)
	}
	if n == 0 {
		return 0
	}
	common := 0
	for i := 0; i < n; i++ {
		if b.Order[i] != o.Order[i] {
			break
		}
		common++
	}
	return float64(common) / float64(n)
}
