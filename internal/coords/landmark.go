package coords

import (
	"sort"
)

// Landmark-ordering bins (Ratnasamy et al., "Topologically-aware overlay
// construction and server selection", INFOCOM 2002 — [26] in the paper):
// each node measures its RTT to a fixed set of landmarks and sorts the
// landmarks by proximity; nodes with the same landmark ordering are likely
// topologically close. A coarser variant also buckets each RTT into
// distance classes.

// Bin is a node's landmark signature.
type Bin struct {
	// Order is the landmark permutation sorted by increasing RTT.
	Order []int
	// Level holds each landmark's RTT bucket, aligned with Order.
	Level []int
}

// BinConfig controls bucket boundaries.
type BinConfig struct {
	// Boundaries are the RTT thresholds (ms) separating distance classes;
	// e.g. [20, 100] yields classes <20, 20–100, ≥100.
	Boundaries []float64
}

// DefaultBinConfig uses the three-class split common in the literature.
func DefaultBinConfig() BinConfig { return BinConfig{Boundaries: []float64{20, 100}} }

// ComputeBin builds a node's bin from its landmark RTT vector.
func ComputeBin(rtts []float64, cfg BinConfig) Bin {
	order := make([]int, len(rtts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rtts[order[a]] < rtts[order[b]] })
	level := make([]int, len(rtts))
	for i, lm := range order {
		level[i] = bucket(rtts[lm], cfg.Boundaries)
	}
	return Bin{Order: order, Level: level}
}

func bucket(v float64, bounds []float64) int {
	for i, b := range bounds {
		if v < b {
			return i
		}
	}
	return len(bounds)
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
