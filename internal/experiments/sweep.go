package experiments

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
)

// RunSeeds executes the experiment once per seed in [firstSeed,
// firstSeed+n), fanning out across GOMAXPROCS workers — the multi-seed
// replication every simulation study needs. Results return in seed order
// regardless of completion order, so sweeps are deterministic.
func RunSeeds(id string, base RunConfig, firstSeed int64, n int) ([]Result, error) {
	if n < 1 {
		return nil, fmt.Errorf("experiments: need at least one seed, got %d", n)
	}
	if _, ok := registry[id]; !ok {
		return nil, fmt.Errorf("unknown experiment %q", id)
	}
	results := make([]Result, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				cfg := base
				cfg.Seed = firstSeed + int64(i)
				results[i], _ = Run(id, cfg)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return results, nil
}

// CellStat summarizes one numeric table cell across a sweep.
type CellStat struct {
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	N    int     `json:"n"`
}

// Summarize aggregates a sweep: for every (row, column) position whose
// cells parse as numbers in *all* results, it reports mean/min/max. Rows
// are keyed by the first column's text, which must agree across seeds.
func Summarize(results []Result) (map[string][]CellStat, error) {
	if len(results) == 0 {
		return nil, fmt.Errorf("experiments: empty sweep")
	}
	first := results[0]
	out := make(map[string][]CellStat, len(first.Rows))
	for ri, row := range first.Rows {
		key := row[0]
		stats := make([]CellStat, len(row))
		for ci := 1; ci < len(row); ci++ {
			ok := true
			var vals []float64
			for _, r := range results {
				if ri >= len(r.Rows) || r.Rows[ri][0] != key {
					return nil, fmt.Errorf("experiments: row %q not stable across seeds", key)
				}
				v, err := parseCell(r.Rows[ri][ci])
				if err != nil {
					ok = false
					break
				}
				vals = append(vals, v)
			}
			if !ok {
				continue
			}
			st := CellStat{Min: vals[0], Max: vals[0], N: len(vals)}
			for _, v := range vals {
				st.Mean += v
				if v < st.Min {
					st.Min = v
				}
				if v > st.Max {
					st.Max = v
				}
			}
			st.Mean /= float64(len(vals))
			stats[ci] = st
		}
		out[key] = stats
	}
	return out, nil
}

// parseCell extracts the leading number from a table cell.
func parseCell(s string) (float64, error) {
	s = strings.TrimSpace(s)
	s = strings.TrimSuffix(s, "%")
	if i := strings.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	s = strings.TrimSuffix(s, "%")
	return strconv.ParseFloat(s, 64)
}
