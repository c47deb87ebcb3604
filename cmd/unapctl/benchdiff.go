package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"unap2p/internal/metrics"
)

// benchDoc is the on-disk shape bench-import writes.
type benchDoc struct {
	Benchmarks map[string]BenchResult `json:"benchmarks"`
}

func readBenchDoc(path string) (map[string]BenchResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc benchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return doc.Benchmarks, nil
}

// benchDelta is one benchmark's baseline-vs-current comparison.
type benchDelta struct {
	name         string
	metric       string
	base, cur    float64
	rel          float64
	isRegression bool // grew, on a metric that gates
	advisory     bool // a time metric: listed, never gates
}

// cmdBenchDiff compares two bench-import JSON snapshots — the CI perf
// gate. It returns the number of regressions: benchmarks present in both
// files whose B/op or allocs/op grew beyond the threshold — the two
// columns that are exact and the same on every machine. ns/op moves
// beyond the threshold are listed as advisory rows and never gate: on a
// shared machine the min ns/op of unchanged code reads ±25% between
// back-to-back runs, and a gate that is always red gates nothing; time is
// gated by the paired end-to-end runs on BENCHMARK.json. Benchmarks
// that exist in only one file are reported informationally but never
// gate (new benchmarks appear, obsolete ones go). Improvements beyond
// the threshold are listed too, so intentional wins are visible.
func cmdBenchDiff(args []string) (int, error) {
	fs := flag.NewFlagSet("bench-diff", flag.ExitOnError)
	threshold := fs.Float64("threshold", 0.15, "relative growth beyond which a benchmark fails the gate")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return 0, fmt.Errorf("bench-diff: want <baseline.json> <current.json>")
	}
	base, err := readBenchDoc(fs.Arg(0))
	if err != nil {
		return 0, err
	}
	cur, err := readBenchDoc(fs.Arg(1))
	if err != nil {
		return 0, err
	}

	names := metrics.SortedKeys(base)
	var deltas []benchDelta
	onlyBase, onlyCur := []string{}, []string{}
	for _, n := range names {
		c, ok := cur[n]
		if !ok {
			onlyBase = append(onlyBase, n)
			continue
		}
		b := base[n]
		// Compare time on min-of-runs when both snapshots carry it (noise
		// only inflates a run, so the min is the stabler cost estimate);
		// fall back to the mean for old snapshots. Bytes and allocs are
		// deterministic, so the mean is fine there.
		baseNs, curNs, nsMetric := b.NsOp, c.NsOp, "ns/op"
		if b.MinNsOp > 0 && c.MinNsOp > 0 {
			baseNs, curNs, nsMetric = b.MinNsOp, c.MinNsOp, "min ns/op"
		}
		for _, m := range []struct {
			metric    string
			base, cur float64
			advisory  bool
		}{
			{nsMetric, baseNs, curNs, true},
			{"B/op", b.BOp, c.BOp, false},
			{"allocs/op", b.AllocsOp, c.AllocsOp, false},
		} {
			if m.base <= 0 {
				// A zero-alloc baseline regresses on any allocation.
				if m.cur > 0 {
					deltas = append(deltas, benchDelta{
						name: n, metric: m.metric, base: m.base, cur: m.cur,
						rel: 1, isRegression: !m.advisory, advisory: m.advisory,
					})
				}
				continue
			}
			rel := (m.cur - m.base) / m.base
			if rel > *threshold || rel < -*threshold {
				deltas = append(deltas, benchDelta{
					name: n, metric: m.metric, base: m.base, cur: m.cur,
					rel: rel, isRegression: rel > 0 && !m.advisory, advisory: m.advisory,
				})
			}
		}
	}
	for _, n := range metrics.SortedKeys(cur) {
		if _, ok := base[n]; !ok {
			onlyCur = append(onlyCur, n)
		}
	}

	regressions := 0
	for _, d := range deltas {
		if d.isRegression {
			regressions++
		}
	}
	if len(deltas) == 0 {
		fmt.Printf("perf gate clean: %d shared benchmarks within ±%.0f%% (%s vs %s)\n",
			len(names)-len(onlyBase), 100**threshold, fs.Arg(0), fs.Arg(1))
	} else {
		fmt.Printf("%d benchmark metrics moved beyond ±%.0f%% (%d regressions):\n",
			len(deltas), 100**threshold, regressions)
		fmt.Printf("%-56s %-10s %14s %14s %9s\n", "benchmark", "metric", "baseline", "current", "delta")
		for _, d := range deltas {
			tag := "improved"
			switch {
			case d.isRegression:
				tag = "REGRESSED"
			case d.advisory && d.rel > 0:
				tag = "slower (advisory)"
			case d.advisory:
				tag = "faster (advisory)"
			}
			fmt.Printf("%-56s %-10s %14.2f %14.2f %+8.1f%%  %s\n",
				d.name, d.metric, d.base, d.cur, 100*d.rel, tag)
		}
	}
	if len(onlyBase) > 0 {
		fmt.Printf("only in baseline (not gated): %v\n", onlyBase)
	}
	if len(onlyCur) > 0 {
		fmt.Printf("only in current (not gated): %v\n", onlyCur)
	}
	return regressions, nil
}
