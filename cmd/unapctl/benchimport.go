package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// BenchResult is one benchmark's parsed numbers. Repeated runs of the
// same benchmark (e.g. -count=3) are averaged; ns/op additionally keeps
// the minimum across runs. Scheduler and neighbor noise only ever adds
// time, so min-of-N is the stable estimate of a benchmark's true cost —
// the perf gate compares mins when both snapshots carry one.
type BenchResult struct {
	NsOp     float64 `json:"ns_op"`
	MinNsOp  float64 `json:"min_ns_op,omitempty"`
	BOp      float64 `json:"b_op,omitempty"`
	AllocsOp float64 `json:"allocs_op,omitempty"`
	Runs     int     `json:"runs"`
}

// cmdBenchImport parses `go test -bench -benchmem` text output from
// stdin into a stable JSON document — the perf trajectory artifact
// `make bench-json` seeds so future PRs can diff ns/op against this one.
func cmdBenchImport(args []string) error {
	fs := flag.NewFlagSet("bench-import", flag.ExitOnError)
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)

	results, err := parseBench(os.Stdin)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("bench-import: no benchmark lines on stdin")
	}
	data, err := json.MarshalIndent(benchDoc{Benchmarks: results}, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench-import: %d benchmarks -> %s\n", len(results), *out)
	return nil
}

// parseBench reads benchmark result lines of the form
//
//	BenchmarkName-8   1000000   123.4 ns/op   16 B/op   1 allocs/op
//
// averaging duplicates. Non-benchmark lines are ignored.
func parseBench(r io.Reader) (map[string]BenchResult, error) {
	type acc struct {
		ns, minNs, b, allocs float64
		runs                 int
	}
	sums := map[string]*acc{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// Strip the -<GOMAXPROCS> suffix so names are machine-portable.
		name := fields[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		a := sums[name]
		if a == nil {
			a = &acc{}
			sums[name] = a
		}
		ok := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				a.ns += v
				if a.runs == 0 || v < a.minNs {
					a.minNs = v
				}
				ok = true
			case "B/op":
				a.b += v
			case "allocs/op":
				a.allocs += v
			}
		}
		if ok {
			a.runs++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]BenchResult, len(sums))
	for name, a := range sums {
		if a.runs == 0 {
			continue
		}
		n := float64(a.runs)
		out[name] = BenchResult{
			NsOp: a.ns / n, MinNsOp: a.minNs,
			BOp: a.b / n, AllocsOp: a.allocs / n, Runs: a.runs,
		}
	}
	return out, nil
}
