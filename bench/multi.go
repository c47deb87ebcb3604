package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// spec is the part of BENCHMARK.json — the contract this program is
// measured by — that -agree and the tests read.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the checkout root: the working
// directory when run through run.sh, its parent under go test.
func loadSpec() (spec, error) {
	var s spec
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		if err := json.Unmarshal(b, &s); err != nil {
			return s, fmt.Errorf("%s: %w", path, err)
		}
		return s, nil
	}
	return s, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// child re-executes this binary for one workload, so that every run has
// a process (and a VmHWM) of its own, and parses the result line.
func child(name string, seed int64, seconds float64, traced bool, outDir string) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", tr, "-out", outDir)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("%s: no result line (%v): %s", name, runErr, stderr.String())
	}
	if runErr != nil {
		return res, fmt.Errorf("%s: %v: %s", name, runErr, stderr.String())
	}
	return res, nil
}

// runAll runs every workload once untraced — and once traced when asked
// — and prints every metric by name with its unit.
func runAll(seed int64, seconds float64, traced bool, outDir string) int {
	code := 0
	modes := []bool{false}
	if traced {
		modes = append(modes, true)
	}
	for _, w := range workloads {
		for _, tr := range modes {
			res, err := child(w.name, seed, seconds, tr, outDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				code = 1
				continue
			}
			fmt.Printf("%s seed=%d traced=%v correct=%v attempted=%d failed=%d fail_ratio=%g\n",
				w.name, seed, tr, res.Correct, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
			printMetrics(os.Stdout, res.Metrics)
		}
	}
	return code
}

// agree runs every workload n times as two interleaved sets A and B
// (seeds seed..seed+n-1 in both), prints each end-to-end metric's median,
// quartiles and spread per set, and returns 1 when a spread exceeds the
// metric's bound or the two medians differ by more than it — the two
// checks BENCHMARK.json is accepted by.
func agree(n int, seed int64, seconds float64) int {
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for j := 0; j < 2; j++ {
				set := (i + j) % 2 // alternate which set runs first
				res, err := child(w.name, seed+int64(i), seconds, false, "")
				if err != nil || !res.Correct {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: incorrect run: %v\n", w.name, seed+int64(i), err)
					code = 1
					continue
				}
				for name, m := range res.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
			}
		}
		fmt.Printf("%s (%d runs per set)\n", w.name, n)
		fmt.Printf("  %-12s %-6s %10s %10s %10s %7s | %10s %10s %10s %7s | %7s %6s\n",
			"metric", "unit", "A.q1", "A.median", "A.q3", "A.iqr", "B.q1", "B.median", "B.q3", "B.iqr", "A~B", "bound")
		for _, m := range sp.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			if len(a) < 2 || len(b) < 2 {
				continue
			}
			aq1, aq3 := quartiles(a)
			bq1, bq3 := quartiles(b)
			ma, mb := median(a), median(b)
			diff := worseBy(m.Better, ma, mb)
			if back := worseBy(m.Better, mb, ma); back > diff {
				diff = back
			}
			verdict := ""
			if spread(a) > m.Bound || spread(b) > m.Bound {
				verdict += "  SPREAD EXCEEDS BOUND"
			}
			if regressed(m.Better, m.Bound, ma, mb) || regressed(m.Better, m.Bound, mb, ma) {
				verdict += "  MEDIANS DIFFER BY MORE THAN BOUND"
			}
			if verdict != "" {
				code = 1
			}
			fmt.Printf("  %-12s %-6s %10.4g %10.4g %10.4g %6.1f%% | %10.4g %10.4g %10.4g %6.1f%% | %6.1f%% %5.0f%%%s\n",
				m.Name, m.Unit, aq1, ma, aq3, 100*spread(a), bq1, mb, bq3, 100*spread(b), 100*diff, 100*m.Bound, verdict)
		}
	}
	return code
}
