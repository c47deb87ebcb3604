// Command unapctl is the simulator's front door: it runs the paper's
// experiments (printing their tables and, on request, recording run
// files), inspects the simulated underlays, summarizes run files, and
// diffs two runs as a seed-to-seed regression detector. It also hosts
// the repository's own gates: the benchmark snapshot tools and the
// reachability pass. `unapctl help` lists every command with its flags.
//
// Exit codes: 0 success (for diff: no delta beyond threshold), 1 diff
// found deltas beyond the threshold, deadcode found an un-triaged symbol
// or a stale verdict, or a run failed, 2 usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"unap2p/internal/metrics"
	"unap2p/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:], os.Stdout)
	case "topo":
		err = cmdTopo(os.Args[2:], os.Stdout)
	case "report":
		err = cmdReport(os.Args[2:])
	case "diff":
		var deltas int
		deltas, err = cmdDiff(os.Args[2:])
		if err == nil && deltas > 0 {
			os.Exit(1)
		}
	case "series":
		err = cmdSeries(os.Args[2:])
	case "bench-import":
		err = cmdBenchImport(os.Args[2:])
	case "bench-diff":
		var regressions int
		regressions, err = cmdBenchDiff(os.Args[2:])
		if err == nil && regressions > 0 {
			os.Exit(1)
		}
	case "deadcode":
		var bad int
		bad, err = cmdDeadcode(os.Args[2:], os.Stdout)
		if err == nil && bad > 0 {
			os.Exit(1)
		}
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "unapctl: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "unapctl:", err)
		if errors.As(err, new(usageError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError is a command-line mistake: main exits 2 on it, as the flag
// package does on a flag it cannot parse.
type usageError struct{ error }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

func usage() {
	fmt.Fprint(os.Stderr, `unapctl — the unap2p simulator's command line

  unapctl run -list | -all | -exp <id> [-seed N] [-scale S] [-seeds N] [-json] [-param name=value]... [-o run.jsonl] [-prom metrics.txt] [-probe MS] [-serve addr]
      regenerate the paper's tables and figures: print each result table
      (or JSON document) to stdout; -seeds N sweeps N seeds in parallel;
      -o records a run file (manifest + JSONL events + closing metrics
      snapshot) of one experiment and seed; -probe samples every metric
      and health source every MS simulated ms (0, the default, is off);
      -serve exposes live /metrics + /debug/pprof/ while it runs

  unapctl topo [-kind transit-stub|ring|star|tree|mesh|ba|waxman] [-n N] [-stubs N] [-transits N] [-hosts N] [-seed N] [-dot]
      generate a simulated underlay and print its summary, links and
      sample AS paths, or a Graphviz DOT rendering with -dot

  unapctl report <run.jsonl>
      summarize a run file: manifest, event counts, headline metrics

  unapctl diff [-threshold 0.02] <a.jsonl> <b.jsonl>
      compare two runs' metric snapshots; exits 1 listing every metric
      whose relative delta exceeds the threshold, 0 when none does

  unapctl series [-metric glob] [-csv] [-constant] [-width N] <run.jsonl>
      render the sample records of a run file as per-metric ASCII
      sparklines (or CSV for plotting); record with -probe to get
      samples

  unapctl bench-import [-o BENCH.json]
      parse 'go test -bench -benchmem' output from stdin into JSON
      (name -> ns/op, B/op, allocs/op) for cross-PR perf diffing

  unapctl bench-diff [-threshold 0.15] <baseline.json> <current.json>
      compare two bench-import snapshots; exits 1 if any benchmark
      present in both grew in B/op or allocs/op beyond the threshold
      (ns/op moves are listed as advisory rows and never gate)

  unapctl deadcode [module-root]
      list every package-level symbol and method that main, init and
      bench/ reach only through a _test.go file, beside its verdict in
      <module-root>/deadcode.keep; exits 1 if one has no verdict or a
      verdict names a symbol that is not dead
`)
}

// cmdReport summarizes one run file.
func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	top := fs.Int("top", 12, "metrics to list (0 = all)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("report: exactly one run file expected")
	}
	run, err := telemetry.ReadRunFile(fs.Arg(0))
	if err != nil {
		return err
	}
	printReport(run, *top)
	return nil
}

// cmdDiff compares two run files; returns the number of deltas beyond
// the threshold.
func cmdDiff(args []string) (int, error) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	threshold := fs.Float64("threshold", 0.02, "relative delta beyond which a metric is flagged")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return 0, fmt.Errorf("diff: exactly two run files expected")
	}
	a, err := telemetry.ReadRunFile(fs.Arg(0))
	if err != nil {
		return 0, err
	}
	b, err := telemetry.ReadRunFile(fs.Arg(1))
	if err != nil {
		return 0, err
	}
	if !a.HasSummary || !b.HasSummary {
		return 0, fmt.Errorf("diff: both runs need a summary record (was the recorder closed?)")
	}
	deltas := telemetry.DiffRuns(a, b, *threshold)
	if len(deltas) == 0 {
		fmt.Printf("runs match: no metric delta beyond %.1f%% (%s vs %s)\n",
			100**threshold, fs.Arg(0), fs.Arg(1))
		return 0, nil
	}
	fmt.Printf("%d metrics differ beyond %.1f%% (%s vs %s):\n",
		len(deltas), 100**threshold, fs.Arg(0), fs.Arg(1))
	fmt.Printf("%-52s %14s %14s %9s\n", "metric", "a", "b", "delta")
	for _, d := range deltas {
		note := ""
		if d.MissingIn != "" {
			note = " (missing in " + d.MissingIn + ")"
		}
		fmt.Printf("%-52s %14.3f %14.3f %8.1f%%%s\n", d.Metric, d.A, d.B, 100*d.Rel, note)
	}
	return len(deltas), nil
}

func printReport(run *telemetry.Run, top int) {
	m := run.Manifest
	fmt.Printf("run: %s  (experiment %s, seed %d, scale %g)\n", m.Name, m.Experiment, m.Seed, m.Scale)
	for _, k := range metrics.SortedKeys(m.Params) {
		fmt.Printf("  param %s=%s\n", k, m.Params[k])
	}
	byCat := map[string]int{}
	for _, e := range run.Events {
		byCat[e.Cat+"/"+e.Type]++
	}
	fmt.Printf("events: %d in file", len(run.Events))
	if run.HasSummary {
		fmt.Printf(" (%d recorded), finished at %s",
			run.Summary.Events, run.Summary.FinishedAt)
	}
	fmt.Println()
	for _, k := range metrics.SortedKeys(byCat) {
		fmt.Printf("  %-32s %d\n", k, byCat[k])
	}
	if !run.HasSummary {
		fmt.Println("no summary record — run was not closed")
		return
	}
	flat := run.Summary.Metrics.Flatten()
	names := metrics.SortedKeys(flat)
	fmt.Printf("metrics: %d\n", len(names))
	shown := 0
	for _, n := range names {
		if top > 0 && shown >= top {
			fmt.Printf("  … %d more (use -top 0 for all)\n", len(names)-shown)
			break
		}
		fmt.Printf("  %-52s %14.3f\n", n, flat[n])
		shown++
	}
}

// paramFlag collects repeatable -param name=value experiment knobs.
type paramFlag map[string]string

func (p paramFlag) String() string { return fmt.Sprint(map[string]string(p)) }

func (p paramFlag) Set(s string) error {
	name, value, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("param %q: want name=value", s)
	}
	p[name] = value
	return nil
}
