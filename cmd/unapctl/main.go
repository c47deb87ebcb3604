// Command unapctl manages telemetry runs: it records experiments into
// run files, summarizes them, and diffs two runs as a seed-to-seed
// regression detector. It also hosts the repository's own gates: the
// benchmark snapshot tools and the reachability pass.
//
// Usage:
//
//	unapctl record -exp <id> [-seed N] [-scale S] [-param name=value]... [-o run.jsonl] [-prom metrics.txt] [-probe MS] [-serve addr]
//	unapctl report <run.jsonl>
//	unapctl diff [-threshold 0.02] <a.jsonl> <b.jsonl>
//	unapctl series [-metric glob] [-csv] <run.jsonl>
//	unapctl bench-import [-o BENCH.json]        (go test -bench output on stdin)
//	unapctl bench-diff [-threshold 0.15] <baseline.json> <current.json>
//	unapctl deadcode [module-root]
//
// Exit codes: 0 success (for diff: no delta beyond threshold), 1 diff
// found deltas beyond the threshold, deadcode found an un-triaged symbol
// or a stale verdict, or a run failed, 2 usage error.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"unap2p/internal/experiments"
	"unap2p/internal/sim"
	"unap2p/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = cmdRecord(os.Args[2:])
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
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `unapctl — telemetry run management for unap2p

  unapctl record -exp <id> [-seed N] [-scale S] [-param name=value]... [-o run.jsonl] [-prom metrics.txt] [-probe MS] [-serve addr]
      run an experiment with a telemetry Recorder attached and write a
      run file (manifest + JSONL events + closing metrics snapshot);
      -probe samples every metric and overlay health source every MS
      simulated milliseconds (sample records in the run file, for
      'series'; 0, the default, is off);
      -serve exposes live /metrics + /debug/pprof/ while it runs

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

// cmdRecord runs one experiment with a Recorder attached and writes the
// run file. The experiment's result table goes to stdout, exactly as
// underlaysim would print it — telemetry observes, it does not replace
// reporting.
func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	var (
		exp     = fs.String("exp", "", "experiment id (see underlaysim -list)")
		seed    = fs.Int64("seed", 1, "random seed")
		scale   = fs.Float64("scale", 1.0, "workload scale factor")
		out     = fs.String("o", "run.jsonl", "run file to write")
		prom    = fs.String("prom", "", "also write the metrics snapshot in Prometheus text format")
		probeMS = fs.Float64("probe", 0, "sample every N simulated ms (0 = off)")
		serveOn = fs.String("serve", "", "serve live /metrics and /debug/pprof/ on this address while recording (implies -probe 100 unless set)")
	)
	params := paramFlag{}
	fs.Var(params, "param", "experiment parameter as name=value (repeatable)")
	fs.Parse(args)
	if *exp == "" {
		return fmt.Errorf("record: -exp is required")
	}
	if *serveOn != "" && *probeMS <= 0 {
		*probeMS = 100 // live /metrics needs sampling to refresh the snapshot
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()

	rec := telemetry.NewRecorder(telemetry.Config{
		Sink: telemetry.NewRunWriter(f),
		Manifest: telemetry.Manifest{
			Name:       *exp,
			Experiment: *exp,
			Seed:       *seed,
			Scale:      *scale,
			Params:     params,
		},
		Interval: sim.Duration(*probeMS),
	})
	cfg := experiments.RunConfig{Seed: *seed, Scale: *scale, Obs: rec, Params: params}
	if *serveOn != "" {
		srv, err := telemetry.Serve(*serveOn, rec.LatestSnapshot)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "serving /metrics and /debug/pprof/ on http://%s\n", srv.Addr())
	}
	res, err := experiments.Run(*exp, cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	if err := rec.Close(); err != nil {
		return fmt.Errorf("record: %w", err)
	}
	sum := rec.Summary()
	fmt.Fprintf(os.Stderr, "recorded %d events, %d samples, %d metrics to %s\n",
		sum.Events, sum.Samples, len(sum.Metrics.Flatten()), *out)

	if *prom != "" {
		if err := os.WriteFile(*prom, []byte(sum.Metrics.PrometheusText()), 0o644); err != nil {
			return err
		}
	}
	return nil
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
	for _, k := range sortedParamKeys(m.Params) {
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
	for _, k := range sortedParamKeys(byCat) {
		fmt.Printf("  %-32s %d\n", k, byCat[k])
	}
	if !run.HasSummary {
		fmt.Println("no summary record — run was not closed")
		return
	}
	flat := run.Summary.Metrics.Flatten()
	names := sortedParamKeys(flat)
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

func (p paramFlag) String() string {
	parts := make([]string, 0, len(p))
	for _, k := range sortedParamKeys(p) {
		parts = append(parts, k+"="+p[k])
	}
	return fmt.Sprint(parts)
}

func (p paramFlag) Set(s string) error {
	name, value, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("param %q: want name=value", s)
	}
	p[name] = value
	return nil
}

func sortedParamKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
