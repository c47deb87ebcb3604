package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"unap2p/internal/experiments"
	"unap2p/internal/sim"
	"unap2p/internal/telemetry"
)

// cmdRun is the experiment driver: it runs one experiment (optionally
// over consecutive seeds) or all of them and prints each result table,
// or its JSON document, to stdout. A telemetry Recorder is attached only
// when -o or -serve asks for one; it observes, it never changes a result.
// Every flag and the experiment id are checked before any file is
// created, so a typo cannot truncate an earlier run file.
func cmdRun(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var (
		exp     = fs.String("exp", "", "experiment id to run (see -list)")
		all     = fs.Bool("all", false, "run every experiment")
		list    = fs.Bool("list", false, "list experiment ids")
		seed    = fs.Int64("seed", 1, "random seed (runs are reproducible per seed)")
		scale   = fs.Float64("scale", 1.0, "workload scale factor")
		seeds   = fs.Int("seeds", 1, "number of consecutive seeds to sweep (parallel)")
		jsonOut = fs.Bool("json", false, "emit JSON instead of text tables")
		out     = fs.String("o", "", "record a run file here (one experiment, one seed)")
		prom    = fs.String("prom", "", "also write the closing metrics snapshot in Prometheus text format")
		probeMS = fs.Float64("probe", 0, "sample every N simulated ms (0 = off)")
		serveOn = fs.String("serve", "", "serve live /metrics and /debug/pprof/ on this address while experiments run (implies -probe 100 unless set)")
	)
	params := paramFlag{}
	fs.Var(params, "param", "experiment parameter as name=value (repeatable)")
	fs.Parse(args)

	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	// -o and -serve attach a recorder, but not to a parallel seed sweep:
	// it samples on the goroutine driving the simulation, so it follows a
	// single run at a time.
	attach := (*out != "" || *serveOn != "") && *seeds == 1
	switch {
	case fs.NArg() > 0:
		return usagef("run: unexpected argument %q", fs.Arg(0))
	case *list && len(set) > 1:
		return usagef("run: -list takes no other flag")
	case *all && (set["exp"] || set["seeds"]):
		return usagef("run: -all excludes -exp and -seeds")
	case !*list && !*all && *exp == "":
		return usagef("run: one of -exp, -all or -list is required")
	case *seeds < 1:
		return usagef("run: -seeds must be at least 1")
	case *out != "" && (*all || *seeds != 1):
		return usagef("run: -o needs exactly one experiment (-exp) and one seed")
	case (set["probe"] || set["prom"]) && !attach:
		return usagef("run: -probe and -prom need -o, or -serve with one seed")
	case *exp != "" && !slices.Contains(experiments.IDs(), *exp):
		return fmt.Errorf("unknown experiment %q (see unapctl run -list)", *exp)
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintf(stdout, "%-22s %s\n", id, experiments.TitleOf(id))
		}
		return nil
	}

	cfg := experiments.RunConfig{Seed: *seed, Scale: *scale, Params: params}
	var rec *telemetry.Recorder
	var runFile *os.File
	var snapshot func() telemetry.MetricsSnapshot // nil: -serve exposes pprof only
	if attach {
		if *serveOn != "" && *probeMS <= 0 {
			*probeMS = 100 // live /metrics needs sampling to refresh the snapshot
		}
		rcfg := telemetry.Config{Interval: sim.Duration(*probeMS)}
		if *out != "" {
			var err error
			if runFile, err = os.Create(*out); err != nil {
				return err
			}
			defer runFile.Close() // error paths; the success path checks Close below
			rcfg.Sink = telemetry.NewRunWriter(runFile)
			rcfg.Manifest = telemetry.Manifest{
				Name: *exp, Experiment: *exp, Seed: *seed, Scale: *scale, Params: params,
			}
		}
		rec = telemetry.NewRecorder(rcfg)
		cfg.Obs, snapshot = rec, rec.LatestSnapshot
	}
	if *serveOn != "" {
		if !attach {
			fmt.Fprintln(os.Stderr, "note: -serve with -seeds > 1 exposes pprof only (sampling follows a single run)")
		}
		srv, err := telemetry.Serve(*serveOn, snapshot)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "serving /metrics and /debug/pprof/ on http://%s\n", srv.Addr())
	}

	ids := []string{*exp}
	if *all {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		results, err := experiments.RunSeeds(id, cfg, *seed, *seeds)
		if err != nil {
			return err
		}
		for _, res := range results {
			emit(stdout, res, *jsonOut)
		}
		if *seeds > 1 {
			printSweep(stdout, results, *jsonOut)
		}
		if *all && !*jsonOut {
			fmt.Fprintln(stdout)
		}
	}
	if !attach {
		return nil
	}

	if err := rec.Close(); err != nil {
		return fmt.Errorf("run: %w", err)
	}
	sum := rec.Summary()
	if runFile != nil {
		if err := runFile.Close(); err != nil {
			return fmt.Errorf("run: %w", err)
		}
		fmt.Fprintf(os.Stderr, "recorded %d events, %d samples, %d metrics to %s\n",
			sum.Events, sum.Samples, len(sum.Metrics.Flatten()), *out)
	}
	if *prom != "" {
		return os.WriteFile(*prom, []byte(sum.Metrics.PrometheusText()), 0o644)
	}
	return nil
}

// emit prints a result as its text table or as one line of JSON.
func emit(w io.Writer, res experiments.Result, asJSON bool) {
	if asJSON {
		data, _ := json.Marshal(res) // strings and slices of them: cannot fail
		fmt.Fprintf(w, "%s\n", data)
		return
	}
	io.WriteString(w, res.Render())
}

// printSweep prints the per-row mean [min, max] of every numeric column
// across a seed sweep; under -json it prints one JSON document instead,
// {"seeds": n, "summary": {row: [CellStat per column]}}, where "n": 0 marks
// a column that is not numeric in every seed. A sweep whose rows differ
// between seeds prints nothing.
func printSweep(w io.Writer, results []experiments.Result, asJSON bool) {
	stats, err := experiments.Summarize(results)
	if err != nil {
		return
	}
	if asJSON {
		data, _ := json.Marshal(map[string]any{"seeds": len(results), "summary": stats})
		fmt.Fprintf(w, "%s\n", data)
		return
	}
	fmt.Fprintf(w, "sweep of %d seeds — per-row mean [min, max] of numeric columns:\n", len(results))
	for _, row := range results[0].Rows {
		fmt.Fprintf(w, "  %-32s", row[0])
		for _, st := range stats[row[0]] {
			if st.N > 0 {
				fmt.Fprintf(w, "  %.2f [%.2f, %.2f]", st.Mean, st.Min, st.Max)
			}
		}
		fmt.Fprintln(w)
	}
}
