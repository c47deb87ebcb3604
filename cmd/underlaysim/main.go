// Command underlaysim regenerates the paper's tables and figures.
//
// Usage:
//
//	underlaysim -list                 # show available experiments
//	underlaysim -exp tab1-gnutella-msgs [-seed 1] [-scale 1.0]
//	underlaysim -all                  # run everything
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"unap2p/internal/experiments"
	"unap2p/internal/report"
	"unap2p/internal/sim"
	"unap2p/internal/telemetry"
)

// emit prints a result as text or JSON.
func emit(res experiments.Result, asJSON bool) {
	if asJSON {
		data, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Println(string(data))
		return
	}
	fmt.Print(res.Render())
}

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id to run")
		all     = flag.Bool("all", false, "run every experiment")
		list    = flag.Bool("list", false, "list experiment ids")
		seed    = flag.Int64("seed", 1, "random seed (runs are reproducible per seed)")
		scale   = flag.Float64("scale", 1.0, "workload scale factor")
		seeds   = flag.Int("seeds", 1, "number of consecutive seeds to sweep (parallel)")
		jsonOut = flag.Bool("json", false, "emit JSON instead of text tables")
		outDir  = flag.String("out", "", "also save results (txt+json+index) under this directory")
		serveOn = flag.String("serve", "", "serve live /metrics and /debug/pprof/ on this address while experiments run")
	)
	flag.Parse()

	cfg := experiments.RunConfig{Seed: *seed, Scale: *scale}
	if *serveOn != "" {
		rec := telemetry.NewRecorder(telemetry.Config{Interval: 100 * sim.Millisecond})
		if *seeds <= 1 {
			// A sampling recorder samples on the goroutine driving the
			// simulation, so it cannot be shared across a parallel seed
			// sweep; with -seeds the server still answers (pprof live,
			// metrics empty).
			cfg.Obs = rec
		} else {
			fmt.Fprintln(os.Stderr, "note: -serve with -seeds > 1 exposes pprof only (sampling follows a single run)")
		}
		srv, err := telemetry.Serve(*serveOn, rec.LatestSnapshot)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "serving /metrics and /debug/pprof/ on http://%s\n", srv.Addr())
	}
	var rep *report.Writer
	if *outDir != "" {
		var err error
		rep, err = report.NewWriter(*outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		defer func() {
			if n, err := rep.Finish(); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			} else if n > 0 {
				fmt.Fprintf(os.Stderr, "saved %d results to %s\n", n, *outDir)
			}
		}()
	}
	save := func(res experiments.Result) {
		if rep == nil {
			return
		}
		if err := rep.Save(res); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	}
	switch {
	case *list:
		for _, id := range experiments.IDs() {
			fmt.Printf("%-22s %s\n", id, experiments.TitleOf(id))
		}
	case *all:
		for _, id := range experiments.IDs() {
			res, err := experiments.Run(id, cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
			emit(res, *jsonOut)
			save(res)
			fmt.Println()
		}
	case *exp != "":
		results, err := experiments.RunSeeds(*exp, cfg, *seed, *seeds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		for _, res := range results {
			emit(res, *jsonOut)
			save(res)
		}
		if *seeds > 1 {
			stats, err := experiments.Summarize(results)
			if err == nil {
				fmt.Printf("sweep of %d seeds — per-row mean [min, max] of numeric columns:\n", *seeds)
				for _, row := range results[0].Rows {
					fmt.Printf("  %-32s", row[0])
					for _, st := range stats[row[0]] {
						if st.N > 0 {
							fmt.Printf("  %.2f [%.2f, %.2f]", st.Mean, st.Min, st.Max)
						}
					}
					fmt.Println()
				}
			}
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}
