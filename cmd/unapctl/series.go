package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"math"
	"os"
	"path"
	"strconv"

	"unap2p/internal/telemetry"
)

// cmdSeries renders the sample records of a run file: one ASCII sparkline
// per metric (default), or one CSV table with a column per metric for
// plotting. Metrics that never change are hidden by default — a 40-cell
// flat line per constant counter would bury the curves worth looking at.
func cmdSeries(args []string) error {
	fs := flag.NewFlagSet("series", flag.ExitOnError)
	var (
		glob     = fs.String("metric", "*", "glob selecting metrics (path.Match syntax, e.g. 'health:*')")
		asCSV    = fs.Bool("csv", false, "emit CSV (seq, at_ms, one column per metric) instead of sparklines")
		constant = fs.Bool("constant", false, "also show metrics that never change")
		width    = fs.Int("width", 48, "sparkline width in cells")
	)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("series: exactly one run file expected")
	}
	run, err := telemetry.ReadRunFile(fs.Arg(0))
	if err != nil {
		return err
	}
	if len(run.Samples) == 0 {
		return fmt.Errorf("series: %s has no sample records (record with -probe to get them)", fs.Arg(0))
	}

	var metrics []string
	for _, m := range telemetry.SampleMetrics(run.Samples) {
		ok, err := path.Match(*glob, m)
		if err != nil {
			return fmt.Errorf("series: bad -metric glob: %w", err)
		}
		if ok {
			metrics = append(metrics, m)
		}
	}
	if len(metrics) == 0 {
		return fmt.Errorf("series: no metric matches %q", *glob)
	}

	if *asCSV {
		return writeSeriesCSV(run.Samples, metrics)
	}

	fmt.Printf("%d samples", len(run.Samples))
	if last := run.Samples[len(run.Samples)-1]; last.At > 0 {
		fmt.Printf(" over %s of simulated time", last.At)
	}
	fmt.Println()
	hidden := 0
	for _, m := range metrics {
		vals := telemetry.SampleValues(run.Samples, m)
		first, last, lo, hi, varies := seriesSpan(vals)
		if !varies && !*constant {
			hidden++
			continue
		}
		fmt.Printf("%-52s %s\n", m, telemetry.Sparkline(vals, *width))
		fmt.Printf("%-52s first %.4g  last %.4g  min %.4g  max %.4g\n", "", first, last, lo, hi)
	}
	if hidden > 0 {
		fmt.Printf("(%d constant metrics hidden; -constant shows them)\n", hidden)
	}
	return nil
}

func writeSeriesCSV(samples []telemetry.Sample, metrics []string) error {
	w := csv.NewWriter(os.Stdout)
	header := append([]string{"seq", "at_ms"}, metrics...)
	if err := w.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for _, s := range samples {
		row[0] = strconv.FormatUint(s.Seq, 10)
		row[1] = strconv.FormatFloat(float64(s.At), 'g', -1, 64)
		for i, m := range metrics {
			if v, ok := s.Values[m]; ok {
				row[i+2] = strconv.FormatFloat(v, 'g', -1, 64)
			} else {
				row[i+2] = "" // metric absent at this tick
			}
		}
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

// seriesSpan summarizes a series: first/last/min/max over the finite
// points and whether the value ever changes.
func seriesSpan(vals []float64) (first, last, lo, hi float64, varies bool) {
	first, last = math.NaN(), math.NaN()
	lo, hi = math.Inf(1), math.Inf(-1)
	seen := false
	for _, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		if !seen {
			first, seen = v, true
		} else if v != last {
			varies = true
		}
		last = v
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return first, last, lo, hi, varies
}
