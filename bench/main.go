// Command bench is the repository's end-to-end and per-layer benchmark:
// five workloads over the three runtimes (classic single-kernel
// experiments, the sharded megascale substrate, live UDP nodes), the
// end-to-end metrics BENCHMARK.json bounds, and — in a traced run — the
// per-layer metrics, measured from outside through each layer's public
// functions. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

var workloads = []workload{
	{name: "mega-dht", exactPerSeed: true,
		setup: setupMega([]string{"kademlia", "chord"}, func(s sizes) int { return s.dhtLookups })},
	{name: "mega-flood", exactPerSeed: true,
		setup: setupMega([]string{"gnutella"}, func(s sizes) int { return s.floods })},
	{name: "paper-unstructured", exactPerSeed: true,
		setup: setupPaper(unstructuredIDs, func(s sizes) float64 { return s.unstructured }, 1)},
	{name: "paper-selector", exactPerSeed: true,
		setup: setupPaper(selectorIDs, func(s sizes) float64 { return s.selector }, 2)},
	{name: "live-kademlia", setup: setupLive},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// spanNames are the traced spans around calls into a layer; the summed
// self time of each is reported as span.<name>.self_s. The harness's own
// wrapper spans (workload, setup, round) are in the span file only: their
// self time is what is left between those calls, next to nothing.
var spanNames = []string{
	"underlay.build", "overlay.bootstrap", "sim.run",
	"experiments.warmup", "experiments.run", "livenode.boot", "livenode.warmup", "lookup",
}

// layerUnits names every per-layer metric with its unit. A traced run
// prints all of them; one a workload's layers never touch reads 0.
var layerUnits = func() map[string]string {
	u := map[string]string{
		"sim.events": "count", "sim.events_per_s": "1/s", "sim.epochs": "count",
		"sim.cross_events": "count", "sim.cross_batches": "count", "sim.late_events": "count",
		"sim.shard_imbalance": "ratio", "sim.max_queue": "count",
		"sim.schedule_pop_ns": "ns", "sim.barrier_us": "us", "sim.defer_to_ns": "ns",

		"transport.msgs": "count", "transport.bytes": "B", "transport.cross_msgs": "count",
		"transport.msgs_per_lookup": "count", "transport.send_ns": "ns", "transport.roundtrip_ns": "ns",
		"transport.deliver_ns": "ns", "transport.sharded_send_ns": "ns", "transport.sharded_send_cross_ns": "ns",

		"metrics.counter_inc_ns": "ns", "metrics.histogram_observe_ns": "ns", "metrics.matrix_add_ns": "ns",

		"core.rank_ns": "ns", "core.rank_uncached_ns": "ns", "core.score_ns": "ns",
		"core.cache_hit_ratio": "ratio", "core.rank_allocs": "count",

		"overlay.kademlia.run_s": "s", "overlay.chord.run_s": "s", "overlay.gnutella.run_s": "s",
		"overlay.kademlia.bootstrap_s": "s", "overlay.chord.bootstrap_s": "s", "overlay.gnutella.bootstrap_s": "s",
		"overlay.hops_per_lookup": "count", "overlay.events_per_lookup": "count", "overlay.hit_ratio": "ratio",
		"overlay.exact_ratio": "ratio", "overlay.sim_lookup_ms_p50": "ms", "overlay.sim_lookup_ms_p99": "ms",

		"megascale.lookups_per_s": "1/s", "megascale.closest_xor_ns": "ns", "megascale.idspace_build_s": "s",
		"underlay.build_s": "s", "underlay.latency_ns": "ns",

		"nettransport.encode_ns": "ns", "nettransport.decode_ns": "ns", "nettransport.peers_codec_ns": "ns",
		"nettransport.call_rtt_us": "us", "nettransport.send_payload_ns": "ns",
		"nettransport.rpc_rtt_p50_ms": "ms", "nettransport.rpc_rtt_p99_ms": "ms", "nettransport.rpc_rtt_mean_ms": "ms",
		"nettransport.frames_per_lookup": "count", "nettransport.timeouts": "count",
		"nettransport.retries": "count", "nettransport.rx_bad": "count",

		"livenode.rpcs_per_lookup": "count", "livenode.self_us_per_lookup": "us", "livenode.boot_s": "s",
		"livenode.detector_pings": "count", "livenode.alloc_kb_per_lookup": "kB",

		"lookups_per_s": "1/s", "lookup_p50_ms": "ms", "lookup_p99_ms": "ms",
		"fail_ratio": "ratio", "intra_as_ratio": "ratio",
		"bench.trace_overhead_ratio": "ratio",
	}
	for _, ids := range [][]string{unstructuredIDs, selectorIDs} {
		for _, id := range ids {
			u["experiments."+id+".wall_s"] = "s"
			u["experiments."+id+".alloc_mb"] = "MB"
			u["experiments."+id+".msgs"] = "count"
		}
	}
	for _, n := range spanNames {
		u["span."+n+".self_s"] = "s"
	}
	for _, l := range cpuLayers {
		u["cpu_share."+l] = "ratio"
	}
	return u
}()

// perLayer reduces a traced invocation to the per-layer metrics: the
// last traced round's counts and timings, the span self times of that
// round, every traced round's CPU time by layer, the tracing overhead,
// and the isolated probes.
func perLayer(samples []sample, tr *tracer, sz sizes) (map[string]metric, error) {
	values := map[string]float64{}
	var plain, traced []sample
	for _, s := range samples {
		if s.traced {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	last := traced[len(traced)-1]
	for k, v := range last.r.layer {
		values[k] = v
	}
	values["fail_ratio"] = ratio(float64(last.r.failed), float64(last.r.ops))

	root := 0
	for _, s := range tr.spans {
		if s.Name == "workload" {
			root = s.ID // the last traced iteration's root
		}
	}
	self := selfByName(tr.spans, root)
	for _, name := range spanNames {
		values["span."+name+".self_s"] = self[name]
	}
	for k, v := range tr.cpu.shares() {
		values[k] = v
	}

	values["bench.trace_overhead_ratio"] = ratio(medianOf(traced, wallOf), medianOf(plain, wallOf))

	probes, err := runProbes(sz)
	if err != nil {
		return nil, err
	}
	for k, v := range probes {
		values[k] = v
	}

	out := map[string]metric{}
	for name, unit := range layerUnits {
		out[name] = metric{finite(values[name]), unit}
	}
	for name := range values {
		if _, ok := layerUnits[name]; !ok {
			return nil, fmt.Errorf("per-layer metric %q is measured but not declared", name)
		}
	}
	return out, nil
}

// runWorkload is one contract invocation: measure, gate, reduce.
func runWorkload(w workload, seed int64, sz sizes, seconds float64, traced bool, outDir string) (record, error) {
	var tr *tracer
	if traced {
		tr = newTracer(fmt.Sprintf("%s/%d", w.name, seed))
	}
	samples, err := measure(w, seed, sz, seconds, traced, tr)
	if err != nil {
		return record{}, err
	}
	rec := record{Workload: w.name, Seed: seed, Traced: traced, Rounds: len(samples), Digest: samples[0].r.digest}
	for _, s := range samples {
		rec.WallS = append(rec.WallS, s.wallS)
		rec.SetupS = append(rec.SetupS, s.setupS)
	}
	var violations []string
	rec.Attempted, rec.Failed, violations = gate(w, samples)
	rec.Correct = len(violations) == 0
	rec.Notes = append(violations, samples[0].r.notes...)
	if w.name == "live-kademlia" {
		rec.Notes = append(rec.Notes, fmt.Sprintf(
			"traffic is host loopback UDP between in-process nodes; closed loop, %d clients", liveClients))
	}
	if traced {
		rec.Metrics, err = perLayer(samples, tr, sz)
		if err != nil {
			return record{}, err
		}
	} else {
		rec.Metrics = endToEnd(samples)
	}
	if outDir != "" {
		if err := writeOutputs(outDir, rec, tr); err != nil {
			return record{}, err
		}
	}
	return rec, nil
}

// writeOutputs stores the record and, for a traced run, the spans.
func writeOutputs(dir string, rec record, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	kind := "e2e"
	if rec.Traced {
		kind = "layers"
		if err := tr.flush(filepath.Join(dir, "trace-"+rec.Workload+".jsonl")); err != nil {
			return err
		}
		// The last traced round's profile, for go tool pprof.
		if err := os.WriteFile(filepath.Join(dir, "cpu-"+rec.Workload+".pprof"), tr.cpu.raw, 0o644); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, kind+"-"+rec.Workload+".json"), append(b, '\n'), 0o644)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name, or \"all\"")
		seed    = flag.Int64("seed", 1, "workload seed; every input is generated from it")
		seconds = flag.Float64("seconds", 15, "how long the measured rounds of one run add up to")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		outDir  = flag.String("out", "bench/out", "directory for the per-workload records and trace-<workload>.jsonl")
		peers   = flag.Int("peers", 0, "off-contract: population of the mega-* workloads (e.g. 1000000 for the scaling curve)")
		agreeN  = flag.Int("agree", 0, "run every workload N times as two interleaved sets and compare their medians")
	)
	flag.Parse()
	// all and -agree measure the contract sizes only, so -peers has no
	// meaning with them.
	multi := *agreeN > 0 || *name == "all"
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || (multi && *peers > 0) {
		fmt.Fprintln(os.Stderr, "usage: bench -workload <name> -seed <n> -seconds <s> -trace <0|1> [-out dir] [-peers n] | -workload all [-trace 1] | -agree N")
		os.Exit(2)
	}
	sz := contractSizes
	if *peers > 0 {
		sz.peers = *peers
	}

	switch {
	case *agreeN > 0:
		os.Exit(agree(*agreeN, *seed, *seconds))
	case *name == "all":
		os.Exit(runAll(*seed, *seconds, *trace == 1, *outDir))
	}
	w, ok := findWorkload(*name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %v, or all)\n", *name, names)
		os.Exit(2)
	}
	rec, err := runWorkload(w, *seed, sz, *seconds, *trace == 1, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	for _, n := range rec.Notes {
		fmt.Fprintln(os.Stderr, "bench:", w.name+":", n)
	}
	if rec.Digest != "" {
		fmt.Fprintln(os.Stderr, "bench:", w.name+":", "result_digest", rec.Digest)
	}
	printMetrics(os.Stderr, rec.Metrics)
	line, err := json.Marshal(rec.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rec.Correct {
		os.Exit(1)
	}
}

// printMetrics lists metrics by name with value and unit.
func printMetrics(f *os.File, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "  %-44s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
