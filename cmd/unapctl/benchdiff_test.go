package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func writeBench(t *testing.T, name string, doc string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBenchDiffGate(t *testing.T) {
	base := writeBench(t, "base.json", `{"benchmarks":{
		"BenchmarkA":{"ns_op":100,"allocs_op":10,"runs":6},
		"BenchmarkB":{"ns_op":200,"allocs_op":0,"runs":6},
		"BenchmarkGone":{"ns_op":50,"runs":6}}}`)

	// Within threshold: no regressions.
	ok := writeBench(t, "ok.json", `{"benchmarks":{
		"BenchmarkA":{"ns_op":110,"allocs_op":10,"runs":6},
		"BenchmarkB":{"ns_op":190,"allocs_op":0,"runs":6},
		"BenchmarkNew":{"ns_op":1,"runs":6}}}`)
	n, err := cmdBenchDiff([]string{base, ok})
	if err != nil || n != 0 {
		t.Fatalf("clean diff: %d regressions, err %v", n, err)
	}

	// ns/op blowout on A, new allocations on the zero-alloc B: time is
	// advisory (it is noise on a shared machine), allocations gate.
	bad := writeBench(t, "bad.json", `{"benchmarks":{
		"BenchmarkA":{"ns_op":150,"allocs_op":10,"runs":6},
		"BenchmarkB":{"ns_op":200,"allocs_op":2,"runs":6}}}`)
	n, err = cmdBenchDiff([]string{base, bad})
	if err != nil {
		t.Fatalf("bad diff err: %v", err)
	}
	if n != 1 {
		t.Fatalf("want 1 regression (B allocs/op; A's ns/op is advisory), got %d", n)
	}
	slow := writeBench(t, "slow.json", `{"benchmarks":{
		"BenchmarkA":{"ns_op":300,"allocs_op":10,"runs":6},
		"BenchmarkB":{"ns_op":900,"allocs_op":0,"runs":6}}}`)
	if n, err = cmdBenchDiff([]string{base, slow}); err != nil || n != 0 {
		t.Fatalf("an ns/op-only regression gated: %d regressions, err %v", n, err)
	}
	more := writeBench(t, "more.json", `{"benchmarks":{
		"BenchmarkA":{"ns_op":100,"allocs_op":13,"runs":6},
		"BenchmarkB":{"ns_op":200,"allocs_op":0,"runs":6}}}`)
	if n, err = cmdBenchDiff([]string{base, more}); err != nil || n != 1 {
		t.Fatalf("+30%% allocs/op at flat ns/op: %d regressions (want 1), err %v", n, err)
	}

	// A large improvement is reported but does not gate.
	fast := writeBench(t, "fast.json", `{"benchmarks":{
		"BenchmarkA":{"ns_op":50,"allocs_op":10,"runs":6},
		"BenchmarkB":{"ns_op":200,"allocs_op":0,"runs":6}}}`)
	n, err = cmdBenchDiff([]string{base, fast})
	if err != nil || n != 0 {
		t.Fatalf("improvement gated: %d regressions, err %v", n, err)
	}

	// Threshold is adjustable.
	drift := writeBench(t, "drift.json", `{"benchmarks":{
		"BenchmarkA":{"ns_op":100,"allocs_op":11,"runs":6},
		"BenchmarkB":{"ns_op":200,"allocs_op":0,"runs":6}}}`)
	if n, err = cmdBenchDiff([]string{base, drift}); err != nil || n != 0 {
		t.Fatalf("+10%% allocs/op gated at the default threshold: %d regressions, err %v", n, err)
	}
	n, err = cmdBenchDiff([]string{"-threshold", "0.02", base, drift})
	if err != nil || n != 1 {
		t.Fatalf("tight threshold should flag the 10%% drift, got %d (err %v)", n, err)
	}

	if _, err := cmdBenchDiff([]string{base}); err == nil ||
		!strings.Contains(err.Error(), "want") {
		t.Fatalf("arity error not reported: %v", err)
	}
	// A time row never gates, whether it compares means or — when both
	// snapshots carry min_ns_op — mins.
	minBase := writeBench(t, "minbase.json", `{"benchmarks":{
		"BenchmarkA":{"ns_op":100,"min_ns_op":90,"runs":6}}}`)
	slowMin := writeBench(t, "slowmin.json", `{"benchmarks":{
		"BenchmarkA":{"ns_op":101,"min_ns_op":120,"runs":6}}}`)
	if n, err = cmdBenchDiff([]string{minBase, slowMin}); err != nil || n != 0 {
		t.Fatalf("regressed min ns/op gated: %d regressions, err %v", n, err)
	}
}

// B/op gates under the same threshold as allocs/op: bytes can
// grow with the allocation count flat (bigger buffers, not more of them).
func TestBenchDiffGatesBytes(t *testing.T) {
	base := writeBench(t, "base.json", `{"benchmarks":{
		"BenchmarkA":{"ns_op":100,"b_op":5670000,"allocs_op":10,"runs":6},
		"BenchmarkZ":{"ns_op":100,"b_op":0,"allocs_op":0,"runs":6}}}`)
	fat := writeBench(t, "fat.json", `{"benchmarks":{
		"BenchmarkA":{"ns_op":100,"b_op":7270000,"allocs_op":10,"runs":6},
		"BenchmarkZ":{"ns_op":100,"b_op":0,"allocs_op":0,"runs":6}}}`)
	if n, err := cmdBenchDiff([]string{base, fat}); err != nil || n != 1 {
		t.Fatalf("+28%% B/op at flat ns/op and allocs/op: %d regressions (want 1), err %v", n, err)
	}
	drift := writeBench(t, "drift.json", `{"benchmarks":{
		"BenchmarkA":{"ns_op":100,"b_op":6000000,"allocs_op":10,"runs":6},
		"BenchmarkZ":{"ns_op":100,"b_op":0,"allocs_op":0,"runs":6}}}`)
	if n, err := cmdBenchDiff([]string{base, drift}); err != nil || n != 0 {
		t.Fatalf("+6%% B/op gated: %d regressions, err %v", n, err)
	}
	if n, err := cmdBenchDiff([]string{fat, base}); err != nil || n != 0 {
		t.Fatalf("B/op improvement gated: %d regressions, err %v", n, err)
	}
}

func TestBenchImportMinNs(t *testing.T) {
	res, err := parseBench(strings.NewReader(`
BenchmarkX-8   1000   120.0 ns/op   16 B/op   1 allocs/op
BenchmarkX-8   1000   90.0 ns/op   16 B/op   1 allocs/op
BenchmarkX-8   1000   150.0 ns/op   16 B/op   1 allocs/op
`))
	if err != nil {
		t.Fatal(err)
	}
	x, ok := res["BenchmarkX"]
	if !ok {
		t.Fatal("BenchmarkX not parsed")
	}
	if x.NsOp != 120 || x.MinNsOp != 90 || x.Runs != 3 {
		t.Fatalf("want mean 120 / min 90 / 3 runs, got %+v", x)
	}
}

// TestBenchDiffIgnoresE2E: a snapshot may carry an "e2e" section beside
// its benchmarks (the paired end-to-end medians of BENCHMARK.json's
// workloads). It still loads as a baseline, to the same benchmarks, and
// gates exactly as the file without it does.
func TestBenchDiffIgnoresE2E(t *testing.T) {
	benches := `"benchmarks":{
		"BenchmarkA":{"ns_op":100,"allocs_op":10,"runs":6},
		"BenchmarkB":{"ns_op":200,"b_op":64,"allocs_op":1,"runs":6}}`
	plain := writeBench(t, "plain.json", `{`+benches+`}`)
	withE2E := writeBench(t, "e2e.json", `{`+benches+`,
		"e2e":{"mega-dht":{"peak_rss_mb":{
			"parent":{"median":380.1,"q1":380.0,"q3":380.3},
			"change":{"median":264.1,"q1":264.0,"q3":264.2},
			"pairs":10,"won":10,"seeds":[1,2,3,4,5,6,7,8,9,10]}}}}`)
	a, err := readBenchDoc(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := readBenchDoc(withE2E)
	if err != nil {
		t.Fatalf("a baseline with an e2e section does not load: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("the e2e section changed the benchmarks read:\n%v\n%v", a, b)
	}
	for _, cur := range []string{
		`{"benchmarks":{"BenchmarkA":{"ns_op":100,"allocs_op":10,"runs":6},"BenchmarkB":{"ns_op":200,"b_op":64,"allocs_op":1,"runs":6}}}`,
		`{"benchmarks":{"BenchmarkA":{"ns_op":100,"allocs_op":13,"runs":6},"BenchmarkB":{"ns_op":200,"b_op":128,"allocs_op":1,"runs":6}}}`,
	} {
		c := writeBench(t, "cur.json", cur)
		want, err := cmdBenchDiff([]string{plain, c})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := cmdBenchDiff([]string{withE2E, c}); err != nil || got != want {
			t.Fatalf("against the e2e baseline: %d regressions, err %v; without the section: %d", got, err, want)
		}
	}
}
