package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"unap2p/internal/experiments"
	"unap2p/internal/telemetry"
)

func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := cmdRun(args, &out); err != nil {
		t.Fatalf("run %q: %v", args, err)
	}
	return out.String()
}

// TestRunList checks -list prints every registered id with its title.
func TestRunList(t *testing.T) {
	lines := strings.Split(strings.TrimSuffix(runOut(t, "-list"), "\n"), "\n")
	ids := experiments.IDs()
	if len(ids) != 31 || len(lines) != len(ids) {
		t.Fatalf("%d lines for %d ids, want 31 each", len(lines), len(ids))
	}
	for i, id := range ids {
		if fields := strings.Fields(lines[i]); fields[0] != id || !strings.HasSuffix(lines[i], " "+experiments.TitleOf(id)) {
			t.Fatalf("line %d %q, want id %s with its title", i, lines[i], id)
		}
	}
}

// TestRunPrintsRender checks a single run prints exactly the result's
// rendered table.
func TestRunPrintsRender(t *testing.T) {
	res, err := experiments.Run("fig2-costs", experiments.RunConfig{Seed: 1, Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if got := runOut(t, "-exp", "fig2-costs", "-seed", "1", "-scale", "0.25"); got != res.Render() {
		t.Fatalf("stdout differs from Render():\n%s\nwant:\n%s", got, res.Render())
	}
}

// TestRunJSONSweep checks -json prints only JSON documents, one line
// each: one per seed, decoding back to the Result the sweep produced,
// then the sweep summary, decoding back to experiments.Summarize's mean,
// min and max.
func TestRunJSONSweep(t *testing.T) {
	want, err := experiments.RunSeeds("abl-ics-dim", experiments.RunConfig{Seed: 4, Scale: 0.25}, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := experiments.Summarize(want)
	if err != nil {
		t.Fatal(err)
	}
	out := runOut(t, "-exp", "abl-ics-dim", "-seed", "4", "-scale", "0.25", "-seeds", "3", "-json")
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != len(want)+1 {
		t.Fatalf("%d lines, want %d results and a summary:\n%s", len(lines), len(want), out)
	}
	for i, w := range want {
		var got experiments.Result
		if err := json.Unmarshal([]byte(lines[i]), &got); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("line %d decodes to %+v, want %+v", i, got, w)
		}
	}
	var sum struct {
		Seeds   int                               `json:"seeds"`
		Summary map[string][]experiments.CellStat `json:"summary"`
	}
	if err := json.Unmarshal([]byte(lines[len(want)]), &sum); err != nil {
		t.Fatalf("summary line: %v\n%s", err, lines[len(want)])
	}
	if sum.Seeds != 3 || !reflect.DeepEqual(sum.Summary, stats) {
		t.Fatalf("summary over %d seeds %+v, want 3 seeds %+v", sum.Seeds, sum.Summary, stats)
	}
	varied := false
	for _, row := range stats {
		for _, c := range row {
			varied = varied || c.Min != c.Max
		}
	}
	if !varied {
		t.Fatal("every cell has min == max: the sweep does not exercise the summary")
	}
}

// TestRunSweepWithoutSummary checks a sweep whose rows differ between
// seeds (exp-resilience keys rows by victim host) says why it has no
// summary: one text line after the tables, one JSON document under -json.
func TestRunSweepWithoutSummary(t *testing.T) {
	want, err := experiments.RunSeeds("exp-resilience", experiments.RunConfig{Seed: 1, Scale: 0.25}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, reason := experiments.Summarize(want)
	if reason == nil {
		t.Fatal("exp-resilience rows are stable across seeds: the test needs a sweep with no summary")
	}
	args := []string{"-exp", "exp-resilience", "-seed", "1", "-scale", "0.25", "-seeds", "2"}
	out := runOut(t, args...)
	if line := "sweep of 2 seeds: no summary: " + reason.Error() + "\n"; !strings.HasSuffix(out, line) {
		t.Fatalf("text output does not end with %q:\n%s", line, out)
	}
	lines := strings.Split(strings.TrimSuffix(runOut(t, append(args, "-json")...), "\n"), "\n")
	if len(lines) != len(want)+1 {
		t.Fatalf("%d JSON lines, want %d results and one error document", len(lines), len(want))
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(lines[len(want)]), &doc); err != nil {
		t.Fatalf("last line: %v\n%s", err, lines[len(want)])
	}
	if wantDoc := map[string]any{"seeds": 2.0, "error": reason.Error()}; !reflect.DeepEqual(doc, wantDoc) {
		t.Fatalf("last line decodes to %v, want %v", doc, wantDoc)
	}
}

// TestRunRecordsRunFile checks -o writes a run file that reads back with
// its manifest and closing summary, while stdout stays the plain table.
func TestRunRecordsRunFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	out := runOut(t, "-exp", "exp-intra-as", "-seed", "2", "-scale", "0.25", "-probe", "50", "-param", "k=v", "-o", path)
	if !strings.HasPrefix(out, "== exp-intra-as") {
		t.Fatalf("stdout is not the result table:\n%s", out)
	}
	run, err := telemetry.ReadRunFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m := run.Manifest
	if m.Experiment != "exp-intra-as" || m.Seed != 2 || m.Scale != 0.25 || m.Params["k"] != "v" {
		t.Fatalf("manifest %+v", m)
	}
	if !run.HasSummary || run.Summary.Events == 0 || run.Summary.Samples == 0 {
		t.Fatalf("summary %+v (has %v): want events and samples", run.Summary, run.HasSummary)
	}
}

// TestRunRejectsBeforeWriting checks every flag combination run would
// otherwise ignore is a usage error, and that neither a usage error nor
// a mistyped experiment id touches an existing run file.
func TestRunRejectsBeforeWriting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keep.jsonl")
	const precious = "precious\n"
	if err := os.WriteFile(path, []byte(precious), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args  string
		usage bool
	}{
		{"-exp nope -o " + path, false},
		{"-seed 1", true},
		{"-list -json", true},
		{"-list -all", true},
		{"-all -exp fig2-costs", true},
		{"-all -seeds 3", true},
		{"-all -o " + path, true},
		{"-exp fig2-costs -seeds 2 -o " + path, true},
		{"-exp fig2-costs -seeds 0", true},
		{"-exp fig2-costs -probe 50", true},
		{"-exp fig2-costs -prom " + path, true},
		{"-exp fig2-costs -seeds 2 -serve 127.0.0.1:0 -probe 50", true},
		{"-exp fig2-costs " + path, true},
	} {
		var out bytes.Buffer
		err := cmdRun(strings.Fields(c.args), &out)
		if err == nil {
			t.Fatalf("run %s: accepted", c.args)
		}
		if isUsage := errors.As(err, new(usageError)); isUsage != c.usage {
			t.Fatalf("run %s: %v is usage error %v, want %v", c.args, err, isUsage, c.usage)
		}
		if out.Len() > 0 {
			t.Fatalf("run %s: printed %q before failing", c.args, out.String())
		}
		if b, _ := os.ReadFile(path); string(b) != precious {
			t.Fatalf("run %s: file now %q", c.args, b)
		}
	}
}
