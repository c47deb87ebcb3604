package experiments

import (
	"encoding/json"
	"testing"
)

func TestRunSeedsParallelAndOrdered(t *testing.T) {
	cfg := RunConfig{Scale: 0.3}
	results, err := RunSeeds("fig5-overlay-viz", cfg, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results", len(results))
	}
	// Seed order: result i must equal a direct run with seed 10+i.
	for i, r := range results {
		direct, err := Run("fig5-overlay-viz", RunConfig{Seed: 10 + int64(i), Scale: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		if r.Render() != direct.Render() {
			t.Fatalf("sweep result %d differs from direct run", i)
		}
	}
}

func TestRunSeedsValidation(t *testing.T) {
	if _, err := RunSeeds("fig2-costs", RunConfig{Seed: 1, Scale: 1}, 1, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := RunSeeds("nope", RunConfig{Seed: 1, Scale: 1}, 1, 2); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestSummarize(t *testing.T) {
	results, err := RunSeeds("fig5-overlay-viz", RunConfig{Scale: 0.3}, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Summarize(results)
	if err != nil {
		t.Fatal(err)
	}
	unb, ok := stats["unbiased"]
	if !ok {
		t.Fatalf("missing unbiased row: %v", stats)
	}
	// Column 1 = intra-AS edge percentage.
	st := unb[1]
	if st.N != 3 {
		t.Fatalf("N = %d", st.N)
	}
	if st.Min > st.Mean || st.Mean > st.Max {
		t.Fatalf("stat ordering broken: %+v", st)
	}
	// The biased row must dominate the unbiased row even on sweep means.
	bia := stats["biased (oracle)"]
	if bia[1].Mean <= unb[1].Mean {
		t.Fatal("sweep mean lost the clustering effect")
	}
}

func TestSummarizeErrors(t *testing.T) {
	if _, err := Summarize(nil); err == nil {
		t.Fatal("empty sweep accepted")
	}
	a, _ := Run("fig2-costs", RunConfig{Seed: 1, Scale: 0.3})
	b, _ := Run("fig5-overlay-viz", RunConfig{Seed: 1, Scale: 0.3})
	if _, err := Summarize([]Result{a, b}); err == nil {
		t.Fatal("mismatched results accepted")
	}
}

func TestResultJSON(t *testing.T) {
	r, err := Run("fig2-costs", RunConfig{Seed: 1, Scale: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		ID      string     `json:"id"`
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != "fig2-costs" || len(back.Rows) != len(r.Rows) {
		t.Fatalf("round trip lost data: %+v", back)
	}
	// The encoding is pinned byte for byte, with and without notes:
	// `unapctl run -json` prints it, and tools read those bytes.
	for _, c := range []struct {
		r    Result
		want string
	}{
		{
			Result{ID: "x-notes", Title: `A <b> & "q" — ∝`, Headers: []string{"h1", "h2"},
				Rows: [][]string{{"1", "2.50%"}, {"a&b", "<3>"}}, Notes: []string{"first", "second — ∝"}},
			`{"id":"x-notes","title":"A \u003cb\u003e \u0026 \"q\" — ∝","headers":["h1","h2"],"rows":[["1","2.50%"],["a\u0026b","\u003c3\u003e"]],"notes":["first","second — ∝"]}`,
		},
		{
			Result{ID: "x-bare", Title: "no notes", Headers: []string{"h"}, Rows: [][]string{{"7"}}},
			`{"id":"x-bare","title":"no notes","headers":["h"],"rows":[["7"]]}`,
		},
	} {
		got, err := json.Marshal(c.r)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.r.ID, got, c.want)
		}
	}
}
