package experiments

import (
	"strings"
	"testing"
)

func megaCfg(peers, shards string) RunConfig {
	return RunConfig{Seed: 5, Scale: 1, Params: map[string]string{
		"peers": peers, "shards": shards,
	}}
}

// Column indices of the exp-megascale table.
const (
	mcOverlay = iota
	mcPeers
	mcEvents
	mcEpochs
	mcXBytes
	mcLate
	mcLookups
	mcExact
	mcHops
	mcSimEnd
)

// TestMegascaleShape runs the scaling sweep at toy size and checks the
// table carries a full three-point curve with live lookups.
func TestMegascaleShape(t *testing.T) {
	r := mustRun(t, "exp-megascale", megaCfg("2000", "2"))
	if len(r.Rows) != 3 {
		t.Fatalf("want 3 sweep points, got %d", len(r.Rows))
	}
	for i, row := range r.Rows {
		if row[mcOverlay] != "kademlia" {
			t.Fatalf("point %d overlay %q, want default kademlia", i, row[mcOverlay])
		}
		if cell(t, row[mcEvents]) <= 0 {
			t.Fatalf("point %d processed no events", i)
		}
		if cell(t, row[mcLate]) != 0 {
			t.Fatalf("point %d has late cross-shard events: %s", i, row[mcLate])
		}
		if cell(t, row[mcLookups]) <= 0 {
			t.Fatalf("point %d completed no lookups", i)
		}
	}
	// Event counts grow with population.
	if cell(t, r.Rows[2][mcEvents]) <= cell(t, r.Rows[0][mcEvents]) {
		t.Fatal("events should grow with peers")
	}
	// Lookups on the largest point mostly find the exact closest peer.
	if cell(t, r.Rows[2][mcExact]) < 80 {
		t.Fatalf("exact rate %s%% too low under churn", r.Rows[2][mcExact])
	}
}

// TestMegascaleShardCountInvariant checks the shard count is a pure
// performance knob: each K is bit-reproducible on its own, and the
// simulated outcomes agree across K up to timestamp-tie reordering
// (events at identical times merge in (time, shard, seq) order under
// K>1 versus global seq order under K=1, so raw event counts may drift
// by a hair while the workload-level results stay put).
func TestMegascaleShardCountInvariant(t *testing.T) {
	r1 := mustRun(t, "exp-megascale", megaCfg("1600", "1"))
	r4 := mustRun(t, "exp-megascale", megaCfg("1600", "4"))
	if mustRun(t, "exp-megascale", megaCfg("1600", "4")).Render() != r4.Render() {
		t.Fatal("K=4 run is not reproducible")
	}
	if len(r1.Rows) != len(r4.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(r1.Rows), len(r4.Rows))
	}
	for i := range r1.Rows {
		// Same sweep points, all issued lookups complete under both.
		if r1.Rows[i][mcPeers] != r4.Rows[i][mcPeers] {
			t.Fatalf("row %d peers: %q vs %q", i, r1.Rows[i][mcPeers], r4.Rows[i][mcPeers])
		}
		if r1.Rows[i][mcLookups] != r4.Rows[i][mcLookups] {
			t.Fatalf("row %d lookups: K=1 %q vs K=4 %q", i, r1.Rows[i][mcLookups], r4.Rows[i][mcLookups])
		}
		ev1, ev4 := cell(t, r1.Rows[i][mcEvents]), cell(t, r4.Rows[i][mcEvents])
		if diff := ev4 - ev1; diff > ev1/100 || diff < -ev1/100 {
			t.Fatalf("row %d events drift beyond 1%%: %v vs %v", i, ev1, ev4)
		}
		ex1, ex4 := cell(t, r1.Rows[i][mcExact]), cell(t, r4.Rows[i][mcExact])
		if diff := ex4 - ex1; diff > 5 || diff < -5 {
			t.Fatalf("row %d exact rate: %v%% vs %v%%", i, ex1, ex4)
		}
	}
	// K=1 has no cross-shard traffic; K=4 must have some.
	if cell(t, r1.Rows[2][mcXBytes]) != 0 {
		t.Fatal("K=1 recorded cross-shard bytes")
	}
	if cell(t, r4.Rows[2][mcXBytes]) == 0 {
		t.Fatal("K=4 recorded no cross-shard bytes")
	}
}

// TestMegascaleOverlayAxis sweeps all three compact overlays and checks
// each completes its workload with healthy ground-truth success on the
// same sharded substrate.
func TestMegascaleOverlayAxis(t *testing.T) {
	cfg := megaCfg("1600", "2")
	cfg.Params["overlay"] = "all"
	r := mustRun(t, "exp-megascale", cfg)
	if len(r.Rows) != 9 {
		t.Fatalf("want 3 overlays × 3 points, got %d rows", len(r.Rows))
	}
	want := map[string]float64{"kademlia": 80, "chord": 80, "gnutella": 50}
	seen := map[string]int{}
	for _, row := range r.Rows {
		name := row[mcOverlay]
		floor, known := want[name]
		if !known {
			t.Fatalf("unexpected overlay %q", name)
		}
		seen[name]++
		if cell(t, row[mcLate]) != 0 {
			t.Fatalf("%s has late cross-shard events", name)
		}
		if cell(t, row[mcLookups]) <= 0 {
			t.Fatalf("%s completed no requests", name)
		}
		if got := cell(t, row[mcExact]); got < floor {
			t.Fatalf("%s ground-truth success %.1f%% below floor %.0f%%", name, got, floor)
		}
	}
	for name, n := range seen {
		if n != 3 {
			t.Fatalf("%s has %d sweep points, want 3", name, n)
		}
	}
	// Chord vs Gnutella hop economics differ by construction: the flood's
	// first-hit hop count stays at TTL scale while the ring walk grows
	// with log n — both must be nonzero.
	for _, row := range r.Rows {
		if h := row[mcHops]; h == "0.00" {
			t.Fatalf("%s reports zero mean hops", row[mcOverlay])
		}
	}
	// A single-overlay run restricted by name matches the axis subset.
	cfg2 := megaCfg("1600", "2")
	cfg2.Params["overlay"] = "chord"
	r2 := mustRun(t, "exp-megascale", cfg2)
	if len(r2.Rows) != 3 || r2.Rows[0][mcOverlay] != "chord" {
		t.Fatalf("overlay=chord run malformed: %+v", r2.Rows)
	}
}

// TestMegascaleMalformedParamNoted checks a -param value that does not
// parse as an integer is reported in the result rather than silently
// replaced by the default: the run file's manifest records the value as
// given, so the result must say it was not used.
func TestMegascaleMalformedParamNoted(t *testing.T) {
	r := mustRun(t, "exp-megascale", megaCfg("400", "two"))
	want := `malformed param shards="two" ignored (want an integer); using 4`
	found := false
	for _, n := range r.Notes {
		found = found || n == want
	}
	if !found {
		t.Fatalf("no note %q in %q", want, r.Notes)
	}
	if !strings.Contains(r.Title, "K=4 shards") {
		t.Fatalf("title %q: the default shard count should have run", r.Title)
	}
}
