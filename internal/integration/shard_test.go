package integration

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"unap2p/internal/experiments"
	"unap2p/internal/sim"
	"unap2p/internal/telemetry"
)

// recordMegascale runs exp-megascale for one overlay with a sampling
// telemetry recorder attached — the same wiring as `unapctl run -o
// -probe 100` — and returns the full run file bytes plus the rendered
// result table.
func recordMegascale(t *testing.T, seed int64, peers, shards int, overlay string) ([]byte, *experiments.Result) {
	t.Helper()
	params := map[string]string{
		"peers":   strconv.Itoa(peers),
		"shards":  strconv.Itoa(shards),
		"overlay": overlay,
	}
	var buf bytes.Buffer
	rec := telemetry.NewRecorder(telemetry.Config{
		Sink: telemetry.NewRunWriter(&buf),
		Manifest: telemetry.Manifest{
			Name: "exp-megascale", Experiment: "exp-megascale",
			Seed: seed, Scale: 1, Params: params,
		},
		Interval: 100 * sim.Millisecond,
	})
	res, err := experiments.Run("exp-megascale", experiments.RunConfig{
		Seed: seed, Scale: 1, Obs: rec, Params: params,
	})
	if err != nil {
		t.Fatalf("exp-megascale: %v", err)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("close recorder: %v", err)
	}
	return buf.Bytes(), &res
}

// TestMegascaleRunFilesByteIdentical pins the reproducibility contract
// of the megascale runtime: for a fixed (seed, shard count, overlay) the
// entire run file — manifest, barrier samples, closing metrics snapshot
// — and the rendered table are byte-for-byte identical across runs, for
// every compact overlay port, and each run file matches its checked-in
// hash. Three seeds, single-shard and four-shard, each overlay.
func TestMegascaleRunFilesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated megascale runs skipped in -short")
	}
	for _, overlay := range []string{"kademlia", "chord", "gnutella"} {
		for _, seed := range []int64{1, 2, 3} {
			for _, shards := range []int{1, 4} {
				fileA, resA := recordMegascale(t, seed, 2000, shards, overlay)
				fileB, resB := recordMegascale(t, seed, 2000, shards, overlay)
				if !bytes.Equal(fileA, fileB) {
					t.Fatalf("%s seed %d K=%d: run files differ (%d vs %d bytes)",
						overlay, seed, shards, len(fileA), len(fileB))
				}
				if resA.Render() != resB.Render() {
					t.Fatalf("%s seed %d K=%d: rendered tables differ", overlay, seed, shards)
				}
				if len(fileA) == 0 {
					t.Fatalf("%s seed %d K=%d: empty run file", overlay, seed, shards)
				}
				checkRunFile(t, fmt.Sprintf("%s/%s/seed=%d/K=%d", t.Name(), overlay, seed, shards), fileA)
				// The run file must carry the sharded kernel's gauges and the
				// barrier-sampled health sources, or 'series' has nothing to plot.
				for _, want := range []string{"kernel:sharded", "megascale", "megachurn"} {
					if !bytes.Contains(fileA, []byte(want)) {
						t.Fatalf("%s seed %d K=%d: run file lacks %q", overlay, seed, shards, want)
					}
				}
			}
		}
	}
}

// megasmokeRow asserts one overlay's largest sweep point completed
// cleanly: full population, no late cross-shard events, ground-truth
// success above the overlay's floor.
func megasmokeRow(t *testing.T, res *experiments.Result, overlay string, peers int, floor float64) {
	t.Helper()
	var last []string
	for _, row := range res.Rows {
		if row[0] == overlay {
			last = row
		}
	}
	if last == nil {
		t.Fatalf("no rows for overlay %s", overlay)
	}
	if last[1] != fmt.Sprint(peers) {
		t.Fatalf("%s largest point ran %s peers, want %d", overlay, last[1], peers)
	}
	if late := last[5]; late != "0" {
		t.Fatalf("%s late cross-shard events: %s — window exceeded lookahead", overlay, late)
	}
	exact, err := strconv.ParseFloat(strings.TrimSuffix(last[7], "%"), 64)
	if err != nil {
		t.Fatalf("%s exact cell %q: %v", overlay, last[7], err)
	}
	if exact < floor {
		t.Fatalf("%s ground-truth success %.1f%% < %.0f%% at %d peers", overlay, exact, floor, peers)
	}
}

// TestMegascaleSmoke is the CI smoke gate (`make megascale-smoke`): one
// mid-size sharded run per compact overlay under race, sized by
// UNAP_MEGASMOKE_PEERS. The default stays small enough for the ordinary
// test run.
func TestMegascaleSmoke(t *testing.T) {
	peers := 6000
	if v := os.Getenv("UNAP_MEGASMOKE_PEERS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 100 {
			t.Fatalf("UNAP_MEGASMOKE_PEERS=%q: %v", v, err)
		}
		peers = n
	}
	for _, shards := range []int{1, 4} {
		file, res := recordMegascale(t, 7, peers, shards, "all")
		if len(file) == 0 {
			t.Fatalf("K=%d: empty run file", shards)
		}
		if len(res.Rows) != 9 {
			t.Fatalf("K=%d: want 3 overlays × 3 sweep points, got %d rows", shards, len(res.Rows))
		}
		megasmokeRow(t, res, "kademlia", peers, 80)
		megasmokeRow(t, res, "chord", peers, 80)
		// A TTL-bounded flood reaches a roughly constant neighborhood,
		// so gnutella's hit rate falls ~1/peers as the haystack grows
		// (~60% at 6k, ~14% at 50k, ~1% at 1M). Scale the floor with
		// size instead of pinning the 6k-peer figure.
		gnutellaFloor := math.Min(50, 150_000/float64(peers))
		megasmokeRow(t, res, "gnutella", peers, gnutellaFloor)
	}
}
