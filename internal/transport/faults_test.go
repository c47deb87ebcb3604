package transport

import (
	"math"
	"testing"

	"unap2p/internal/sim"
	"unap2p/internal/underlay"
)

// Edge tests for fault injection and the accounting identities that the
// telemetry layer snapshots rely on.

// TestRoundTripRetryAccounting pins the retry bookkeeping identities
// under heavy loss: every attempt (including retried legs) is a real,
// counted message; replies are only ever attempted after a delivered
// request; and reported successes equal delivered replies.
func TestRoundTripRetryAccounting(t *testing.T) {
	net := testNet()
	tr := Over(net)
	tr.Retry = RetryPolicy{Budget: 3}
	lossy(tr, 0.3, sim.NewSource(7).Stream("faults"))
	hosts := net.Hosts()
	successes := uint64(0)
	const trips = 300
	for i := 0; i < trips; i++ {
		if tr.RoundTrip(hosts[i%len(hosts)], hosts[(i*5+1)%len(hosts)], 80, 40, "req", "resp").OK {
			successes++
		}
	}
	req, resp := tr.StatsFor("req"), tr.StatsFor("resp")
	if req.Msgs < trips {
		t.Fatalf("req attempts %d < %d trips — retries not counted as real messages", req.Msgs, trips)
	}
	if req.Dropped == 0 || resp.Dropped == 0 {
		t.Fatal("30% loss dropped nothing; test is vacuous")
	}
	deliveredReq := req.Msgs - req.Dropped
	if resp.Msgs != deliveredReq {
		t.Fatalf("resp attempts %d, want one per delivered request %d", resp.Msgs, deliveredReq)
	}
	if got := resp.Msgs - resp.Dropped; got != successes {
		t.Fatalf("delivered replies %d, want %d reported successes", got, successes)
	}
	if successes == 0 || successes == trips {
		t.Fatalf("successes = %d of %d; loss+retry should yield a strict mix", successes, trips)
	}
}

// TestRoundTripBackoffLatency pins the backoff accounting identity: the
// successful round trip's latency equals the raw leg latencies plus the
// sum of Backoff(1..n) for the n waits spent before the winning attempt,
// and the backoff draws never touch the Drop hook's stream.
func TestRoundTripBackoffLatency(t *testing.T) {
	net := testNet()
	hosts := net.Hosts()
	a, b := hosts[0], hosts[5]
	rtt := net.Latency(a, b) + net.Latency(b, a)

	// Deterministic loss pattern via the Drop hook: fail the first two
	// request legs, deliver everything after.
	tr := Over(net)
	sends := 0
	tr.Drop = func(from, to *underlay.Host) bool {
		sends++
		return sends <= 2
	}
	var waits []int
	tr.Retry = RetryPolicy{
		Budget: 5,
		Backoff: func(attempt int) sim.Duration {
			waits = append(waits, attempt)
			return sim.Duration(100 * attempt)
		},
	}
	res := tr.RoundTrip(a, b, 80, 40, "req", "resp")
	if !res.OK {
		t.Fatal("round trip failed with budget 5 and 2 forced drops")
	}
	// Two failed attempts → Backoff(1) + Backoff(2) = 300 on top of the
	// real round-trip latency (tolerance for float summation order).
	if want := rtt + 300; math.Abs(float64(res.Latency-want)) > 1e-9 {
		t.Fatalf("latency %v, want rtt %v + 300 backoff", res.Latency, want)
	}
	if len(waits) != 2 || waits[0] != 1 || waits[1] != 2 {
		t.Fatalf("backoff attempts %v, want [1 2] (1-based, one per failed attempt)", waits)
	}
	// Accounting: 3 request attempts (2 dropped), 1 reply.
	req, resp := tr.StatsFor("req"), tr.StatsFor("resp")
	if req.Msgs != 3 || req.Dropped != 2 {
		t.Fatalf("req msgs/dropped = %d/%d, want 3/2", req.Msgs, req.Dropped)
	}
	if resp.Msgs != 1 || resp.Dropped != 0 {
		t.Fatalf("resp msgs/dropped = %d/%d, want 1/0", resp.Msgs, resp.Dropped)
	}
}

// TestRoundTripWithOverridesDefault pins the per-call policy seam: a
// caller-supplied policy is used instead of the transport default, and a
// zero-value policy makes exactly one attempt.
func TestRoundTripWithOverridesDefault(t *testing.T) {
	net := testNet()
	tr := Over(net)
	lossy(tr, 1, sim.NewSource(11).Stream("faults"))
	tr.Retry = RetryPolicy{Budget: 9} // default would burn 10 attempts
	hosts := net.Hosts()
	if tr.RoundTripWith(RetryPolicy{}, hosts[0], hosts[3], 10, 10, "req", "resp").OK {
		t.Fatal("round trip succeeded under total loss")
	}
	if got := tr.StatsFor("req").Msgs; got != 1 {
		t.Fatalf("zero policy made %d attempts, want exactly 1", got)
	}
	if tr.RoundTripWith(RetryPolicy{Budget: 4}, hosts[0], hosts[3], 10, 10, "req", "resp").OK {
		t.Fatal("round trip succeeded under total loss")
	}
	if got := tr.StatsFor("req").Msgs; got != 1+5 {
		t.Fatalf("budget-4 policy: req attempts now %d, want 6 (1 + 1+4)", got)
	}
}

// TestFaultsDropHook pins the endpoint-aware drop seam chaos scenarios
// build on: the hook sees real endpoints, a true verdict discards the
// message before any underlay charge, and a nil hook changes nothing.
func TestFaultsDropHook(t *testing.T) {
	net := testNet()
	hosts := net.Hosts()
	victim := -1
	for _, h := range hosts {
		if h.AS.ID != hosts[0].AS.ID {
			victim = h.AS.ID
			break
		}
	}
	if victim < 0 {
		t.Skip("topology has a single AS")
	}
	tr := Over(net)
	tr.Drop = func(from, to *underlay.Host) bool {
		return from.AS.ID == victim || to.AS.ID == victim
	}
	delivered, dropped := 0, 0
	for i := 0; i < len(hosts); i++ {
		res := tr.Send(hosts[0], hosts[i%len(hosts)], 50, "part")
		if res.OK {
			delivered++
		} else {
			dropped++
		}
		touches := hosts[0].AS.ID == victim || hosts[i%len(hosts)].AS.ID == victim
		if res.OK == touches {
			t.Fatalf("send %d: OK=%v but touches partitioned AS=%v", i, res.OK, touches)
		}
	}
	if delivered == 0 || dropped == 0 {
		t.Fatalf("vacuous partition: delivered=%d dropped=%d", delivered, dropped)
	}
	st := tr.StatsFor("part")
	if st.Dropped != uint64(dropped) {
		t.Fatalf("stats dropped %d, want %d", st.Dropped, dropped)
	}
	if st.Bytes != uint64(delivered)*50 {
		t.Fatalf("partitioned messages charged bytes: %d, want %d", st.Bytes, delivered*50)
	}
}

// TestInterBytesAfterDrops pins the byte-accounting identity under loss:
// dropped messages charge nothing, so delivered bytes (and their
// intra-AS share) cover exactly the messages that got through.
func TestInterBytesAfterDrops(t *testing.T) {
	net := testNet()
	tr := Over(net)
	lossy(tr, 0.4, sim.NewSource(3).Stream("faults"))
	hosts := net.Hosts()
	const size = 64
	for i := 0; i < 400; i++ {
		tr.Send(hosts[i%len(hosts)], hosts[(i*3+2)%len(hosts)], size, "d")
	}
	st := tr.StatsFor("d")
	if st.Dropped == 0 {
		t.Fatal("40% loss dropped nothing; test is vacuous")
	}
	if want := (st.Msgs - st.Dropped) * size; st.Bytes != want {
		t.Fatalf("delivered bytes %d, want %d (drops must charge nothing)", st.Bytes, want)
	}
	if st.IntraBytes > st.Bytes {
		t.Fatalf("intra bytes %d exceed delivered bytes %d", st.IntraBytes, st.Bytes)
	}
	if st.IntraBytes%size != 0 {
		t.Fatalf("intra bytes %d is not a whole number of messages", st.IntraBytes)
	}
}
