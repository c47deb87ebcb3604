package livenode

import (
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"unap2p/internal/megascale"
	"unap2p/internal/underlay"
)

// requireSockets skips the test with a reason when the environment
// forbids binding localhost UDP sockets (restricted sandboxes), instead
// of failing every live test with an opaque bind error.
func requireSockets(t *testing.T) {
	t.Helper()
	c, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("environment forbids UDP sockets: %v", err)
	}
	c.Close()
}

// waitBudget derives a polling deadline from the test's own -timeout
// budget (minus grace for teardown), falling back to def when none is
// set — bounded waits without a magic constant racing the harness.
func waitBudget(t *testing.T, def time.Duration) time.Time {
	t.Helper()
	if d, ok := t.Deadline(); ok {
		if budget := time.Until(d) - 5*time.Second; budget > 0 && budget < def {
			return time.Now().Add(budget)
		}
	}
	return time.Now().Add(def)
}

// bootCluster starts n nodes of one overlay in this process on ephemeral
// localhost ports, joins them all through node 0, and waits until every
// address book holds the full membership.
func bootCluster(t *testing.T, overlay string, n int) []*Node {
	t.Helper()
	return bootClusterWith(t, n, Config{
		Overlay:      overlay,
		PingInterval: 100 * time.Millisecond,
		Timeout:      150 * time.Millisecond,
	})
}

// bootClusterWith is bootCluster with the caller's Config for every node
// (ID and Logf are filled in): a big cluster wants slower pings than n²
// of them every 100 ms.
func bootClusterWith(t *testing.T, n int, cfg Config) []*Node {
	t.Helper()
	requireSockets(t)
	cfg.Logf = t.Logf
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		cfg.ID = underlay.HostID(i)
		node, err := StartRetry(cfg, 5)
		if err != nil {
			t.Fatalf("start node %d: %v", i, err)
		}
		nodes[i] = node
		t.Cleanup(func() { node.Close() })
		if i > 0 {
			if err := node.Join(nodes[0].Net().LocalAddr().String()); err != nil {
				t.Fatalf("join node %d: %v", i, err)
			}
		}
	}
	awaitCluster(t, "full address books", func() bool {
		for _, node := range nodes {
			if node.Peers() != n {
				return false
			}
		}
		return true
	})
	return nodes
}

func awaitCluster(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := waitBudget(t, 10*time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterLookups is the in-process half of the ISSUE acceptance
// criterion: for each overlay, a 5-node cluster must complete ≥95% of
// verified lookups. (The same floor is enforced across OS processes by
// internal/integration's net-smoke test.)
func TestClusterLookups(t *testing.T) {
	const clusterSize, lookups = 5, 40
	for _, overlay := range []string{"kademlia", "chord", "gnutella"} {
		t.Run(overlay, func(t *testing.T) {
			t.Parallel()
			nodes := bootCluster(t, overlay, clusterSize)
			ok, total := 0, 0
			for _, node := range nodes {
				ok += node.RunLookups(lookups)
				total += lookups
			}
			if floor := total * 95 / 100; ok < floor {
				t.Fatalf("%s: %d/%d lookups verified, floor %d", overlay, ok, total, floor)
			}
			t.Logf("%s: %d/%d lookups verified", overlay, ok, total)
		})
	}
}

// TestNoGoroutineOutlivesClose boots 4 nodes per overlay with a metrics
// endpoint, runs 20 lookups on each, closes them all, and requires the
// process to return to the goroutine count it had before the boot: no
// receive loop, handler, pacer or metrics server may outlive Node.Close.
func TestNoGoroutineOutlivesClose(t *testing.T) {
	for _, overlay := range []string{"kademlia", "chord", "gnutella"} {
		t.Run(overlay, func(t *testing.T) {
			before := runtime.NumGoroutine()
			nodes := bootClusterWith(t, 4, Config{
				Overlay:      overlay,
				MetricsAddr:  "127.0.0.1:0",
				PingInterval: 100 * time.Millisecond,
				Timeout:      150 * time.Millisecond,
			})
			for _, node := range nodes {
				node.RunLookups(20)
			}
			for _, node := range nodes {
				node.Close()
			}
			deadline := time.Now().Add(2500 * time.Millisecond)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<20)
					t.Fatalf("%d goroutines after Close, %d before boot:\n%s",
						runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// kadRPCs is the cluster-wide count of kad:find_node requests sent.
func kadRPCs(nodes []*Node) (total uint64) {
	for _, node := range nodes {
		total += node.Net().Counters().Value("kad:find_node")
	}
	return total
}

// TestKademliaLookupStopsAtKClosest pins the lookup's stop rule on real
// sockets: with full address books every one of 200 lookups verifies, and
// none costs more than kadK find_node round trips — the kadK closest are
// known from the start, and once they are all queried the lookup is over.
// (Querying every member heard of would be 15 here.)
func TestKademliaLookupStopsAtKClosest(t *testing.T) {
	const clusterSize, lookups = 16, 200
	nodes := bootClusterWith(t, clusterSize, Config{
		Overlay: "kademlia", PingInterval: time.Second, Timeout: time.Second,
	})
	for i := 0; i < lookups; i++ {
		node := nodes[i%clusterSize]
		target := megascale.Mix64(uint64(i) * 0x9e3779b97f4a7c15)
		before := kadRPCs(nodes)
		got, ok := node.Engine().Lookup(target)
		if !ok {
			t.Fatalf("lookup %d from node %d: resolved %d, not verified", i, node.Net().Self(), got)
		}
		if rpcs := kadRPCs(nodes) - before; rpcs > kadK {
			t.Fatalf("lookup %d from node %d: %d find_node RPCs, want ≤ %d", i, node.Net().Self(), rpcs, kadK)
		}
	}
}

// TestKademliaLookupLearnsThroughReplies starts a node that knows only
// itself and one bootstrap address — no Join, so no merged book — in a
// 32-member cluster whose other members hold full books. Capping the
// shortlist at kadK must not cost it the ability to learn: every target
// resolves to the cluster-wide truth, within one round trip to whoever it
// already knows plus at most kadK to the closest set that reply names.
func TestKademliaLookupLearnsThroughReplies(t *testing.T) {
	const clusterSize, lookups = 32, 50
	cfg := Config{Overlay: "kademlia", PingInterval: time.Second, Timeout: time.Second}
	nodes := bootClusterWith(t, clusterSize-1, cfg)
	cfg.ID, cfg.Logf = clusterSize-1, t.Logf
	lone, err := StartRetry(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lone.Close() })
	lone.Net().Book().Set(nodes[0].Net().Self(), nodes[0].Net().LocalAddr())

	all := make([]underlay.HostID, clusterSize)
	for i := range all {
		all[i] = underlay.HostID(i)
	}
	sent := lone.Net().Counters().Get("kad:find_node")
	for i := 0; i < lookups; i++ {
		target := megascale.Mix64(uint64(i)*0x9e3779b97f4a7c15 + 1)
		before := sent.Value()
		got, _ := lone.Engine().Lookup(target) // its verdict is against its own partial view
		if want := ClosestXor(nil, all, target, 1)[0]; got != want {
			t.Fatalf("lookup %d: resolved %d, cluster-wide closest is %d (lone node knows %d members)",
				i, got, want, lone.Peers())
		}
		if rpcs := sent.Value() - before; rpcs > 1+kadK {
			t.Fatalf("lookup %d: %d find_node RPCs, want ≤ 1+%d", i, rpcs, kadK)
		}
	}
	if lone.Peers() <= 2 {
		t.Fatalf("lone node still knows %d members after %d lookups", lone.Peers(), lookups)
	}
}

// TestClusterDetectsKill boots a kademlia cluster, kills one node, and
// requires every survivor's failure detector to suspect and then evict
// it — the real-socket version of the chaos-harness eviction test, with
// actual missed datagrams standing in for injected faults.
func TestClusterDetectsKill(t *testing.T) {
	nodes := bootCluster(t, "kademlia", 4)
	victim := nodes[len(nodes)-1]
	victimID := victim.Net().Self()

	// Detectors need at least one ping round against the live victim so
	// the watches exist before the kill.
	awaitCluster(t, "watches established", func() bool {
		for _, node := range nodes[:len(nodes)-1] {
			if node.Detector().Counters().Get("ping").Value() == 0 {
				return false
			}
		}
		return true
	})
	victim.Close()

	awaitCluster(t, "survivors evict the victim", func() bool {
		for _, node := range nodes[:len(nodes)-1] {
			if node.Detector().Counters().Get("evict").Value() == 0 {
				return false
			}
		}
		return true
	})
	for i, node := range nodes[:len(nodes)-1] {
		if node.Detector().Counters().Get("suspect").Value() == 0 {
			t.Errorf("node %d evicted without suspecting first", i)
		}
		if !node.Engine().(*kademlia).Dead(victimID) {
			t.Errorf("node %d: healer did not mark %d dead", i, victimID)
		}
		if _, still := node.Net().Book().Get(victimID); still {
			t.Errorf("node %d: victim still in the address book", i)
		}
		// The survivors' overlay must keep answering lookups.
		if ok := node.RunLookups(10); ok < 9 {
			t.Errorf("node %d: only %d/10 lookups verified after eviction", i, ok)
		}
	}
}

// TestClusterMetricsEndpoint boots one node with a live /metrics port
// and checks the resilience counters are exposed in Prometheus format.
func TestClusterMetricsEndpoint(t *testing.T) {
	nodes := bootCluster(t, "chord", 3)
	node, err := StartRetry(Config{
		ID:           7,
		Overlay:      "chord",
		MetricsAddr:  "127.0.0.1:0",
		PingInterval: 100 * time.Millisecond,
		Timeout:      150 * time.Millisecond,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	if err := node.Join(nodes[0].Net().LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	awaitCluster(t, "pings flowing", func() bool {
		return node.Detector().Counters().Get("ping").Value() > 0
	})

	snap := node.Registry().Snapshot()
	if snap.Counters["resilience:ping"] == 0 {
		t.Fatalf("snapshot has no resilience:ping counter: %v", snap.Counters)
	}
	if snap.Gauges["peers"] != 4 {
		t.Fatalf("peers gauge = %v, want 4", snap.Gauges["peers"])
	}
	text := snap.PrometheusText()
	for _, series := range []string{"unap2p_resilience_ping_total", "unap2p_peers", "unap2p_rtt_ms_bucket"} {
		if !strings.Contains(text, series) {
			t.Fatalf("prometheus text missing %s:\n%.400s", series, text)
		}
	}
	if node.MetricsAddr() == "" {
		t.Fatal("MetricsAddr empty with metrics enabled")
	}
}

func TestNodeRejectsUnknownOverlay(t *testing.T) {
	requireSockets(t)
	if _, err := Start(Config{ID: 0, Overlay: "pastry"}); err == nil {
		t.Fatal("Start accepted an unknown overlay")
	}
}

// TestNodeValidatesMissStreaks pins Start's one streak check: negatives
// and EvictAfter < SuspectAfter — after the detector's defaults (2, 4)
// fill the zeros — are rejected before anything binds a socket. Each
// rejected case names a port the test itself holds, so a Start that
// reached Listen would fail with "address in use" instead.
func TestNodeValidatesMissStreaks(t *testing.T) {
	requireSockets(t)
	held, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	for _, c := range []struct {
		suspect, evict int
		ok             bool
	}{
		{6, 3, false}, {5, 0, false}, {-1, 0, false}, {0, -1, false},
		{0, 0, true}, {2, 0, true}, {0, 6, true},
	} {
		cfg := Config{ID: 0, Overlay: "kademlia", SuspectAfter: c.suspect, EvictAfter: c.evict}
		if !c.ok {
			cfg.Listen = held.LocalAddr().String()
		}
		n, err := Start(cfg)
		if c.ok {
			if err != nil {
				t.Fatalf("Start rejected streaks (%d, %d): %v", c.suspect, c.evict, err)
			}
			n.Close()
			continue
		}
		if err == nil {
			n.Close()
			t.Fatalf("Start accepted streaks (%d, %d)", c.suspect, c.evict)
		}
		if !strings.Contains(err.Error(), "SuspectAfter") {
			t.Fatalf("streaks (%d, %d) rejected only at the socket: %v", c.suspect, c.evict, err)
		}
	}
}

func TestKeyHelpers(t *testing.T) {
	// Golden keys: live ground truth (and every recorded lookup verdict)
	// rests on this exact mapping.
	for id, want := range map[underlay.HostID]uint64{
		0: 0xe220a8397b1dcdaf, 7: 0x63cbe1e459320dd7, 1 << 20: 0x33548c24002a1c2d,
	} {
		if got := NodeKey(id); got != want {
			t.Fatalf("NodeKey(%d) = %#x, want %#x", id, got, want)
		}
	}
	members := []underlay.HostID{0, 1, 2, 3, 4}
	// ClosestXor(…, key(id), 1) must return id itself.
	for _, id := range members {
		if got := ClosestXor(nil, members, NodeKey(id), 1)[0]; got != id {
			t.Fatalf("ClosestXor(key(%d)) = %d", id, got)
		}
	}
	// RingSuccessor at a member's exact key is that member.
	for _, id := range members {
		got, ok := RingSuccessor(members, NodeKey(id))
		if !ok || got != id {
			t.Fatalf("RingSuccessor(key(%d)) = %d, %v", id, got, ok)
		}
	}
	// Past the largest key the ring wraps to the smallest.
	var maxID, minID underlay.HostID
	for _, id := range members {
		if NodeKey(id) > NodeKey(maxID) {
			maxID = id
		}
		if NodeKey(id) < NodeKey(minID) {
			minID = id
		}
	}
	if got, _ := RingSuccessor(members, NodeKey(maxID)+1); got != minID {
		t.Fatalf("wrap successor = %d, want %d", got, minID)
	}
	// Keys are distinct across a wide id range (the convention every
	// engine relies on).
	seen := map[uint64]underlay.HostID{}
	for id := underlay.HostID(0); id < 10000; id++ {
		k := NodeKey(id)
		if prev, dup := seen[k]; dup {
			t.Fatalf("NodeKey collision: ids %d and %d", prev, id)
		}
		seen[k] = id
	}
}
