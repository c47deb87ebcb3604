package nettransport

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unap2p/internal/sim"
	"unap2p/internal/underlay"
)

// pair boots two Nets on ephemeral localhost ports and introduces them
// to each other through their address books.
func pair(t *testing.T) (a, b *Net) {
	t.Helper()
	a = listen(t, 0)
	b = listen(t, 1)
	a.Book().Set(b.Self(), b.LocalAddr())
	b.Book().Set(a.Self(), a.LocalAddr())
	return a, b
}

func listen(t *testing.T, id underlay.HostID) *Net {
	t.Helper()
	n, err := Listen(Config{Self: id, Timeout: 250 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// await polls cond until it holds or the deadline passes.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestNetSendAccountsAndDelivers(t *testing.T) {
	a, b := pair(t)

	var mu sync.Mutex
	var got []string
	b.HandleData("gossip", func(from underlay.HostID, msgType string, payload []byte) {
		mu.Lock()
		got = append(got, msgType)
		mu.Unlock()
	})

	if !a.SendPayload(b.Self(), "gossip", make([]byte, 100), 0) {
		t.Fatal("SendPayload to known peer reported failure")
	}
	if n := a.Counters().Get("gossip").Value(); n != 1 {
		t.Fatalf("sender gossip counter = %d, want 1", n)
	}
	if n := a.Counters().Get("gossip_bytes").Value(); n != 100 {
		t.Fatalf("sender gossip_bytes = %d, want 100", n)
	}
	await(t, "data delivery", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 1
	})
	if got[0] != "gossip" {
		t.Fatalf("data handler saw %v, want [gossip]", got)
	}
	if rx, rxb := b.Counters().Value("gossip_rx"), b.Counters().Value("gossip_rx_bytes"); rx != 1 || rxb != 100 {
		t.Fatalf("receiver gossip_rx=%d gossip_rx_bytes=%d, want 1 and 100", rx, rxb)
	}

	// Sending to a host with no book entry fails fast.
	if a.SendPayload(99, "gossip", []byte("x"), 0) {
		t.Fatal("SendPayload to unknown peer reported success")
	}
	if n := a.Counters().Value("net_tx_err"); n != 1 {
		t.Fatalf("net_tx_err = %d, want 1", n)
	}
}

// TestNetUnhandledGetsNoReply pins the reflection guard: a request (or
// data frame) of a type nobody registered is dropped and counted — the
// socket answers nothing, and a stranger's type names create no counters.
func TestNetUnhandledGetsNoReply(t *testing.T) {
	a, b := pair(t)
	if _, err := a.Call(b.Self(), "stranger:req", make([]byte, 29)); err == nil {
		t.Fatal("Call of an unregistered type got a reply")
	}
	a.SendPayload(b.Self(), "stranger:data", []byte("x"), 0)
	await(t, "unhandled frames counted", func() bool {
		return b.Counters().Value("net_rx_unhandled") == 2
	})
	for name := range b.Counters().Snapshot() {
		if !strings.HasPrefix(name, "net_") {
			t.Fatalf("unhandled frames created counter %q on the receiver", name)
		}
	}
	if n := a.Counters().Value("net_timeout"); n != 1 {
		t.Fatalf("caller net_timeout = %d, want 1", n)
	}
}

func TestNetRoundTripTimesOut(t *testing.T) {
	a, b := pair(t)
	b.Handle("fd_ping", func(_ underlay.HostID, p []byte) []byte { return p })
	b.SetDropRx(func(f *Frame) bool { return true })
	start := time.Now()
	if _, err := a.Call(b.Self(), "fd_ping", make([]byte, 16)); err == nil {
		t.Fatal("Call into a black hole succeeded")
	}
	if elapsed := time.Since(start); elapsed < 200*time.Millisecond {
		t.Fatalf("gave up after %v, before the 250ms deadline", elapsed)
	}
	if n := a.Counters().Value("net_timeout"); n != 1 {
		t.Fatalf("net_timeout = %d, want 1", n)
	}
	if n := a.RTT().N(); n != 0 {
		t.Fatalf("a timed-out call left %d RTT samples", n)
	}
}

func TestNetHandlerAndCall(t *testing.T) {
	a, b := pair(t)
	b.Handle("kad:find_node", func(from underlay.HostID, payload []byte) []byte {
		if from != a.Self() {
			t.Errorf("handler saw from=%d, want %d", from, a.Self())
		}
		return append([]byte("nodes:"), payload...)
	})
	resp, err := a.Call(b.Self(), "kad:find_node", []byte("k17"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "nodes:k17" {
		t.Fatalf("Call returned %q", resp)
	}
	if n := a.RTT().N(); n != 1 {
		t.Fatalf("RTT histogram holds %d samples, want 1", n)
	}
	// Both sides used the protocol's response vocabulary, and each
	// direction of each frame is charged exactly once.
	for _, c := range []struct {
		n    *Net
		name string
		want uint64
	}{
		{a, "kad:find_node", 1}, {a, "kad:find_node_bytes", 3},
		{b, "kad:find_node_rx", 1}, {b, "kad:find_node_rx_bytes", 3},
		{b, "kad:nodes", 1}, {b, "kad:nodes_bytes", 9},
		{a, "kad:nodes_rx", 1}, {a, "kad:nodes_rx_bytes", 9},
	} {
		if got := c.n.Counters().Value(c.name); got != c.want {
			t.Errorf("host %d counter %s = %d, want %d", c.n.Self(), c.name, got, c.want)
		}
	}
}

// TestNetRTTResolvesLoopback: the RTT histogram's buckets reach below a
// millisecond, so a loopback median is a measurement rather than the
// midpoint of a 0–1 ms bucket (0.5 ms against a ~0.05 ms round trip).
func TestNetRTTResolvesLoopback(t *testing.T) {
	a, b := pair(t)
	b.Handle("echo", func(_ underlay.HostID, payload []byte) []byte { return payload })
	const calls = 200
	outer := make([]float64, calls) // each call timed from outside: ≥ the RTT it recorded
	for i := range outer {
		start := time.Now()
		if _, err := a.Call(b.Self(), "echo", []byte("x")); err != nil {
			t.Fatal(err)
		}
		outer[i] = float64(time.Since(start)) / float64(time.Millisecond)
	}
	sort.Float64s(outer)
	h := a.RTT()
	p50, median := h.Quantile(0.5), outer[calls/2]
	if h.N() != calls || p50 < h.Min() || p50 > h.Max() || p50 >= 1 {
		t.Fatalf("after %d loopback calls: min %.4f p50 %.4f max %.4f ms, want min ≤ p50 ≤ max and p50 < 1",
			h.N(), h.Min(), p50, h.Max())
	}
	// Buckets double, so p50 is within a factor of two of the true median
	// RTT, which the outer median bounds from above.
	if p50 > 2*median {
		t.Fatalf("p50 %.4f ms, but the median call took %.4f ms measured from outside", p50, median)
	}
}

// TestNetCloseWaitsForDataHandler: Close must not return while a data
// handler is still running — a relay would otherwise write to the closed
// socket after its owner believes the Net is gone.
func TestNetCloseWaitsForDataHandler(t *testing.T) {
	a, b := pair(t)
	entered, release := make(chan struct{}), make(chan struct{})
	var finished atomic.Bool
	b.HandleData("gossip", func(underlay.HostID, string, []byte) {
		close(entered)
		<-release
		finished.Store(true)
	})
	a.SendPayload(b.Self(), "gossip", []byte("x"), 0)
	<-entered
	closed := make(chan struct{})
	go func() { b.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while a data handler was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-closed
	if !finished.Load() {
		t.Fatal("Close returned before the data handler finished")
	}
}

// TestNetHandlerPanicIsLogged: a panicking handler of either kind costs
// one frame and a log line, not the process.
func TestNetHandlerPanicIsLogged(t *testing.T) {
	var logged atomic.Int32
	b, err := Listen(Config{Self: 1, Timeout: 250 * time.Millisecond, Logf: func(format string, args ...any) {
		if strings.Contains(fmt.Sprintf(format, args...), "panicked") {
			logged.Add(1)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a := listen(t, 0)
	a.Book().Set(b.Self(), b.LocalAddr())
	b.HandleData("gossip", func(underlay.HostID, string, []byte) { panic("data boom") })
	b.Handle("probe", func(underlay.HostID, []byte) []byte { panic("req boom") })
	b.Handle("hello", func(_ underlay.HostID, p []byte) []byte { return p })

	a.SendPayload(b.Self(), "gossip", []byte("x"), 0)
	if _, err := a.Call(b.Self(), "probe", nil); err == nil {
		t.Fatal("a panicking request handler still produced a reply")
	}
	await(t, "both panics logged", func() bool { return logged.Load() == 2 })
	// The daemon survived both: the receive loop still serves.
	if _, err := a.Call(b.Self(), "hello", []byte("hi")); err != nil {
		t.Fatalf("Net dead after handler panics: %v", err)
	}
}

// TestNetConcurrentRoundTrips hammers one socket pair from many
// goroutines in both directions — the -race exercise for the receive
// loop, waiter table, counters, and histograms.
func TestNetConcurrentRoundTrips(t *testing.T) {
	a, b := pair(t)
	echo := func(_ underlay.HostID, p []byte) []byte { return p }
	a.Handle("probe", echo)
	b.Handle("probe", echo)
	const workers, per = 8, 25
	var wg sync.WaitGroup
	var nFailed atomic.Int32
	for w := 0; w < workers; w++ {
		wg.Add(1)
		src, dst := a, b
		if w%2 == 1 {
			src, dst = b, a
		}
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := src.Call(dst.Self(), "probe", make([]byte, 32)); err != nil {
					nFailed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	failed := int(nFailed.Load())
	// Loopback UDP can in principle drop under pressure; tolerate a few.
	if failed > workers*per/20 {
		t.Fatalf("%d/%d loopback round trips failed", failed, workers*per)
	}
	if n := a.RTT().N() + b.RTT().N(); n < uint64(workers*per-failed) {
		t.Fatalf("histograms hold %d RTT samples, want ≥ %d", n, workers*per-failed)
	}
}

func TestPacerRunsKernelOnWallClock(t *testing.T) {
	k := sim.NewKernel()
	p := NewPacer(k)
	var mu sync.Mutex
	ticks := 0
	// Schedule before Start: the kernel is still ours.
	var tick func()
	tick = func() { // every 10 sim-ms = 10 wall-ms
		mu.Lock()
		ticks++
		mu.Unlock()
		k.Schedule(10, tick)
	}
	k.Schedule(10, tick)
	p.Start()
	defer p.Stop()
	await(t, "pacer ticks", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return ticks >= 5
	})
	// Do funnels onto the pacer goroutine and observes kernel time.
	var now sim.Time
	p.Do(func() { now = k.Now() })
	if now < 50 {
		t.Fatalf("kernel advanced only to %v after ≥5 ticks of 10ms", now)
	}
	if wall := p.Now(); float64(now) > float64(wall)+1 {
		t.Fatalf("kernel time %v ran ahead of wall time %v", now, wall)
	}
}

func TestPacerDaemonEventsFire(t *testing.T) {
	// The resilience detector schedules with AtDaemon; a wall-clock run
	// must fire those even though a Drain would park them.
	k := sim.NewKernel()
	p := NewPacer(k)
	fired := make(chan struct{})
	var tick func()
	tick = func() {
		select {
		case fired <- struct{}{}:
		default:
		}
		k.AtDaemon(k.Now()+5, tick)
	}
	k.AtDaemon(5, tick)
	p.Start()
	defer p.Stop()
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("daemon event never fired under the pacer")
	}
}
