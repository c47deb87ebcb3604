package nettransport

import (
	"fmt"
	"net"
	"net/netip"
	"runtime"
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
	// Each Net had workers/2 callers at most: its call slab grew to that
	// and no further.
	for _, n := range []*Net{a, b} {
		n.slotMu.Lock()
		slots, free := len(n.slots), len(n.free)
		n.slotMu.Unlock()
		if slots > workers/2 || free != slots {
			t.Errorf("host %d: %d call slots (%d idle) after %d concurrent callers", n.Self(), slots, free, workers/2)
		}
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

// TestPacerWakeAllocs: a pacer wake-up allocates nothing, so what a live
// node allocates does not depend on how long it runs. A 1 ms daemon tick
// wakes the pacer about 200 times; the count is process-wide.
func TestPacerWakeAllocs(t *testing.T) {
	k := sim.NewKernel()
	p := NewPacer(k)
	var ticks atomic.Int64
	var tick func()
	tick = func() {
		ticks.Add(1)
		k.AtDaemon(k.Now()+1, tick)
	}
	k.AtDaemon(1, tick)
	p.Start()
	defer p.Stop()
	await(t, "pacer ticks", func() bool { return ticks.Load() >= 10 })
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n0 := ticks.Load()
	time.Sleep(200 * time.Millisecond)
	runtime.ReadMemStats(&m1)
	n := ticks.Load() - n0
	if mallocs := m1.Mallocs - m0.Mallocs; n < 20 || mallocs > uint64(n)/10 {
		t.Fatalf("%d allocations over %d pacer ticks, want under one a tick in ten", mallocs, n)
	}
}

// rawPeer is a bare UDP socket that speaks the wire format by hand, for
// tests that need a peer to misbehave.
type rawPeer struct {
	t    *testing.T
	conn *net.UDPConn
}

func newRawPeer(t *testing.T) *rawPeer {
	t.Helper()
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("environment forbids UDP sockets: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return &rawPeer{t: t, conn: c}
}

func (r *rawPeer) addr() netip.AddrPort { return r.conn.LocalAddr().(*net.UDPAddr).AddrPort() }

// read returns the next frame the peer receives, with its source.
func (r *rawPeer) read() (Frame, netip.AddrPort) {
	r.t.Helper()
	buf := make([]byte, 65536)
	r.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, from, err := r.conn.ReadFromUDPAddrPort(buf)
	if err != nil {
		r.t.Fatalf("raw peer read: %v", err)
	}
	f, err := DecodeFrame(buf[:n])
	if err != nil {
		r.t.Fatalf("raw peer got a malformed frame: %v", err)
	}
	return f, from
}

func (r *rawPeer) send(f Frame, to netip.AddrPort) {
	r.t.Helper()
	b, err := AppendFrame(nil, &f)
	if err != nil {
		r.t.Fatal(err)
	}
	if _, err := r.conn.WriteToUDPAddrPort(b, to); err != nil {
		r.t.Fatalf("raw peer write: %v", err)
	}
}

// TestNetDropsStaleResponses: a response is accepted once, for the call
// its request id names, and only from the host that call went to. A
// replay of an answered response, a forged slot index, and a response
// with the right id from the wrong host are each dropped and counted
// under net_rx_stale — none reaches the next call through the same
// slot, which gets its own answer.
func TestNetDropsStaleResponses(t *testing.T) {
	a := listen(t, 0)
	peer := newRawPeer(t)
	const peerID = 5
	a.Book().Set(peerID, peer.addr())
	answer := func(req Frame, from underlay.HostID, body string) Frame {
		return Frame{Kind: KindResp, Type: responseType(req.Type), From: from, To: 0, ReqID: req.ReqID, Payload: []byte(body)}
	}

	type result struct {
		resp []byte
		err  error
	}
	call := func() chan result {
		done := make(chan result, 1)
		go func() {
			resp, err := a.Call(peerID, "probe", []byte("q"))
			done <- result{resp, err}
		}()
		return done
	}

	first := call()
	req1, from := peer.read()
	old := answer(req1, peerID, "first")
	peer.send(old, from)
	if r := <-first; r.err != nil || string(r.resp) != "first" {
		t.Fatalf("first call: %q, %v", r.resp, r.err)
	}
	peer.send(old, from) // a replay of the answered response
	await(t, "the replay counted", func() bool { return a.Counters().Value("net_rx_stale") == 1 })

	second := call()
	req2, from := peer.read()
	if uint32(req2.ReqID) != uint32(req1.ReqID) || req2.ReqID == req1.ReqID {
		t.Fatalf("request ids %#x then %#x: the second call should reuse the slot under a new generation", req1.ReqID, req2.ReqID)
	}
	peer.send(old, from)                                  // the first call's response, replayed again
	peer.send(answer(req2, peerID+1, "wrong host"), from) // right id, wrong sender
	forged := answer(req2, peerID, "forged slot")
	forged.ReqID = req2.ReqID + 1 // a slot that does not exist
	peer.send(forged, from)
	await(t, "three stale responses counted", func() bool { return a.Counters().Value("net_rx_stale") == 4 })
	peer.send(answer(req2, peerID, "second"), from)
	if r := <-second; r.err != nil || string(r.resp) != "second" {
		t.Fatalf("second call got %q, %v, want its own response", r.resp, r.err)
	}
}

// TestNetLateResponseSkipsNextCall: a handler that sleeps past the
// caller's deadline answers after the call has timed out. The next call
// reuses the slot; the late answer must be dropped as stale, not taken
// as the next call's response.
func TestNetLateResponseSkipsNextCall(t *testing.T) {
	a, b := pair(t)
	b.Handle("probe", func(_ underlay.HostID, p []byte) []byte {
		if string(p) == "slow" {
			time.Sleep(350 * time.Millisecond) // a's Timeout is 250 ms
		}
		return p
	})
	if _, err := a.Call(b.Self(), "probe", []byte("slow")); err == nil {
		t.Fatal("a call outliving its deadline succeeded")
	}
	resp, err := a.Call(b.Self(), "probe", []byte("fast"))
	if err != nil || string(resp) != "fast" {
		t.Fatalf("the call after a timeout got %q, %v, want \"fast\"", resp, err)
	}
	if n := a.Counters().Value("net_rx_stale"); n != 1 {
		t.Fatalf("net_rx_stale = %d, want 1 (the late answer)", n)
	}
	if n := a.Counters().Value("net_timeout"); n != 1 {
		t.Fatalf("net_timeout = %d, want 1", n)
	}
}

// TestNetStaleTimerTick: slots reuse their timer, and under the pre-Go
// 1.23 timer rules a tick of an earlier arming can still wait in its
// channel when the next call starts. Such a tick must not end that call:
// a call into a black hole still waits its full deadline, and a call
// that is answered succeeds without a timeout.
func TestNetStaleTimerTick(t *testing.T) {
	a, b := pair(t)
	b.Handle("probe", func(_ underlay.HostID, p []byte) []byte { return p })
	if _, err := a.Call(b.Self(), "probe", nil); err != nil {
		t.Fatal(err)
	}
	staleTick := func() {
		t.Helper()
		a.slotMu.Lock()
		s := a.slots[0]
		a.slotMu.Unlock()
		s.timer.Reset(time.Microsecond)
		await(t, "the tick to fire", func() bool { return len(s.timer.C) == 1 })
	}

	staleTick()
	if resp, err := a.Call(b.Self(), "probe", []byte("x")); err != nil || string(resp) != "x" {
		t.Fatalf("answered call with a stale tick pending: %q, %v", resp, err)
	}
	if n := a.Counters().Value("net_timeout"); n != 0 {
		t.Fatalf("net_timeout = %d after an answered call", n)
	}

	staleTick()
	b.SetDropRx(func(*Frame) bool { return true })
	start := time.Now()
	if _, err := a.Call(b.Self(), "probe", nil); err == nil {
		t.Fatal("a call into a black hole succeeded")
	}
	if elapsed := time.Since(start); elapsed < 250*time.Millisecond {
		t.Fatalf("a stale tick ended the call after %v, before its 250ms deadline", elapsed)
	}
}

// TestNetFloodKeepsGoroutinesBounded sends 10 000 requests of a served
// type from a raw socket as fast as it can write them. Handlers run on
// the receive goroutine, so the process's goroutine count stays put
// throughout, and afterwards a well-behaved peer's call still succeeds.
func TestNetFloodKeepsGoroutinesBounded(t *testing.T) {
	a, b := pair(t)
	b.Handle("probe", func(_ underlay.HostID, p []byte) []byte { return p })
	peer := newRawPeer(t)
	base := runtime.NumGoroutine()
	req := Frame{Kind: KindReq, Type: "probe", From: 9, To: b.Self(), ReqID: 1, Payload: make([]byte, 32)}
	peak := base
	for i := 0; i < 10_000; i++ {
		peer.send(req, b.LocalAddr())
		if i%100 == 0 {
			peak = max(peak, runtime.NumGoroutine())
		}
	}
	// A datagram socket delivers in order, so once a marker sent after
	// the flood is handled, the flood before it has been read. The kernel
	// may drop datagrams of a full buffer, the marker too: resend it.
	var marked atomic.Bool
	b.HandleData("marker", func(underlay.HostID, string, []byte) { marked.Store(true) })
	await(t, "the flood to be drained", func() bool {
		peak = max(peak, runtime.NumGoroutine())
		peer.send(Frame{Kind: KindData, Type: "marker", From: 9}, b.LocalAddr())
		return marked.Load()
	})
	if peak > base+2 {
		t.Fatalf("goroutines peaked at %d during the flood, %d before", peak, base)
	}
	if resp, err := a.Call(b.Self(), "probe", []byte("still here")); err != nil || string(resp) != "still here" {
		t.Fatalf("call after the flood: %q, %v", resp, err)
	}
}

// TestNetRepliesToSender: a reply goes to the request's source address,
// whichever member its From names. A raw peer sends probe and fd_ping
// requests naming first the receiver b itself, then the third member a:
// every answer reaches the raw socket, and neither a nor b is sent a
// response. A peer b has evicted is still answered, at its own socket.
func TestNetRepliesToSender(t *testing.T) {
	a, b := pair(t)
	echo := func(_ underlay.HostID, p []byte) []byte { return p }
	b.Handle("probe", echo)
	b.Handle("fd_ping", echo)
	peer := newRawPeer(t)
	reqID := uint64(0)
	for _, from := range []underlay.HostID{b.Self(), a.Self()} {
		for _, typ := range []string{"probe", "fd_ping"} {
			reqID++
			peer.send(Frame{Kind: KindReq, Type: typ, From: from, To: b.Self(), ReqID: reqID, Payload: []byte(typ)}, b.LocalAddr())
			resp, src := peer.read()
			if resp.Kind != KindResp || resp.Type != responseType(typ) || resp.ReqID != reqID ||
				string(resp.Payload) != typ || src != b.LocalAddr() {
				t.Fatalf("%s request naming host %d: raw peer got %+v from %v", typ, from, resp, src)
			}
		}
	}
	// b serves frames in arrival order, so once a's own call is answered
	// every response to the forged requests has been sent and received.
	if resp, err := a.Call(b.Self(), "probe", []byte("a")); err != nil || string(resp) != "a" {
		t.Fatalf("a's call: %q, %v", resp, err)
	}
	for _, n := range []*Net{a, b} {
		if stale := n.Counters().Value("net_rx_stale"); stale != 0 {
			t.Fatalf("host %d received %d responses it never asked for", n.Self(), stale)
		}
	}

	b.Book().Remove(a.Self())
	if resp, err := a.Call(b.Self(), "fd_ping", []byte("evicted")); err != nil || string(resp) != "evicted" {
		t.Fatalf("evicted peer's call: %q, %v", resp, err)
	}
	if _, ok := b.Book().Get(a.Self()); ok {
		t.Fatal("the evicted peer's request put it back in the book")
	}
}
