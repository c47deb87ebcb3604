package nettransport

import (
	"errors"
	"fmt"
	"math"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"unap2p/internal/metrics"
	"unap2p/internal/underlay"
)

// Config tunes a Net.
type Config struct {
	// Self is this process's cluster-wide host id. Every process in a
	// cluster must use a distinct id; the id is the address-book key and
	// travels in every frame.
	Self underlay.HostID
	// Listen is the UDP listen address ("127.0.0.1:0" binds an ephemeral
	// port; LocalAddr reports the result).
	Listen string
	// Timeout is the per-call response deadline. Zero means 500 ms.
	Timeout time.Duration
	// Logf, when non-nil, receives diagnostic lines (malformed frames,
	// handler panics).
	Logf func(format string, args ...any)
}

// Handler serves one request type: it receives the requester's id and
// payload and returns the response payload.
//
// Handlers of both kinds run on the Net's receive goroutine, one frame
// at a time, so the number of goroutines stays fixed however fast frames
// arrive. payload points into the receive buffer and is valid only for
// the duration of the call: a handler that keeps bytes copies them. The
// returned reply is encoded and sent before the next frame is read, so a
// handler may return a buffer it reuses on every call. The reply goes to
// the request datagram's source address, not to the book entry of its
// claimed From: a forged From cannot aim a reply at another host, and a
// peer the book refuses (evicted) is still answered. A handler may send
// (SendPayload; the Gnutella flood relays queries this way), but a Call
// from inside a handler stalls its own node until it times out: the
// response would have to be read by the goroutine that is waiting for it.
// A panicking handler is logged, not fatal.
type Handler func(from underlay.HostID, payload []byte) []byte

// DataHandler observes one-way KindData frames (no response). It runs
// under Handler's rules.
type DataHandler func(from underlay.HostID, msgType string, payload []byte)

// Net is the real-socket plane: a payload RPC (Handle/Call, one-way
// HandleData/SendPayload) over UDP datagrams between actual processes,
// with per-type frame accounting. It deliberately shares no send API with
// the simulator's Transport — there is no underlay to query and no kernel
// to schedule on — only the metrics planes:
// the same CounterSet and latency Histogram types feed /metrics on a live
// node, which is what keeps it comparable with a recorded simulation.
//
// Time is wall-clock, loss is real loss, and runs are not reproducible
// per seed. The address book is the only source of reachability for what
// a node sends on its own; a reply goes back where its request came from.
// A frame nobody registered a handler for is dropped and counted, never
// answered: the socket sends nothing a local handler did not produce.
type Net struct {
	cfg   Config
	conn  *net.UDPConn
	local netip.AddrPort
	book  *AddressBook

	msgs *metrics.CounterSet
	rtt  *metrics.Histogram
	// The net_* transport internals, resolved once.
	txErr, timeouts, rxBad, rxDrop, rxUnhandled, rxStale *metrics.Counter

	acctMu sync.RWMutex
	acct   map[string]*frameCounters

	// slotMu guards the call slab: slots grows to the peak number of
	// concurrent calls, free holds the indices of the idle ones, and each
	// slot's gen, waiting and to fields.
	slotMu sync.Mutex
	slots  []*callSlot
	free   []uint32

	handMu   sync.RWMutex
	handlers map[string]Handler
	onData   map[string]DataHandler

	// dropRx, when set, discards matching inbound frames before any
	// processing — the test hook for forcing timeouts without real packet
	// loss. See SetDropRx.
	dropRx atomic.Pointer[func(f *Frame) bool]

	closed atomic.Bool
	wg     sync.WaitGroup
}

// Listen binds the UDP socket and starts the receive loop.
func Listen(cfg Config) (*Net, error) {
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 500 * time.Millisecond
	}
	pc, err := net.ListenPacket("udp", cfg.Listen)
	if err != nil {
		return nil, err
	}
	conn := pc.(*net.UDPConn)
	msgs := metrics.NewCounterSet()
	n := &Net{
		cfg:         cfg,
		conn:        conn,
		local:       unmap(conn.LocalAddr().(*net.UDPAddr).AddrPort()),
		book:        NewAddressBook(),
		msgs:        msgs,
		rtt:         metrics.NewHistogram(rttBounds()),
		txErr:       msgs.Get("net_tx_err"),
		timeouts:    msgs.Get("net_timeout"),
		rxBad:       msgs.Get("net_rx_bad"),
		rxDrop:      msgs.Get("net_rx_drop"),
		rxUnhandled: msgs.Get("net_rx_unhandled"),
		rxStale:     msgs.Get("net_rx_stale"),
		acct:        make(map[string]*frameCounters),
		handlers:    make(map[string]Handler),
		onData:      make(map[string]DataHandler),
	}
	n.wg.Add(1)
	go n.receiveLoop()
	return n, nil
}

// rttBounds is the RTT histogram's layout: powers of two from 2⁻⁷ ms
// (~8 µs) to 2¹⁴ ms (~16 s). The simulator's latency layout starts at
// 1 ms, which puts every loopback round trip in its first bucket.
func rttBounds() []float64 {
	bounds := make([]float64, 22)
	for i := range bounds {
		bounds[i] = math.Ldexp(1, i-7)
	}
	return bounds
}

// LocalAddr returns the bound UDP address (with the resolved port).
func (n *Net) LocalAddr() netip.AddrPort { return n.local }

// Self returns this process's host id.
func (n *Net) Self() underlay.HostID { return n.cfg.Self }

// Book exposes the peer address book.
func (n *Net) Book() *AddressBook { return n.book }

// RTT exposes the round-trip latency histogram (milliseconds).
func (n *Net) RTT() *metrics.Histogram { return n.rtt }

// Handle registers fn for a request type. Registering twice replaces.
func (n *Net) Handle(msgType string, fn Handler) {
	n.handMu.Lock()
	n.handlers[msgType] = fn
	n.handMu.Unlock()
}

// HandleData registers the observer for one-way frames of the given
// type. Registering twice replaces.
func (n *Net) HandleData(msgType string, fn DataHandler) {
	n.handMu.Lock()
	n.onData[msgType] = fn
	n.handMu.Unlock()
}

// SetDropRx installs (or, with nil, removes) an inbound drop filter:
// frames for which fn returns true are discarded before processing and
// counted under net_rx_drop. This is the loss-injection hook the timeout
// and chaos tests use in place of real packet loss.
func (n *Net) SetDropRx(fn func(f *Frame) bool) {
	if fn == nil {
		n.dropRx.Store(nil)
		return
	}
	n.dropRx.Store(&fn)
}

// Close shuts the socket down and waits for the receive loop, and with it
// the handler it may be running, to exit. A call still waiting for its
// response times out; one issued afterwards fails on the closed socket.
func (n *Net) Close() error {
	if n.closed.Swap(true) {
		return nil
	}
	err := n.conn.Close()
	n.wg.Wait()
	return err
}

// Counters exposes the per-message-type counters: "<type>" counts frames
// sent, "<type>_bytes" their accounted payload bytes, "<type>_rx" and
// "<type>_rx_bytes" the same for frames received, plus the net_*
// transport internals (net_timeout, net_tx_err, net_rx_bad, net_rx_drop,
// net_rx_unhandled, net_rx_stale).
func (n *Net) Counters() *metrics.CounterSet { return n.msgs }

// dir is the direction account charges a frame to.
type dir int

const (
	tx dir = iota
	rx
)

// frameCounters are one message type's counter handles, per direction.
type frameCounters [2]struct{ frames, bytes *metrics.Counter }

// account charges one frame of msgType to the counter plane. A type's
// four handles are created on its first frame in either direction, so the
// per-frame path builds no counter names.
func (n *Net) account(d dir, msgType string, bytes uint64) {
	n.acctMu.RLock()
	fc := n.acct[msgType]
	n.acctMu.RUnlock()
	if fc == nil {
		n.acctMu.Lock()
		if fc = n.acct[msgType]; fc == nil {
			fc = &frameCounters{}
			fc[tx].frames, fc[tx].bytes = n.msgs.Get(msgType), n.msgs.Get(msgType+"_bytes")
			fc[rx].frames, fc[rx].bytes = n.msgs.Get(msgType+"_rx"), n.msgs.Get(msgType+"_rx_bytes")
			n.acct[msgType] = fc
		}
		n.acctMu.Unlock()
	}
	fc[d].frames.Inc()
	fc[d].bytes.Add(bytes)
}

// writeFrame encodes and transmits one frame to addr, or when addr is the
// zero AddrPort to the book address of the frame's To field. A failure is
// counted under net_tx_err. The frame is encoded into a buffer on this
// call's stack; one too large for it (a big cluster's hello book) spills
// to the heap through append.
func (n *Net) writeFrame(f *Frame, addr netip.AddrPort) (err error) {
	defer func() {
		if err != nil {
			n.txErr.Inc()
		}
	}()
	if !addr.IsValid() {
		var ok bool
		if addr, ok = n.book.Get(f.To); !ok {
			return fmt.Errorf("nettransport: no address for host %d", f.To)
		}
	}
	var stack [512]byte
	buf, err := AppendFrame(stack[:0], f)
	if err != nil {
		return err
	}
	_, err = n.conn.WriteToUDPAddrPort(buf, addr)
	return err
}

// SendPayload sends one one-way KindData frame, accounted at accountBytes
// if non-zero, else at len(payload). The frame counts as sent once it
// leaves the socket; delivery is unconfirmed (use Call for confirmation),
// so the result reports only that a destination address existed and the
// write succeeded.
func (n *Net) SendPayload(to underlay.HostID, msgType string, payload []byte, accountBytes uint64) bool {
	if accountBytes == 0 {
		accountBytes = uint64(len(payload))
	}
	n.account(tx, msgType, accountBytes)
	f := Frame{Kind: KindData, Type: msgType, From: n.cfg.Self, To: to, Payload: payload}
	return n.writeFrame(&f, netip.AddrPort{}) == nil
}

// errTimeout marks a call that got no response within the deadline.
var errTimeout = errors.New("nettransport: call timed out")

// Call is the payload RPC the live overlay engines build on: request
// payload out, response payload back, single attempt, default timeout.
// A successful call's wall RTT lands in the RTT histogram. The returned
// slice is the caller's.
func (n *Net) Call(to underlay.HostID, msgType string, payload []byte) ([]byte, error) {
	return n.call(nil, to, netip.AddrPort{}, msgType, payload)
}

// CallAppend is Call appending the response payload onto dst, so a
// caller that reuses dst makes a round trip without allocating.
func (n *Net) CallAppend(dst []byte, to underlay.HostID, msgType string, payload []byte) ([]byte, error) {
	return n.call(dst, to, netip.AddrPort{}, msgType, payload)
}

// CallAt is Call aimed at an explicit UDP address instead of a book
// entry — how a joining node reaches its bootstrap before learning its
// id (the response frame's From field, which the receive loop also
// learns into the book automatically).
func (n *Net) CallAt(addr netip.AddrPort, msgType string, payload []byte) ([]byte, error) {
	return n.call(nil, -1, unmap(addr), msgType, payload) // To = -1: id unknown
}

// callSlot is one entry of a Net's call slab: the waiter of one
// outstanding call at a time. Its request id is gen<<32 | index+1, so a
// response for an earlier call through the same slot — late, replayed or
// forged — names a generation that no longer matches. The receive loop
// copies a matching response into resp, clears waiting and signals wake
// (buffer 1, one signal per generation) with slotMu held; the caller
// reads resp once it has taken that signal.
type callSlot struct {
	gen     uint32
	waiting bool
	to      underlay.HostID // the only host that may answer; -1 for CallAt
	wake    chan struct{}
	resp    []byte
	// timer bounds the wait. It is reused call after call, and under the
	// pre-Go 1.23 timer rules that go.mod's go line selects, a tick of an
	// earlier arming can still sit in timer.C after Reset; the waiter
	// therefore trusts only its own deadline, never a tick alone.
	timer *time.Timer
}

// acquire takes an idle slot, or grows the slab by one, for a call to to,
// and returns it with its index and the request id of this use.
func (n *Net) acquire(to underlay.HostID) (s *callSlot, idx uint32, id uint64) {
	n.slotMu.Lock()
	defer n.slotMu.Unlock()
	if k := len(n.free); k > 0 {
		idx = n.free[k-1]
		n.free = n.free[:k-1]
		s = n.slots[idx]
	} else {
		idx = uint32(len(n.slots))
		t := time.NewTimer(time.Hour)
		t.Stop()
		s = &callSlot{wake: make(chan struct{}, 1), timer: t}
		n.slots = append(n.slots, s)
	}
	s.gen++
	s.waiting, s.to = true, to
	return s, idx, uint64(s.gen)<<32 | uint64(idx+1)
}

// release returns a slot to the free list. A response that reached it
// after its call gave up without waiting for one (a failed write) is
// discarded with the slot's generation.
func (n *Net) release(s *callSlot, idx uint32) {
	n.slotMu.Lock()
	s.waiting = false
	select {
	case <-s.wake:
	default:
	}
	n.free = append(n.free, idx)
	n.slotMu.Unlock()
}

// call performs one request/response exchange, appending the response
// payload onto dst. addr, when valid, overrides the book lookup.
func (n *Net) call(dst []byte, to underlay.HostID, addr netip.AddrPort, msgType string, payload []byte) ([]byte, error) {
	s, idx, id := n.acquire(to)
	defer n.release(s, idx)

	n.account(tx, msgType, uint64(len(payload)))
	f := Frame{Kind: KindReq, Type: msgType, From: n.cfg.Self, To: to, ReqID: id, Payload: payload}
	start := time.Now()
	if err := n.writeFrame(&f, addr); err != nil {
		return dst, err
	}
	deadline := start.Add(n.cfg.Timeout)
	s.timer.Reset(n.cfg.Timeout)
	defer s.timer.Stop()
	for {
		select {
		case <-s.wake:
			return n.answered(dst, s, start), nil
		case <-s.timer.C:
		}
		if left := time.Until(deadline); left > 0 {
			s.timer.Reset(left) // a stale tick from an earlier call
			continue
		}
		n.slotMu.Lock()
		delivered := !s.waiting // the response won the race with the deadline
		s.waiting = false
		n.slotMu.Unlock()
		if delivered {
			<-s.wake
			return n.answered(dst, s, start), nil
		}
		n.timeouts.Inc()
		return dst, errTimeout
	}
}

// answered records a delivered response's RTT and appends it onto dst.
func (n *Net) answered(dst []byte, s *callSlot, start time.Time) []byte {
	n.rtt.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	return append(dst, s.resp...)
}

// deliver hands a response frame to the call waiting for it. A response
// is accepted once, for the generation its slot is serving, and from the
// host the request went to when that host is known; anything else —
// late after a timeout, a replay, a forged id or sender — is dropped and
// counted under net_rx_stale.
func (n *Net) deliver(f *Frame) {
	idx, gen := uint32(f.ReqID)-1, uint32(f.ReqID>>32)
	n.slotMu.Lock()
	defer n.slotMu.Unlock()
	if int(idx) >= len(n.slots) {
		n.rxStale.Inc()
		return
	}
	s := n.slots[idx]
	if s.gen != gen || !s.waiting || (s.to >= 0 && f.From != s.to) {
		n.rxStale.Inc()
		return
	}
	n.account(rx, f.Type, uint64(len(f.Payload)))
	s.resp = append(s.resp[:0], f.Payload...)
	s.waiting = false
	s.wake <- struct{}{} // never blocks: one signal per generation, taken before the slot is reused
}

// receiveLoop drains the socket until Close, serving each request and
// data frame on this goroutine.
func (n *Net) receiveLoop() {
	defer n.wg.Done()
	buf := make([]byte, 65536)
	for {
		nr, raddr, err := n.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			if n.closed.Load() {
				return
			}
			n.logf("nettransport: read: %v", err)
			continue
		}
		var f Frame
		if err := decodeFrame(buf[:nr], &f); err != nil {
			n.rxBad.Inc()
			n.logf("nettransport: drop malformed frame from %v: %v", raddr, err)
			continue
		}
		if d := n.dropRx.Load(); d != nil {
			// The filter is caller-supplied code: it gets a copy, or its
			// pointer parameter would move every received f to the heap.
			if g := f; (*d)(&g) {
				n.rxDrop.Inc()
				continue
			}
		}
		// Learn or refresh the sender's address from the packet source —
		// a hello is therefore enough to become reachable cluster-wide.
		// The book refuses an evicted sender, whose request is still
		// answered: replies go to raddr.
		if f.From >= 0 && f.From != n.cfg.Self {
			n.book.Set(f.From, raddr)
		}
		if f.Kind == KindResp {
			n.deliver(&f)
			continue
		}
		n.handMu.RLock()
		h, onData := n.handlers[f.Type], n.onData[f.Type]
		n.handMu.RUnlock()
		if (f.Kind == KindReq && h == nil) || (f.Kind == KindData && onData == nil) {
			// Nobody serves this type: no reply, and no per-type counters
			// either, so a stranger cannot grow the counter set.
			n.rxUnhandled.Inc()
			continue
		}
		n.account(rx, f.Type, uint64(len(f.Payload)))
		n.serve(&f, raddr, h, onData)
	}
}

// serve runs the handler for one request or data frame that arrived from
// raddr, guarded so a panicking handler costs one frame, not the daemon.
func (n *Net) serve(f *Frame, raddr netip.AddrPort, h Handler, onData DataHandler) {
	defer func() {
		if r := recover(); r != nil {
			n.logf("nettransport: handler %s panicked: %v", f.Type, r)
		}
	}()
	if f.Kind == KindReq {
		n.reply(f, raddr, h(f.From, f.Payload))
	} else {
		onData(f.From, f.Type, f.Payload)
	}
}

// reply answers a KindReq frame from raddr with its handler's payload,
// under the request type's response name (fd_ping→fd_ack, …) so counters
// on both sides line up with the sim backend's naming.
func (n *Net) reply(req *Frame, raddr netip.AddrPort, payload []byte) {
	respType := responseType(req.Type)
	n.account(tx, respType, uint64(len(payload)))
	f := Frame{Kind: KindResp, Type: respType, From: n.cfg.Self, To: req.From,
		ReqID: req.ReqID, Payload: payload}
	n.writeFrame(&f, raddr) // a failed write is counted; the requester times out
}

// responseType maps a request type to its reply type.
func responseType(reqType string) string {
	switch reqType {
	case "fd_ping":
		return "fd_ack"
	case "kad:find_node":
		return "kad:nodes"
	case "chord:find_succ":
		return "chord:succ"
	default:
		return reqType
	}
}

func (n *Net) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}
