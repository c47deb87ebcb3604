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
type Handler func(from underlay.HostID, payload []byte) []byte

// DataHandler observes one-way KindData frames (no response).
//
// Both handler kinds run on their own goroutine per frame, so they may
// send or issue nested calls through the same Net (the Gnutella flood
// relays queries this way); Close waits for them, and a panicking
// handler is logged, not fatal.
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
// per seed. The address book is the only source of reachability. A frame
// nobody registered a handler for is dropped and counted, never answered:
// the socket sends nothing a local handler did not produce.
type Net struct {
	cfg   Config
	conn  *net.UDPConn
	local netip.AddrPort
	book  *AddressBook

	msgs *metrics.CounterSet
	rtt  *metrics.Histogram
	// The net_* transport internals, resolved once.
	txErr, timeouts, rxBad, rxDrop, rxUnhandled *metrics.Counter

	acctMu sync.RWMutex
	acct   map[string]*frameCounters

	reqID   atomic.Uint64
	waitMu  sync.Mutex
	waiters map[uint64]chan Frame

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
		acct:        make(map[string]*frameCounters),
		waiters:     make(map[uint64]chan Frame),
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

// Close shuts the socket down and waits for the receive loop and every
// in-flight handler to exit. A call still waiting for its response times
// out; one issued afterwards fails on the closed socket.
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
// net_rx_unhandled).
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
// A successful call's wall RTT lands in the RTT histogram.
func (n *Net) Call(to underlay.HostID, msgType string, payload []byte) ([]byte, error) {
	return n.call(to, netip.AddrPort{}, msgType, payload)
}

// CallAt is Call aimed at an explicit UDP address instead of a book
// entry — how a joining node reaches its bootstrap before learning its
// id (the response frame's From field, which the receive loop also
// learns into the book automatically).
func (n *Net) CallAt(addr netip.AddrPort, msgType string, payload []byte) ([]byte, error) {
	return n.call(-1, unmap(addr), msgType, payload) // To = -1: id unknown
}

// call performs one request/response exchange. addr, when valid,
// overrides the book lookup.
func (n *Net) call(to underlay.HostID, addr netip.AddrPort, msgType string, payload []byte) ([]byte, error) {
	id := n.reqID.Add(1)
	ch := make(chan Frame, 1)
	n.waitMu.Lock()
	n.waiters[id] = ch
	n.waitMu.Unlock()
	defer func() {
		n.waitMu.Lock()
		delete(n.waiters, id)
		n.waitMu.Unlock()
	}()

	n.account(tx, msgType, uint64(len(payload)))
	f := Frame{Kind: KindReq, Type: msgType, From: n.cfg.Self, To: to, ReqID: id, Payload: payload}
	start := time.Now()
	if err := n.writeFrame(&f, addr); err != nil {
		return nil, err
	}
	timer := time.NewTimer(n.cfg.Timeout)
	defer timer.Stop()
	select {
	case resp := <-ch:
		n.rtt.Observe(float64(time.Since(start)) / float64(time.Millisecond))
		n.account(rx, resp.Type, uint64(len(resp.Payload)))
		return resp.Payload, nil
	case <-timer.C:
		n.timeouts.Inc()
		return nil, errTimeout
	}
}

// receiveLoop drains the socket until Close.
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
		f, err := DecodeFrame(buf[:nr])
		if err != nil {
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
		if f.From >= 0 && f.From != n.cfg.Self {
			n.book.Set(f.From, raddr)
		}
		if f.Kind == KindResp {
			n.waitMu.Lock()
			ch := n.waiters[f.ReqID]
			n.waitMu.Unlock()
			if ch != nil {
				select {
				case ch <- f:
				default: // duplicate response; first one won
				}
			}
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
		n.wg.Add(1)
		go n.serve(f, h, onData)
	}
}

// serve runs the handler for one request or data frame. It is detached
// from the receive loop so handlers can issue nested calls (flood relays)
// without stalling it, tracked by n.wg so Close waits for it, and guarded
// so a panicking handler costs one frame, not the daemon.
func (n *Net) serve(f Frame, h Handler, onData DataHandler) {
	defer n.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			n.logf("nettransport: handler %s panicked: %v", f.Type, r)
		}
	}()
	if f.Kind == KindReq {
		n.reply(&f, h(f.From, f.Payload))
	} else {
		onData(f.From, f.Type, f.Payload)
	}
}

// reply answers a KindReq frame with its handler's payload, under the
// request type's response name (fd_ping→fd_ack, …) so counters on both
// sides line up with the sim backend's naming.
func (n *Net) reply(req *Frame, payload []byte) {
	respType := responseType(req.Type)
	n.account(tx, respType, uint64(len(payload)))
	f := Frame{Kind: KindResp, Type: respType, From: n.cfg.Self, To: req.From,
		ReqID: req.ReqID, Payload: payload}
	n.writeFrame(&f, netip.AddrPort{}) // a failed write is counted; the requester times out
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
