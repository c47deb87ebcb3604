package livenode

import (
	"fmt"
	"net"
	"sync"
	"time"

	"unap2p/internal/megascale"
	"unap2p/internal/nettransport"
	"unap2p/internal/resilience"
	"unap2p/internal/sim"
	"unap2p/internal/telemetry"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

// Config tunes a Node.
type Config struct {
	// ID is this node's cluster-wide host id (unique per process).
	ID underlay.HostID
	// Overlay names the engine: "kademlia", "chord" or "gnutella".
	Overlay string
	// Listen is the UDP listen address; empty means 127.0.0.1:0.
	Listen string
	// MetricsAddr, when non-empty, serves /metrics and /debug/pprof there
	// (":0" works; Node.MetricsAddr reports the bound address).
	MetricsAddr string
	// Timeout is the per-RPC deadline (default 250 ms).
	Timeout time.Duration
	// PingInterval is the failure-detector probe period in wall time
	// (default 500 ms). Suspect fires after 2 missed acks, evict after 4,
	// exactly as in the simulated detector's default config.
	PingInterval time.Duration
	// SuspectAfter and EvictAfter override the detector's miss streaks
	// (0 keeps resilience.DefaultConfig's 2 and 4). Chaos campaigns
	// raise EvictAfter so a bounded loss burst cannot sustain the streak
	// a real crash does: with a flat ping interval, a burst shorter than
	// EvictAfter×PingInterval can never evict a live peer.
	SuspectAfter, EvictAfter int
	// Logf, when non-nil, receives diagnostic lines.
	Logf func(format string, args ...any)
}

// Node is one live overlay process: a real-socket transport, an overlay
// engine, the resilience failure detector paced against the wall clock,
// and an optional metrics endpoint. cmd/unapnode is a thin flag wrapper
// around this type; the in-process cluster tests boot several Nodes in
// one binary on ephemeral ports.
type Node struct {
	cfg    Config
	net    *nettransport.Net
	core   *Core
	engine Engine
	pacer  *nettransport.Pacer
	det    *resilience.Detector
	reg    *telemetry.Registry
	msrv   *telemetry.Server

	watchCancel func() // cancels the membership-scan tick (pacer side)

	closeOnce sync.Once
	closeErr  error
}

// pinger is the failure-detection seam between the planes: the one verb
// resilience.Detector needs, served by an fd_ping Call that the target's
// registered fd_ping handler echoes back as fd_ack. The retry policy is
// unused — the detector always passes the zero policy and spaces its own
// re-probes — so every ping is one attempt bounded by the Net's timeout.
// The detector reads only OK; the measured RTT is in Net.RTT().
//
// A probe allocates nothing: the payload is a slice of pingPayload,
// which nothing writes, and the ack is appended into ack, which needs no
// lock because detector ticks run on the pacer goroutine only.
type pinger struct {
	net *nettransport.Net
	ack []byte
}

// pingPayload backs every fd_ping payload (the detector's are 32 B).
var pingPayload [64]byte

func (p *pinger) RoundTripWith(_ transport.RetryPolicy, _, to *underlay.Host,
	reqBytes, _ uint64, reqType, _ string) transport.Result {
	var err error
	p.ack, err = p.net.CallAppend(p.ack[:0], to.ID, reqType, pingPayload[:reqBytes])
	return transport.Result{OK: err == nil}
}

// Start boots a node: socket up, engine handlers installed, detector
// pacing, metrics serving. The node knows only itself until Join (or
// until joiners find it — a bootstrap node just Starts and waits).
func Start(cfg Config) (*Node, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 250 * time.Millisecond
	}
	if cfg.PingInterval <= 0 {
		cfg.PingInterval = 500 * time.Millisecond
	}
	// The miss streaks are checked once, with the detector's defaults
	// merged in, and before anything binds a socket.
	if cfg.SuspectAfter < 0 || cfg.EvictAfter < 0 {
		return nil, fmt.Errorf("livenode: negative SuspectAfter (%d) or EvictAfter (%d)",
			cfg.SuspectAfter, cfg.EvictAfter)
	}
	dcfg := resilience.DefaultConfig()
	dcfg.PingInterval = sim.Duration(float64(cfg.PingInterval) / float64(time.Millisecond))
	dcfg.Backoff = resilience.Backoff{} // flat interval; no RNG dependency
	if cfg.SuspectAfter > 0 {
		dcfg.SuspectAfter = cfg.SuspectAfter
	}
	if cfg.EvictAfter > 0 {
		dcfg.EvictAfter = cfg.EvictAfter
	}
	if dcfg.EvictAfter < dcfg.SuspectAfter {
		return nil, fmt.Errorf("livenode: need SuspectAfter (%d) ≤ EvictAfter (%d)",
			dcfg.SuspectAfter, dcfg.EvictAfter)
	}
	tr, err := nettransport.Listen(nettransport.Config{
		Self: cfg.ID, Listen: cfg.Listen, Timeout: cfg.Timeout, Logf: cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	// A node holds its own book entry: Encode therefore advertises self,
	// which is the whole join protocol's source of addresses. Pinned, so
	// that no peer-supplied entry naming this node's id can replace it.
	tr.Book().Pin(cfg.ID, tr.LocalAddr())

	n := &Node{cfg: cfg, net: tr, core: NewCore(tr)}
	n.engine = NewEngine(cfg.Overlay, n.core)
	if n.engine == nil {
		tr.Close()
		return nil, fmt.Errorf("livenode: unknown overlay %q", cfg.Overlay)
	}

	// The join handshake: a hello request carries the joiner's book; the
	// welcome reply carries ours. Merging both ways plus the data-hello
	// announce below gives O(1)-round convergence on small clusters.
	tr.Handle("hello", func(from underlay.HostID, payload []byte) []byte {
		if _, err := tr.Book().Merge(payload); err != nil {
			n.logf("livenode: bad hello book from %d: %v", from, err)
		}
		return tr.Book().Encode()
	})
	tr.HandleData("hello", func(from underlay.HostID, _ string, payload []byte) {
		if _, err := tr.Book().Merge(payload); err != nil {
			n.logf("livenode: bad hello announce from %d: %v", from, err)
		}
	})

	// The failure detector runs unmodified from the simulation: a kernel
	// paced 1:1 against the wall clock (sim ms = wall ms), fd_ping round
	// trips that are now real datagrams with real deadlines.
	tr.Handle("fd_ping", func(_ underlay.HostID, payload []byte) []byte { return payload })
	kernel := sim.NewKernel()
	n.pacer = nettransport.NewPacer(kernel)
	n.det = resilience.New(&pinger{net: tr}, kernel, dcfg)
	n.det.Heal(n.engine)
	n.det.OnRecover = n.core.Recover

	// Runs as a kernel daemon event, i.e. on the pacer goroutine, which is
	// the only place detector calls are legal.
	n.watchCancel = kernel.EveryDaemon(dcfg.PingInterval, membershipScan(cfg.ID, tr.Book(), n.det))
	n.pacer.Start()

	n.reg = telemetry.NewRegistry()
	n.reg.RegisterCounters("net", tr.Counters())
	n.reg.RegisterCounters("resilience", n.det.Counters())
	n.reg.RegisterCounters("overlay", n.core.Msgs)
	n.reg.RegisterHistogram("rtt_ms", tr.RTT())
	n.reg.RegisterGauge("peers", func() float64 { return float64(tr.Book().Len()) })
	if cfg.MetricsAddr != "" {
		srv, err := telemetry.Serve(cfg.MetricsAddr, n.reg.Snapshot)
		if err != nil {
			n.Close()
			return nil, err
		}
		n.msrv = srv
	}
	return n, nil
}

// membershipScan returns the detector's membership scan: each call
// watches every peer in the book from self's vantage. The detector reads
// only ID and Up from its hosts; live peers are Up until evicted, and
// Watch passes over self, peers it already watches and evicted ones. A
// scan over a book that has not changed since the previous one returns
// at once. The closure's state is unguarded: call it from one goroutine
// (the pacer).
func membershipScan(selfID underlay.HostID, book *nettransport.AddressBook, det *resilience.Detector) func() {
	self := &underlay.Host{ID: selfID, Up: true}
	var scanned uint64 // book version the previous scan started from
	return func() {
		v := book.Version()
		if v == scanned {
			return
		}
		scanned = v
		for _, id := range book.IDs() {
			det.Watch(self, &underlay.Host{ID: id, Up: true})
		}
	}
}

// Join dials a bootstrap node by UDP address — operator-supplied, so a
// host name is resolved here, the one place the live plane resolves
// anything — retrying briefly (the bootstrap process may still be binding
// its socket). On return the node holds the bootstrap's full address book
// and has announced itself to every member in it.
func (n *Node) Join(bootstrap string) error {
	addr, err := net.ResolveUDPAddr("udp", bootstrap)
	if err != nil {
		return fmt.Errorf("livenode: bad bootstrap address %q: %v", bootstrap, err)
	}
	var welcome []byte
	deadline := time.Now().Add(10 * time.Second)
	for {
		welcome, err = n.net.CallAt(addr.AddrPort(), "hello", n.net.Book().Encode())
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("livenode: bootstrap %s unreachable: %v", bootstrap, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	if _, err := n.net.Book().Merge(welcome); err != nil {
		return fmt.Errorf("livenode: bad welcome book: %v", err)
	}
	// Announce to everyone we just learned about, so the whole cluster
	// knows us without waiting to see one of our frames.
	book := n.net.Book().Encode()
	for _, id := range n.net.Book().IDs() {
		if id != n.cfg.ID {
			n.net.SendPayload(id, "hello", book, 0)
		}
	}
	return nil
}

// Net exposes the transport (tests inject loss through it).
func (n *Node) Net() *nettransport.Net { return n.net }

// Engine exposes the live overlay engine.
func (n *Node) Engine() Engine { return n.engine }

// Detector exposes the failure detector. Its methods belong to the
// node's pacer goroutine (Evicted and Suspected below go through it);
// its Counters are safe anywhere.
func (n *Node) Detector() *resilience.Detector { return n.det }

// Registry exposes the node's metric registry (to add app metrics or
// snapshot in-process).
func (n *Node) Registry() *telemetry.Registry { return n.reg }

// Peers reports how many cluster members the node currently knows,
// itself included.
func (n *Node) Peers() int { return n.net.Book().Len() }

// Members returns the node's live membership view, sorted: the address
// book's ids, self included and evicted peers gone — the reference set
// every engine routes over.
func (n *Node) Members() []underlay.HostID { return n.net.Book().IDs() }

// Evicted returns the peers the failure detector has permanently
// evicted, sorted. Safe from any goroutine (the read runs on the pacer).
func (n *Node) Evicted() []underlay.HostID {
	var out []underlay.HostID
	n.pacer.Do(func() { out = n.det.Evicted() })
	return out
}

// Suspected returns the peers currently under suspicion, sorted. Safe
// from any goroutine.
func (n *Node) Suspected() []underlay.HostID {
	var out []underlay.HostID
	n.pacer.Do(func() { out = n.det.Suspected() })
	return out
}

// MetricsAddr reports the bound metrics address, or "" when disabled.
func (n *Node) MetricsAddr() string {
	if n.msrv == nil {
		return ""
	}
	return n.msrv.Addr()
}

// RunLookups performs count lookups with deterministic pseudo-random
// targets (derived from the node id, so each node exercises a different
// target stream) and reports how many verified successful.
func (n *Node) RunLookups(count int) (ok int) {
	seed := NodeKey(n.cfg.ID)
	for i := 0; i < count; i++ {
		target := megascale.Mix64(seed + uint64(i)*0x9e3779b97f4a7c15)
		if _, good := n.engine.Lookup(target); good {
			ok++
		}
	}
	return ok
}

// Close tears the node down: detector stops ticking, metrics port
// closes, socket closes. Idempotent.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		if n.watchCancel != nil {
			n.pacer.Do(n.watchCancel)
		}
		n.pacer.Stop()
		if n.msrv != nil {
			n.msrv.Close()
		}
		n.closeErr = n.net.Close()
	})
	return n.closeErr
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}
