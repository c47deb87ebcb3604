package livenode

import (
	"encoding/binary"
	"net/netip"
	"sync/atomic"
	"testing"

	"unap2p/internal/nettransport"
	"unap2p/internal/resilience"
	"unap2p/internal/sim"
	"unap2p/internal/underlay"
)

// TestMembershipScanAllocatesPerPeerOnce pins the scan's steady state: the
// first scan over a 16-peer book watches every peer, a rescan of the
// unchanged book allocates nothing, and a rescan after the book changed
// lists the ids again but allocates no Host for a peer it already knows.
func TestMembershipScanAllocatesPerPeerOnce(t *testing.T) {
	addr := func(port int) netip.AddrPort {
		return netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), uint16(port))
	}
	book := nettransport.NewAddressBook()
	for id := 0; id <= 16; id++ { // self is 0
		book.Set(underlay.HostID(id), addr(9000+id))
	}
	det := resilience.New(nil, sim.NewKernel(), resilience.DefaultConfig()) // kernel never runs: no ping is sent
	scan := membershipScan(0, book, &Core{}, det)
	scan()
	if det.Watching() != 16 {
		t.Fatalf("first scan watches %d peers, want 16", det.Watching())
	}
	if allocs := testing.AllocsPerRun(10, scan); allocs != 0 {
		t.Fatalf("rescan of an unchanged book allocates %.0f objects, want 0", allocs)
	}
	addrs := []netip.AddrPort{addr(9100), addr(9016)}
	rebinds := 0
	allocs := testing.AllocsPerRun(10, func() {
		book.Set(16, addrs[rebinds%2]) // peer 16 rebinds: the book changed, its members did not
		rebinds++
		scan()
	})
	if allocs >= 16 {
		t.Fatalf("rescan after a rebind allocates %.0f objects: a Host per known peer again", allocs)
	}
	book.Set(17, addr(9017))
	scan()
	if det.Watching() != 17 {
		t.Fatalf("newly learned peer not watched: watching %d, want 17", det.Watching())
	}
}

// TestGnutellaSeenWindowIsBounded relays far more distinct queries than
// the dedup window holds: the seen set must stay within its two
// generations, and an echo of a recent query must still be dropped.
func TestGnutellaSeenWindowIsBounded(t *testing.T) {
	requireSockets(t)
	tr, err := nettransport.Listen(nettransport.Config{Self: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Book().Set(1, tr.LocalAddr())
	e := newGnutella(NewCore(tr))

	// A query for somebody else with TTL to spare: deduped, then relayed
	// (to nobody — this node knows only itself).
	query := func(qid uint64) []byte {
		var q [gnuQueryLen]byte
		binary.BigEndian.PutUint64(q[:], qid)
		binary.BigEndian.PutUint32(q[8:], 99) // target
		binary.BigEndian.PutUint32(q[12:], 2) // origin
		q[16] = gnuTTL
		return q[:]
	}
	const n = 5*gnuSeenWindow + 17
	for qid := uint64(1); qid <= n; qid++ {
		e.onQuery(underlay.HostID(2), "gnu:query", query(qid))
	}
	if got := e.Msgs.Value("gnu_forward"); got != n {
		t.Fatalf("relayed %d of %d distinct queries", got, n)
	}
	if held := len(e.seen.cur) + len(e.seen.prev); held > 2*gnuSeenWindow || held < gnuSeenWindow {
		t.Fatalf("seen set holds %d ids after %d queries, want within [%d, %d]",
			held, n, gnuSeenWindow, 2*gnuSeenWindow)
	}

	// Echoes of the newest query and of one a full window back are both
	// still recognized; nothing was counted as a duplicate before.
	if got := e.Msgs.Value("gnu_dup"); got != 0 {
		t.Fatalf("gnu_dup = %d before any echo", got)
	}
	e.onQuery(underlay.HostID(3), "gnu:query", query(n))
	e.onQuery(underlay.HostID(3), "gnu:query", query(n-gnuSeenWindow))
	if got := e.Msgs.Value("gnu_dup"); got != 2 {
		t.Fatalf("gnu_dup = %d after two echoes of recent queries, want 2", got)
	}
}

// TestGnutellaDropsOversizedTTL: a conforming origin sends gnuTTL, so a
// gnu:query claiming more hops is malformed. A raw peer sends one with TTL
// 200 for another member: the node counts it under gnu_bad_ttl and relays
// nothing. Its qid never entered the dedup window, so the same query at a
// conforming TTL is then relayed.
func TestGnutellaDropsOversizedTTL(t *testing.T) {
	nodes := bootCluster(t, "gnutella", 3)
	victim, target := nodes[1], nodes[2]
	const attackerID = 100
	attacker, err := nettransport.Listen(nettransport.Config{Self: attackerID, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer attacker.Close()
	attacker.Book().Set(victim.cfg.ID, victim.Net().LocalAddr())

	msgs := victim.core.Msgs
	forwarded := msgs.Value("gnu_forward")
	var q [gnuQueryLen]byte
	binary.BigEndian.PutUint64(q[:], 0xbad)
	binary.BigEndian.PutUint32(q[8:], uint32(target.cfg.ID))
	binary.BigEndian.PutUint32(q[12:], attackerID)
	q[16] = 200
	if !attacker.SendPayload(victim.cfg.ID, "gnu:query", q[:], 0) {
		t.Fatal("query not sent")
	}
	awaitCluster(t, "the oversized TTL to be counted", func() bool { return msgs.Value("gnu_bad_ttl") == 1 })
	if got := msgs.Value("gnu_forward"); got != forwarded {
		t.Fatalf("gnu_forward went from %d to %d: the malformed query was relayed", forwarded, got)
	}

	q[16] = gnuTTL
	if !attacker.SendPayload(victim.cfg.ID, "gnu:query", q[:], 0) {
		t.Fatal("query not sent")
	}
	awaitCluster(t, "the conforming query to be relayed", func() bool { return msgs.Value("gnu_forward") == forwarded+1 })
}

// TestPeerCannotRewriteSelfAddress: a hostile peer names the victim's own
// id with a bogus ip:port in everything a peer can supply — a kad:nodes
// reply, a chord:succ reply, a hello request's book and a hello
// announce's. The victim's own entry must stay its socket's address, or
// it would advertise the forgery in every welcome and find_node reply
// from then on.
func TestPeerCannotRewriteSelfAddress(t *testing.T) {
	requireSockets(t)
	const victimID, attackerID = 1, 2
	forged := nettransport.NewAddressBook()
	forged.Set(victimID, netip.MustParseAddrPort("203.0.113.7:4444"))
	payload := forged.Encode()

	for _, overlay := range []string{"kademlia", "chord"} {
		t.Run(overlay, func(t *testing.T) {
			victim, err := StartRetry(Config{ID: victimID, Overlay: overlay, Logf: t.Logf}, 5)
			if err != nil {
				t.Fatal(err)
			}
			defer victim.Close()
			attacker, err := nettransport.Listen(nettransport.Config{Self: attackerID, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			defer attacker.Close()
			var served atomic.Int32
			attacker.Handle("kad:find_node", func(underlay.HostID, []byte) []byte { served.Add(1); return payload })
			attacker.Handle("chord:find_succ", func(underlay.HostID, []byte) []byte {
				served.Add(1)
				return append([]byte{1}, payload...)
			})
			book := victim.Net().Book()
			book.Set(attackerID, attacker.LocalAddr())
			attacker.Book().Set(victimID, victim.Net().LocalAddr())
			intact := func(after string) {
				t.Helper()
				if got, _ := book.Get(victimID); got != victim.Net().LocalAddr() {
					t.Errorf("after %s the victim's own entry reads %v, want its socket's %v", after, got, victim.Net().LocalAddr())
					book.Set(victimID, victim.Net().LocalAddr()) // so the next forgery is judged on its own
				}
			}

			// The victim's own key is outside its successor arc, so a Chord
			// walk for it leaves the node; a Kademlia lookup queries every
			// member it knows.
			victim.Engine().Lookup(NodeKey(victimID))
			if n := served.Load(); n != 1 {
				t.Fatalf("the lookup sent the attacker %d requests, want 1: the forged reply was never read", n)
			}
			intact("a forged lookup reply")

			if _, err := attacker.Call(victimID, "hello", payload); err != nil {
				t.Fatal(err)
			}
			intact("a forged hello request")

			// An announce has no reply to wait for: it also names a third
			// id, merged after the victim's, whose arrival shows the
			// victim has been through the whole book.
			forged.Set(3, netip.MustParseAddrPort("203.0.113.7:4445"))
			if !attacker.SendPayload(victimID, "hello", forged.Encode(), 0) {
				t.Fatal("hello announce not sent")
			}
			awaitCluster(t, "the announce to be merged", func() bool { _, ok := book.Get(3); return ok })
			intact("a forged hello announce")
		})
	}
}
