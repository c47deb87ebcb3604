package livenode

import (
	"encoding/binary"
	"net/netip"
	"slices"
	"sync/atomic"
	"testing"

	"unap2p/internal/nettransport"
	"unap2p/internal/resilience"
	"unap2p/internal/sim"
	"unap2p/internal/underlay"
)

// TestMembershipScanWatchesEachPeerOnce pins the scan against the
// detector's own bookkeeping: the first scan over a 16-peer book watches
// every peer but self, a rescan of the unchanged book allocates nothing,
// a rescan after a rebind adds no watch, a newly learned peer is watched,
// and an evicted peer is not watched again.
func TestMembershipScanWatchesEachPeerOnce(t *testing.T) {
	addr := func(port int) netip.AddrPort {
		return netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), uint16(port))
	}
	book := nettransport.NewAddressBook()
	book.Pin(0, addr(9000))
	for id := 1; id <= 16; id++ {
		book.Set(underlay.HostID(id), addr(9000+id))
	}
	det := resilience.New(nil, sim.NewKernel(), resilience.DefaultConfig()) // kernel never runs: no ping is sent
	scan := membershipScan(0, book, det)
	scan()
	if det.Watching() != 16 {
		t.Fatalf("first scan watches %d peers, want 16", det.Watching())
	}
	if allocs := testing.AllocsPerRun(10, scan); allocs != 0 {
		t.Fatalf("rescan of an unchanged book allocates %.0f objects, want 0", allocs)
	}
	book.Set(16, addr(9100)) // peer 16 rebinds: the book changed, its members did not
	scan()
	if det.Watching() != 16 {
		t.Fatalf("rescan after a rebind watches %d peers, want 16", det.Watching())
	}
	book.Set(17, addr(9017))
	scan()
	if det.Watching() != 17 {
		t.Fatalf("newly learned peer not watched: watching %d, want 17", det.Watching())
	}
	det.Unwatch(17) // what an eviction does to the detector's watches
	book.Remove(17)
	book.Set(18, addr(9018))
	scan()
	if det.Watching() != 17 {
		t.Fatalf("after evicting 17 and learning 18: watching %d, want 17", det.Watching())
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

// TestEvictedPeerStaysOut: once a node evicts a member, nothing a peer
// says brings it back — a kad:nodes or chord:succ reply naming it, a
// hello request's or announce's book naming it, or a request from the
// evicted member's own, still running socket, which is answered. The id
// never reappears in Members, and the book finds no address for it.
func TestEvictedPeerStaysOut(t *testing.T) {
	for _, overlay := range []string{"kademlia", "chord"} {
		t.Run(overlay, func(t *testing.T) {
			nodes := bootCluster(t, overlay, 2)
			victim, gone := nodes[0], nodes[1]
			victimID, goneID := victim.cfg.ID, gone.cfg.ID
			const liarID, markerID = 7, 9
			liar, err := nettransport.Listen(nettransport.Config{Self: liarID, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			defer liar.Close()
			stale := nettransport.NewAddressBook()
			stale.Set(goneID, gone.Net().LocalAddr())
			payload := stale.Encode()
			var served atomic.Int32
			liar.Handle("kad:find_node", func(underlay.HostID, []byte) []byte { served.Add(1); return payload })
			liar.Handle("chord:find_succ", func(underlay.HostID, []byte) []byte {
				served.Add(1)
				return append([]byte{1}, payload...)
			})
			// Answered pings keep the victim's detector from evicting the liar.
			liar.Handle("fd_ping", func(_ underlay.HostID, p []byte) []byte { return p })
			victim.Net().Book().Set(liarID, liar.LocalAddr())
			liar.Book().Set(victimID, victim.Net().LocalAddr())

			victim.Engine().Evict(goneID)
			out := func(after string) {
				t.Helper()
				if slices.Contains(victim.Members(), goneID) {
					t.Errorf("after %s the evicted %d is a member again: %v", after, goneID, victim.Members())
				}
				if a, ok := victim.Net().Book().Get(goneID); ok {
					t.Errorf("after %s the book holds %v for the evicted %d", after, a, goneID)
				}
			}
			out("the eviction")

			// With the victim's view down to itself and the liar, a lookup
			// of the victim's own key asks the liar.
			victim.Engine().Lookup(NodeKey(victimID))
			if served.Load() == 0 {
				t.Fatal("the lookup never asked the liar")
			}
			out("a lookup reply naming it")
			if overlay == "kademlia" {
				// The liar offers the evicted id for its own key, where no
				// other member comes close: it must still not be the answer.
				if got, _ := victim.Engine().Lookup(NodeKey(goneID)); got == goneID {
					t.Errorf("a lookup resolved to the evicted %d", goneID)
				}
			}

			if _, err := liar.Call(victimID, "hello", payload); err != nil {
				t.Fatal(err)
			}
			out("a hello request naming it")

			// An announce has no reply: a marker entry merged after the
			// evicted one shows the whole book was read.
			stale.Set(markerID, netip.MustParseAddrPort("203.0.113.7:4445"))
			if !liar.SendPayload(victimID, "hello", stale.Encode(), 0) {
				t.Fatal("hello announce not sent")
			}
			awaitCluster(t, "the announce to be merged", func() bool { _, ok := victim.Net().Book().Get(markerID); return ok })
			out("a hello announce naming it")

			if resp, err := gone.Net().Call(victimID, "fd_ping", []byte("still here")); err != nil || string(resp) != "still here" {
				t.Fatalf("the evicted member's own request: %q, %v", resp, err)
			}
			out("a request from its own socket")
		})
	}
}
