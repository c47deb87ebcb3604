package main

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"unap2p/internal/livenode"
	"unap2p/internal/underlay"
)

// TestCheckFlags pins which flag combinations unapnode refuses: each
// rejected one names a flag whose effect main would otherwise drop.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		flags   string // flags given on the command line
		lookups int
		wantErr string // "" = accepted
	}{
		{"", 0, ""},
		{"id listen overlay bootstrap metrics", 0, ""},
		{"lookups oneshot expect", 100, ""},
		{"lookups relookup expect chaos chaos-epoch chaos-ases chaos-seed", 25, ""},
		{"oneshot", 0, "-oneshot needs -lookups"},
		{"lookups oneshot", 0, "-oneshot needs -lookups"},
		{"relookup", 0, "-relookup needs -lookups"},
		{"expect", 0, "-expect needs -lookups"},
		{"lookups oneshot relookup", 10, "-oneshot exits before -relookup"},
		{"chaos-epoch", 0, "-chaos-epoch needs -chaos"},
		{"chaos-ases", 0, "-chaos-ases needs -chaos"},
		{"lookups chaos-seed", 10, "-chaos-seed needs -chaos"},
	}
	for _, c := range cases {
		set := map[string]bool{}
		for _, name := range strings.Fields(c.flags) {
			set[name] = true
		}
		err := checkFlags(set, c.lookups)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("flags %q, lookups %d: unexpected error %v", c.flags, c.lookups, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("flags %q, lookups %d: error %v, want %q", c.flags, c.lookups, err, c.wantErr)
		}
	}
}

// TestAwaitMembers covers awaitMembers' three returns: at once when no
// member count is wanted, true once a joining node makes the count, and
// false on a shutdown signal while the count is out of reach. Its 30 s
// deadline calls os.Exit and stays untested.
func TestAwaitMembers(t *testing.T) {
	start := func(id int) *livenode.Node {
		t.Helper()
		n, err := livenode.Start(livenode.Config{ID: underlay.HostID(id), Overlay: "kademlia"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	a := start(0)
	sigc := make(chan os.Signal, 1)

	if !awaitMembers(a, 0, sigc) {
		t.Fatal("want 0: awaitMembers reported a signal")
	}

	done := make(chan bool, 1)
	go func() { done <- awaitMembers(a, 2, sigc) }()
	b := start(1)
	if err := b.Join(a.Net().LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("2-node cluster: awaitMembers reported a signal")
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("2-node cluster: awaitMembers still waiting with %d members", a.Peers())
	}

	// The signal is taken at the first select, well within one 20 ms tick;
	// the bound is loose for a loaded machine.
	sigc <- syscall.SIGTERM
	begin := time.Now()
	if awaitMembers(a, 3, sigc) {
		t.Fatalf("want 3 of %d members: awaitMembers returned true", a.Peers())
	}
	if d := time.Since(begin); d > time.Second {
		t.Fatalf("awaitMembers took %v to see a pending signal", d)
	}
}

// syncBuffer is a bytes.Buffer that serve's goroutine may write while the
// test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServeExitCodes drives serve's three lookup modes against an
// in-process three-node Chord cluster: a -oneshot round that clears the
// 95 % floor exits 0, one that falls below it once the other two members
// are gone exits 2, and -relookup repeats its round until a signal
// arrives, then exits 0.
func TestServeExitCodes(t *testing.T) {
	var nodes []*livenode.Node
	for id := 0; id < 3; id++ {
		n, err := livenode.StartRetry(livenode.Config{
			ID: underlay.HostID(id), Overlay: "chord", Timeout: 100 * time.Millisecond,
			PingInterval: time.Minute, // no eviction may shrink the view mid-test
		}, 5)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		if id > 0 {
			if err := n.Join(nodes[0].Net().LocalAddr().String()); err != nil {
				t.Fatal(err)
			}
		}
		nodes = append(nodes, n)
	}
	node := nodes[0]
	sigc := make(chan os.Signal, 1)

	var passed, repeated, failed syncBuffer
	if code := serve(node, rounds{lookups: 20, expect: 3, oneshot: true}, sigc, &passed); code != 0 {
		t.Fatalf("passing -oneshot round exited %d:\n%s", code, passed.String())
	}
	if !strings.Contains(passed.String(), "lookups ok=20/20") {
		t.Fatalf("passing round printed %q", passed.String())
	}

	done := make(chan int, 1)
	go func() { done <- serve(node, rounds{lookups: 4, relookup: 10 * time.Millisecond}, sigc, &repeated) }()
	deadline := time.Now().Add(10 * time.Second)
	for strings.Count(repeated.String(), "lookups ok=") < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("-relookup printed only:\n%s", repeated.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	sigc <- syscall.SIGTERM
	select {
	case code := <-done:
		if code != 0 || !strings.Contains(repeated.String(), "shutting down") {
			t.Fatalf("-relookup exited %d on a signal:\n%s", code, repeated.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("-relookup did not stop on a signal")
	}

	// Node 0 still lists the other two, which no longer answer: every walk
	// that leaves node 0 fails.
	nodes[1].Close()
	nodes[2].Close()
	if code := serve(node, rounds{lookups: 20, oneshot: true}, sigc, &failed); code != 2 {
		t.Fatalf("a round below the floor exited %d:\n%s", code, failed.String())
	}
}
