package main

import (
	"os"
	"strings"
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
