// Command unapnode runs one live overlay node: the real-socket
// counterpart of the simulated peers, speaking the nettransport wire
// protocol over UDP. A cluster is N unapnode processes — start one as
// the bootstrap, point the rest at it, and watch the failure detector's
// resilience:* counters on /metrics react when you kill one.
//
// Usage:
//
//	unapnode -id 0 -listen 127.0.0.1:9000 -overlay kademlia -metrics 127.0.0.1:9100
//	unapnode -id 1 -listen 127.0.0.1:9001 -overlay kademlia -bootstrap 127.0.0.1:9000
//
// With -lookups N the node runs N verified lookups after the cluster
// reaches -expect members, prints "lookups ok=X/N", and (with -oneshot)
// exits — the mode `make net-smoke` drives. Without -oneshot the node
// runs until SIGINT/SIGTERM.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"unap2p/internal/chaos"
	"unap2p/internal/livenode"
	"unap2p/internal/underlay"
)

func main() {
	var (
		id        = flag.Int("id", 0, "cluster-wide node id (unique per process)")
		listen    = flag.String("listen", "127.0.0.1:0", "UDP listen address")
		overlay   = flag.String("overlay", "kademlia", "overlay engine: kademlia, chord or gnutella")
		bootstrap = flag.String("bootstrap", "", "bootstrap node UDP address (empty: this node seeds the cluster)")
		metrics   = flag.String("metrics", "", "serve /metrics and /debug/pprof on this address (e.g. 127.0.0.1:9100)")
		ping      = flag.Duration("ping", 500*time.Millisecond, "failure-detector ping interval")
		timeout   = flag.Duration("timeout", 250*time.Millisecond, "per-RPC deadline")
		expect    = flag.Int("expect", 0, "wait for this many cluster members before running lookups")
		lookups   = flag.Int("lookups", 0, "run this many verified lookups once the cluster converges")
		oneshot   = flag.Bool("oneshot", false, "exit after the lookup run instead of serving forever")
		relookup  = flag.Duration("relookup", 0, "repeat the lookup run at this interval (reports each round)")
		verbose   = flag.Bool("v", false, "log transport diagnostics to stderr")

		suspectAfter = flag.Int("suspect-after", 0, "failure-detector suspect streak (0: default 2)")
		evictAfter   = flag.Int("evict-after", 0, "failure-detector evict streak (0: default 4)")

		chaosFile  = flag.String("chaos", "", "arm this chaos schedule file's loss/partition windows as an inbound drop filter")
		chaosEpoch = flag.Int64("chaos-epoch", 0, "chaos schedule epoch, unix milliseconds (0: process start); share one across the cluster")
		chaosASes  = flag.Int("chaos-ases", 0, "synthetic AS count for schedule scoping (NodeKey placement)")
		chaosSeed  = flag.Int64("chaos-seed", 1, "per-cluster seed for the chaos loss streams")
	)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := checkFlags(set, *lookups); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}

	cfg := livenode.Config{
		ID:           underlay.HostID(*id),
		Overlay:      *overlay,
		Listen:       *listen,
		MetricsAddr:  *metrics,
		Timeout:      *timeout,
		PingInterval: *ping,
		SuspectAfter: *suspectAfter,
		EvictAfter:   *evictAfter,
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	node, err := livenode.Start(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	defer node.Close()

	fmt.Printf("unapnode id=%d overlay=%s listening on %s\n",
		*id, *overlay, node.Net().LocalAddr())
	if addr := node.MetricsAddr(); addr != "" {
		fmt.Printf("unapnode id=%d metrics on http://%s/metrics\n", *id, addr)
	}
	if *chaosFile != "" {
		text, err := os.ReadFile(*chaosFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		sched, err := chaos.Parse(string(text))
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: chaos schedule %s: %v\n", *chaosFile, err)
			os.Exit(1)
		}
		epoch := time.Now()
		if *chaosEpoch > 0 {
			epoch = time.UnixMilli(*chaosEpoch)
		}
		if err := node.ArmChaos(sched, epoch, *chaosASes, *chaosSeed); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Printf("unapnode id=%d chaos armed: %d windows, epoch %d\n",
			*id, len(sched.Windows), epoch.UnixMilli())
	}
	if *bootstrap != "" {
		if err := node.Join(*bootstrap); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Printf("unapnode id=%d joined via %s, knows %d peers\n",
			*id, *bootstrap, node.Peers())
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	if code := serve(node, rounds{*lookups, *expect, *oneshot, *relookup}, sigc, os.Stdout); code != 0 {
		os.Exit(code)
	}
}

// rounds is the lookup schedule the flags ask for.
type rounds struct {
	lookups, expect int
	oneshot         bool
	relookup        time.Duration
}

// serve is main after start-up: with r.lookups > 0 it runs a lookup round
// once the cluster has r.expect members, then exits (-oneshot), repeats
// the round every r.relookup, or just serves, until a signal arrives on
// sigc. It reports each round on out and returns the exit code: 2 for a
// -oneshot round below the 95 % success floor, else 0.
func serve(node *livenode.Node, r rounds, sigc <-chan os.Signal, out io.Writer) int {
	id := node.Net().Self()
	round := func() int {
		ok := node.RunLookups(r.lookups)
		fmt.Fprintf(out, "unapnode id=%d lookups ok=%d/%d\n", id, ok, r.lookups)
		return ok
	}
	var tick <-chan time.Time
	if r.lookups > 0 {
		if !awaitMembers(node, r.expect, sigc) {
			return 0 // interrupted while waiting
		}
		ok := round()
		if r.oneshot {
			if ok*100 < r.lookups*95 {
				return 2 // below the smoke-test success floor
			}
			return 0
		}
		// Campaign mode: keep re-running the lookup round so an external
		// harness (the live chaos driver) can read success rates before,
		// during and after the schedule's fault windows.
		if r.relookup > 0 {
			t := time.NewTicker(r.relookup)
			defer t.Stop()
			tick = t.C
		}
	}
	for {
		select {
		case <-tick:
			round()
		case sig := <-sigc:
			fmt.Fprintf(out, "unapnode id=%d shutting down (%v)\n", id, sig)
			return 0
		}
	}
}

// checkFlags rejects the flag combinations main would silently ignore:
// set holds the names of the flags given on the command line, lookups
// the -lookups value.
func checkFlags(set map[string]bool, lookups int) error {
	for _, name := range []string{"oneshot", "relookup", "expect"} {
		if set[name] && lookups <= 0 {
			return fmt.Errorf("-%s needs -lookups N with N > 0", name)
		}
	}
	if set["oneshot"] && set["relookup"] {
		return fmt.Errorf("-oneshot exits before -relookup can run")
	}
	for _, name := range []string{"chaos-epoch", "chaos-ases", "chaos-seed"} {
		if set[name] && !set["chaos"] {
			return fmt.Errorf("-%s needs -chaos", name)
		}
	}
	return nil
}

// awaitMembers blocks until the address book holds want members (or
// forever-known ones if want is 0, returning immediately). It reports
// false when a shutdown signal arrived first.
func awaitMembers(node *livenode.Node, want int, sigc <-chan os.Signal) bool {
	if want <= 0 {
		return true
	}
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(30 * time.Second)
	for {
		if node.Peers() >= want {
			return true
		}
		select {
		case <-tick.C:
		case <-deadline:
			fmt.Fprintf(os.Stderr, "error: cluster stuck at %d/%d members\n", node.Peers(), want)
			os.Exit(1)
		case <-sigc:
			return false
		}
	}
}
