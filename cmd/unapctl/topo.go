package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"unap2p/internal/sim"
	"unap2p/internal/topology"
	"unap2p/internal/underlay"
)

// cmdTopo generates one simulated underlay and prints a summary, the AS
// adjacency with link kinds and delays and a few sample AS paths, or a
// Graphviz DOT rendering with -dot.
func cmdTopo(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("topo", flag.ExitOnError)
	var (
		kind     = fs.String("kind", "transit-stub", "topology kind: transit-stub, ring, star, tree, mesh, ba, waxman")
		n        = fs.Int("n", 8, "AS count for router-style topologies")
		stubs    = fs.Int("stubs", 12, "stub count (transit-stub)")
		transits = fs.Int("transits", 3, "transit count (transit-stub)")
		hosts    = fs.Int("hosts", 0, "hosts per local AS to place")
		seed     = fs.Int64("seed", 1, "random seed")
		dot      = fs.Bool("dot", false, "emit Graphviz DOT instead of text")
	)
	fs.Parse(args)
	if fs.NArg() > 0 {
		return usagef("topo: unexpected argument %q", fs.Arg(0))
	}

	// The generators panic on an out-of-range size (a ring of one AS, a
	// transit-stub net without stubs); report the topology package's own
	// precondition message as a usage error instead. Nothing is printed
	// before the network is built, so no partial output precedes it.
	defer func() {
		p := recover()
		if msg, ok := p.(string); ok && strings.HasPrefix(msg, "topology: ") {
			err = usagef("topo: %s", msg)
		} else if p != nil {
			panic(p)
		}
	}()

	src := sim.NewSource(*seed)
	cfg := topology.DefaultConfig()
	cfg.Rand = src.Stream("topo")
	var net *underlay.Network
	switch *kind {
	case "transit-stub":
		net = topology.TransitStub(topology.TransitStubConfig{
			Config:          cfg,
			Transits:        *transits,
			Stubs:           *stubs,
			MultihomeProb:   0.2,
			StubPeeringProb: 0.15,
		})
	case "ring":
		net = topology.Ring(*n, cfg)
	case "star":
		net = topology.Star(*n, cfg)
	case "tree":
		net = topology.Tree(*n, 2, cfg)
	case "mesh":
		net = topology.Mesh(*n, 2.5, cfg)
	case "ba":
		net = topology.BarabasiAlbert(*n, 2, cfg)
	case "waxman":
		net = topology.Waxman(*n, 0.4, 0.2, cfg)
	default:
		return usagef("topo: unknown topology kind %q", *kind)
	}
	if *hosts > 0 {
		topology.PlaceHosts(net, *hosts, false, 1, 5, src.Stream("place"))
	}

	if *dot {
		emitDOT(stdout, net)
		return nil
	}
	fmt.Fprintln(stdout, topology.Describe(net))
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "links:")
	for _, l := range net.Links() {
		arrow := "--"
		if l.Kind == underlay.Transit {
			arrow = "->" // customer -> provider
		}
		fmt.Fprintf(stdout, "  %s %s %s  %s  %.1fms\n", l.A.Name, arrow, l.B.Name, l.Kind, float64(l.DelayAB))
	}
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "sample AS paths:")
	nAS := net.NumASes()
	for i := 0; i < nAS && i < 4; i++ {
		j := nAS - 1 - i
		if i == j {
			continue
		}
		fmt.Fprintf(stdout, "  AS%d → AS%d: %v (%d hops, %.1fms)\n",
			i, j, net.ASPath(i, j), net.ASHops(i, j), float64(net.ASDelay(i, j)))
	}
	return nil
}

func emitDOT(w io.Writer, net *underlay.Network) {
	fmt.Fprintln(w, "graph underlay {")
	for _, as := range net.ASes() {
		shape := "ellipse"
		if as.Kind == underlay.TransitISP {
			shape = "box"
		}
		fmt.Fprintf(w, "  %s [shape=%s];\n", as.Name, shape)
	}
	for _, l := range net.Links() {
		style := "solid"
		if l.Kind == underlay.Peering {
			style = "dashed"
		}
		fmt.Fprintf(w, "  %s -- %s [style=%s,label=\"%.0fms\"];\n",
			l.A.Name, l.B.Name, style, float64(l.DelayAB))
	}
	fmt.Fprintln(w, "}")
}
