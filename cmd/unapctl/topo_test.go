package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestTopoDOT checks -dot renders a Graphviz graph of the underlay.
func TestTopoDOT(t *testing.T) {
	var out bytes.Buffer
	if err := cmdTopo([]string{"-kind", "transit-stub", "-stubs", "5", "-transits", "2", "-dot"}, &out); err != nil {
		t.Fatal(err)
	}
	if s := out.String(); !strings.HasPrefix(s, "graph underlay {\n") || !strings.HasSuffix(s, "}\n") || !strings.Contains(s, " -- ") {
		t.Fatalf("not a DOT graph:\n%s", s)
	}
}

// TestTopoOutOfRange checks a size the generator cannot build is a usage
// error carrying the topology package's own precondition message, not a
// panic.
func TestTopoOutOfRange(t *testing.T) {
	for _, args := range []string{
		"-kind ring -n 1",
		"-kind star -n 1",
		"-kind tree -n 0",
		"-kind mesh -n 1",
		"-kind ba -n 1",
		"-kind waxman -n 0",
		"-kind transit-stub -stubs 0 -transits 0",
		"-kind torus",
	} {
		var out bytes.Buffer
		err := cmdTopo(strings.Fields(args), &out)
		if err == nil || !errors.As(err, new(usageError)) {
			t.Fatalf("topo %s: error %v, want a usage error", args, err)
		}
		if !strings.Contains(err.Error(), "topology: ") && !strings.Contains(err.Error(), "unknown topology kind") {
			t.Fatalf("topo %s: %v does not carry the topology package's message", args, err)
		}
		if out.Len() > 0 {
			t.Fatalf("topo %s: printed %q before failing", args, out.String())
		}
	}
}
