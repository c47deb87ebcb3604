package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDeadcodeFixture runs the pass over a three-file module: main prints
// what Live returns; Live calls Area, but not Perimeter, through the
// module's Shape interface; only the test file calls TestOnly and Kept;
// Kept has a verdict.
func TestDeadcodeFixture(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":  "module fixture\n\ngo 1.22\n",
		"main.go": "package main\n\nimport (\n\t\"fmt\"\n\n\t\"fixture/lib\"\n)\n\nfunc main() { fmt.Println(lib.Live()) }\n",
		"lib/lib.go": `package lib

type T int

func (T) String() string { return "" }

func (T) Unused() {}

type Shape interface {
	Area() int
	Perimeter() int
}

type Sq int

func (Sq) Area() int { return 1 }

func (Sq) Perimeter() int { return 4 }

func Live() T {
	var s Shape = Sq(1)
	return T(s.Area())
}

func TestOnly() {}

func Kept() {}
`,
		"lib/l_test.go": "package lib\n\nimport \"testing\"\n\nfunc TestAll(t *testing.T) { TestOnly(); Kept() }\n",
	} {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	run := func(keep string) (int, string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(root, "deadcode.keep"), []byte(keep), 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		bad, err := cmdDeadcode([]string{root}, &out)
		if err != nil {
			t.Fatal(err)
		}
		return bad, out.String()
	}

	// Live is reachable, and so is the String method of the type it
	// returns (the module imports fmt, whose Stringer T implements) and
	// Sq.Area, which Live calls through Shape. Sq.Perimeter, which nothing
	// calls through Shape, T.Unused, TestOnly and Kept are not, and only
	// Kept is triaged.
	bad, out := run("# verdicts\nlib.Kept\ttest-seam\tfixture\n")
	if bad != 3 {
		t.Fatalf("%d problems, want 3 (lib.Sq.Perimeter, lib.T.Unused, lib.TestOnly):\n%s", bad, out)
	}
	for _, want := range []string{"lib.Kept ", "test-seam", "lib.TestOnly ", "lib.T.Unused ", "lib.Sq.Perimeter ", "UNTRIAGED", "4 symbols"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output lacks %q:\n%s", want, out)
		}
	}
	for _, live := range []string{"lib.Live", "lib.T.String", "lib.Sq.Area", "lib.Shape ", "main.main"} {
		if strings.Contains(out, live) {
			t.Fatalf("%s reported dead:\n%s", live, out)
		}
	}

	// Everything triaged: clean. A verdict for a live symbol: stale.
	all := "lib.Kept\ttest-seam\tfixture\nlib.TestOnly\tdelete\tfixture\nlib.T.Unused\tdelete\tfixture\nlib.Sq.Perimeter\tdelete\tfixture\n"
	if bad, out := run(all); bad != 0 {
		t.Fatalf("fully triaged fixture reports %d problems:\n%s", bad, out)
	}
	if bad, out := run(all + "lib.Live\toracle\tfixture\n"); bad != 1 || !strings.Contains(out, "STALE") {
		t.Fatalf("stale verdict: %d problems, want 1:\n%s", bad, out)
	}
}
