package integration

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The run-file hash gate. Every run file the chaos suite writes (8
// scenarios × 3 seeds) and every one TestMegascaleRunFilesByteIdentical
// writes (3 overlays × 3 seeds × 2 shard counts) must hash to its line
// in runFileHashes, so a change that moves one byte of any of them fails
// here rather than in a by-hand comparison. On a mismatch, TestMain
// prints the complete replacement file: paste it in when the change is
// meant to alter output, and say why. The hashes are for linux/amd64,
// like `make golden`'s (another GOARCH may round floats differently);
// elsewhere only the run-twice comparison applies.
const runFileHashes = "testdata/runfiles.sha256"

var runFiles struct {
	sync.Mutex
	want, got map[string]string // name → sha256 hex
	mismatch  bool
}

// checkRunFile compares data's sha256 with name's line in runFileHashes.
func checkRunFile(t *testing.T, name string, data []byte) {
	t.Helper()
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		return
	}
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:])
	runFiles.Lock()
	defer runFiles.Unlock()
	if runFiles.want == nil {
		want, err := readRunFileHashes()
		if err != nil {
			t.Fatal(err)
		}
		runFiles.want, runFiles.got = want, map[string]string{}
	}
	runFiles.got[name] = got
	if want := runFiles.want[name]; got != want {
		runFiles.mismatch = true
		t.Errorf("run file %s: sha256 %s, %s has %q", name, got, runFileHashes, want)
	}
}

// readRunFileHashes parses "<sha256>  <name>" lines; a missing file is
// an empty set, so every run file mismatches and the list gets printed.
func readRunFileHashes() (map[string]string, error) {
	want := map[string]string{}
	f, err := os.Open(runFileHashes)
	if errors.Is(err, fs.ErrNotExist) {
		return want, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", runFileHashes, sc.Text())
		}
		want[name] = sum
	}
	return want, sc.Err()
}

// TestMain runs the package's tests, then prints the replacement
// runFileHashes when any run file mismatched: the existing lines with
// every hash this run computed substituted or added.
func TestMain(m *testing.M) {
	code := m.Run()
	if runFiles.mismatch {
		lines := map[string]string{}
		for _, set := range []map[string]string{runFiles.want, runFiles.got} {
			for name, sum := range set {
				lines[name] = sum
			}
		}
		names := make([]string, 0, len(lines))
		for name := range lines {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("run files moved; replacement %s:\n", runFileHashes)
		for _, name := range names {
			fmt.Printf("%s  %s\n", lines[name], name)
		}
	}
	os.Exit(code)
}
