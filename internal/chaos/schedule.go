// Package chaos drives deterministic fault campaigns against the
// simulated underlay: seeded schedules of AS partitions, correlated
// per-AS loss bursts, and peer crash waves (schedule.go, inject.go),
// plus the invariant checker every overlay's integration test runs
// after the dust settles (check.go). Everything is pure with respect
// to the seed — the same schedule against the same world produces
// bit-identical runs, which is what lets the chaos suite pin run files
// byte-for-byte.
package chaos

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"unap2p/internal/sim"
)

// Kind discriminates fault windows.
type Kind int

const (
	// ASPartition cuts the listed ASes off from the rest of the
	// network for [Start, End): traffic crossing the cut is dropped,
	// traffic inside either side still flows.
	ASPartition Kind = iota
	// LossBurst drops messages touching the listed ASes (all traffic
	// when the list is empty) with probability Loss for [Start, End) —
	// the correlated per-AS loss of access-network congestion.
	LossBurst
	// CrashWave takes Crash peers down at Start; when Revive is set
	// they come back at End.
	CrashWave
)

// String returns the schedule-line verb for the kind.
func (k Kind) String() string {
	switch k {
	case ASPartition:
		return "partition"
	case LossBurst:
		return "loss"
	case CrashWave:
		return "crash"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Window is one fault interval.
type Window struct {
	Kind       Kind
	Start, End sim.Time
	// ASes scopes partitions (the cut set, required) and loss bursts
	// (optional; empty = everywhere). Sorted and deduped.
	ASes []int
	// Loss is the burst drop probability in [0, 1].
	Loss float64
	// Crash is the wave size (peers taken down).
	Crash int
	// Revive brings the wave's victims back at End.
	Revive bool
}

// active reports whether the window covers t.
func (w Window) active(t sim.Time) bool { return t >= w.Start && t < w.End }

// scoped reports whether asID falls under the window's AS scope.
func (w Window) scoped(asID int) bool {
	if len(w.ASes) == 0 {
		return true
	}
	for _, a := range w.ASes {
		if a == asID {
			return true
		}
	}
	return false
}

// Schedule is an ordered fault campaign.
type Schedule struct {
	Windows []Window
}

// drops applies the partition and loss windows active at now to one
// message between two ASes — the window semantics the sim Injector and
// the live LiveFilter share. A partition drops traffic whose endpoints
// sit on opposite sides of the cut; a loss burst drops traffic touching a
// scoped AS with probability Loss. Windows are tried in schedule order
// and draw is consulted only for an active, scoped loss burst with
// Loss > 0, so each caller's seeded stream advances the same way in
// both planes.
func (s Schedule) drops(now sim.Time, fromAS, toAS int, draw func() float64) bool {
	for _, w := range s.Windows {
		if !w.active(now) {
			continue
		}
		switch w.Kind {
		case ASPartition:
			if w.scoped(fromAS) != w.scoped(toAS) {
				return true
			}
		case LossBurst:
			if w.Loss > 0 && (w.scoped(fromAS) || w.scoped(toAS)) && draw() < w.Loss {
				return true
			}
		}
	}
	return false
}

// Validate rejects schedules an Injector cannot arm: non-finite or
// negative times, inverted intervals, out-of-range rates, empty
// partition cuts, non-positive wave sizes.
func (s Schedule) Validate() error {
	for i, w := range s.Windows {
		if err := w.validate(); err != nil {
			return fmt.Errorf("window %d: %w", i, err)
		}
	}
	return nil
}

func (w Window) validate() error {
	if !finite(w.Start) || !finite(w.End) {
		return fmt.Errorf("%s: non-finite or negative time", w.Kind)
	}
	if w.End < w.Start {
		return fmt.Errorf("%s: end %v before start %v", w.Kind, w.End, w.Start)
	}
	switch w.Kind {
	case ASPartition:
		if len(w.ASes) == 0 {
			return fmt.Errorf("partition: empty cut set")
		}
	case LossBurst:
		if math.IsNaN(w.Loss) || w.Loss < 0 || w.Loss > 1 {
			return fmt.Errorf("loss: rate %v outside [0,1]", w.Loss)
		}
	case CrashWave:
		if w.Crash < 1 {
			return fmt.Errorf("crash: wave size %d < 1", w.Crash)
		}
	default:
		return fmt.Errorf("unknown kind %d", int(w.Kind))
	}
	return nil
}

func finite(t sim.Time) bool {
	f := float64(t)
	return !math.IsNaN(f) && !math.IsInf(f, 0) && f >= 0
}

// Parse reads a schedule from its line format:
//
//	# comment
//	partition <start> <end> as=<id>[,<id>...]
//	loss <start> <end> rate=<p> [as=<id>[,<id>...]]
//	crash <at> n=<count> [revive=<time>]
//
// Times are sim-time milliseconds. Malformed input returns an error —
// never a panic (this is the fuzz contract).
func Parse(text string) (Schedule, error) {
	var s Schedule
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	ln := 0
	for sc.Scan() {
		ln++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		var w Window
		var err error
		switch f[0] {
		case "partition":
			w, err = parsePartition(f[1:])
		case "loss":
			w, err = parseLoss(f[1:])
		case "crash":
			w, err = parseCrash(f[1:])
		default:
			err = fmt.Errorf("unknown verb %q", f[0])
		}
		if err != nil {
			return Schedule{}, fmt.Errorf("line %d: %w", ln, err)
		}
		if err := w.validate(); err != nil {
			return Schedule{}, fmt.Errorf("line %d: %w", ln, err)
		}
		s.Windows = append(s.Windows, w)
	}
	if err := sc.Err(); err != nil {
		return Schedule{}, fmt.Errorf("scan: %w", err)
	}
	return s, nil
}

func parsePartition(args []string) (Window, error) {
	w := Window{Kind: ASPartition}
	if len(args) < 3 {
		return w, fmt.Errorf("partition: want <start> <end> as=..., got %d args", len(args))
	}
	var err error
	if w.Start, err = parseTime(args[0]); err != nil {
		return w, err
	}
	if w.End, err = parseTime(args[1]); err != nil {
		return w, err
	}
	for _, kv := range args[2:] {
		key, val, err := splitKV(kv)
		if err != nil {
			return w, err
		}
		switch key {
		case "as":
			if w.ASes, err = parseASList(val); err != nil {
				return w, err
			}
		default:
			return w, fmt.Errorf("partition: unknown option %q", key)
		}
	}
	return w, nil
}

func parseLoss(args []string) (Window, error) {
	w := Window{Kind: LossBurst, Loss: -1}
	if len(args) < 3 {
		return w, fmt.Errorf("loss: want <start> <end> rate=..., got %d args", len(args))
	}
	var err error
	if w.Start, err = parseTime(args[0]); err != nil {
		return w, err
	}
	if w.End, err = parseTime(args[1]); err != nil {
		return w, err
	}
	for _, kv := range args[2:] {
		key, val, err := splitKV(kv)
		if err != nil {
			return w, err
		}
		switch key {
		case "rate":
			if w.Loss, err = strconv.ParseFloat(val, 64); err != nil {
				return w, fmt.Errorf("loss: bad rate %q", val)
			}
		case "as":
			if w.ASes, err = parseASList(val); err != nil {
				return w, err
			}
		default:
			return w, fmt.Errorf("loss: unknown option %q", key)
		}
	}
	if w.Loss < 0 {
		return w, fmt.Errorf("loss: rate= is required")
	}
	return w, nil
}

func parseCrash(args []string) (Window, error) {
	w := Window{Kind: CrashWave}
	if len(args) < 2 {
		return w, fmt.Errorf("crash: want <at> n=..., got %d args", len(args))
	}
	var err error
	if w.Start, err = parseTime(args[0]); err != nil {
		return w, err
	}
	w.End = w.Start
	for _, kv := range args[1:] {
		key, val, err := splitKV(kv)
		if err != nil {
			return w, err
		}
		switch key {
		case "n":
			if w.Crash, err = strconv.Atoi(val); err != nil {
				return w, fmt.Errorf("crash: bad count %q", val)
			}
		case "revive":
			if w.End, err = parseTime(val); err != nil {
				return w, err
			}
			w.Revive = true
		default:
			return w, fmt.Errorf("crash: unknown option %q", key)
		}
	}
	return w, nil
}

func parseTime(s string) (sim.Time, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
		return 0, fmt.Errorf("bad time %q", s)
	}
	return sim.Time(f), nil
}

func splitKV(s string) (key, val string, err error) {
	i := strings.IndexByte(s, '=')
	if i <= 0 || i == len(s)-1 {
		return "", "", fmt.Errorf("bad option %q (want key=value)", s)
	}
	return s[:i], s[i+1:], nil
}

func parseASList(val string) ([]int, error) {
	parts := strings.Split(val, ",")
	seen := make(map[int]bool, len(parts))
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		id, err := strconv.Atoi(p)
		if err != nil || id < 0 {
			return nil, fmt.Errorf("bad AS id %q", p)
		}
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out, nil
}

// Format renders the schedule back to its line format; Parse(Format(s))
// reproduces a parsed schedule exactly (the fuzz round-trip contract).
func Format(s Schedule) string {
	var b strings.Builder
	for _, w := range s.Windows {
		switch w.Kind {
		case ASPartition:
			fmt.Fprintf(&b, "partition %s %s as=%s\n",
				ftime(w.Start), ftime(w.End), asList(w.ASes))
		case LossBurst:
			fmt.Fprintf(&b, "loss %s %s rate=%s",
				ftime(w.Start), ftime(w.End),
				strconv.FormatFloat(w.Loss, 'g', -1, 64))
			if len(w.ASes) > 0 {
				fmt.Fprintf(&b, " as=%s", asList(w.ASes))
			}
			b.WriteByte('\n')
		case CrashWave:
			fmt.Fprintf(&b, "crash %s n=%d", ftime(w.Start), w.Crash)
			if w.Revive {
				fmt.Fprintf(&b, " revive=%s", ftime(w.End))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func ftime(t sim.Time) string { return strconv.FormatFloat(float64(t), 'g', -1, 64) }

func asList(ids []int) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.Itoa(id)
	}
	return strings.Join(parts, ",")
}

// GenConfig tunes Generate.
type GenConfig struct {
	// Horizon bounds every window (required > 0).
	Horizon sim.Time
	// ASes is the pool partition cuts and scoped bursts draw from
	// (required when Partitions or Bursts > 0).
	ASes []int
	// Partitions, Bursts, Waves count windows of each kind.
	Partitions, Bursts, Waves int
	// MaxLoss caps burst rates (default 0.8).
	MaxLoss float64
	// MaxCrash caps wave sizes (default 3).
	MaxCrash int
}

// Generate draws a valid schedule from the seeded stream — the same
// stream state always produces the same campaign. Windows come out
// sorted by start time.
func Generate(r *rand.Rand, cfg GenConfig) Schedule {
	if cfg.Horizon <= 0 {
		panic("chaos: Generate needs a positive horizon")
	}
	if (cfg.Partitions > 0 || cfg.Bursts > 0) && len(cfg.ASes) == 0 {
		panic("chaos: Generate needs AS ids for partitions/bursts")
	}
	if cfg.MaxLoss <= 0 || cfg.MaxLoss > 1 {
		cfg.MaxLoss = 0.8
	}
	if cfg.MaxCrash < 1 {
		cfg.MaxCrash = 3
	}
	h := float64(cfg.Horizon)
	var s Schedule
	for i := 0; i < cfg.Partitions; i++ {
		start := r.Float64() * 0.6 * h
		dur := (0.05 + 0.25*r.Float64()) * h
		s.Windows = append(s.Windows, Window{
			Kind:  ASPartition,
			Start: sim.Time(start),
			End:   sim.Time(start + dur),
			ASes:  pickASes(r, cfg.ASes, 1+r.Intn(max(1, len(cfg.ASes)/2))),
		})
	}
	for i := 0; i < cfg.Bursts; i++ {
		start := r.Float64() * 0.6 * h
		dur := (0.05 + 0.2*r.Float64()) * h
		w := Window{
			Kind:  LossBurst,
			Start: sim.Time(start),
			End:   sim.Time(start + dur),
			Loss:  0.1 + (cfg.MaxLoss-0.1)*r.Float64(),
		}
		if r.Float64() < 0.5 {
			w.ASes = pickASes(r, cfg.ASes, 1+r.Intn(max(1, len(cfg.ASes)/2)))
		}
		s.Windows = append(s.Windows, w)
	}
	for i := 0; i < cfg.Waves; i++ {
		at := r.Float64() * 0.7 * h
		w := Window{
			Kind:  CrashWave,
			Start: sim.Time(at),
			End:   sim.Time(at),
			Crash: 1 + r.Intn(cfg.MaxCrash),
		}
		if r.Float64() < 0.5 {
			w.Revive = true
			w.End = sim.Time(at + (0.1+0.2*r.Float64())*h)
		}
		s.Windows = append(s.Windows, w)
	}
	sort.SliceStable(s.Windows, func(i, j int) bool {
		return s.Windows[i].Start < s.Windows[j].Start
	})
	return s
}

func pickASes(r *rand.Rand, pool []int, k int) []int {
	perm := r.Perm(len(pool))
	if k > len(pool) {
		k = len(pool)
	}
	out := make([]int, 0, k)
	for _, idx := range perm[:k] {
		out = append(out, pool[idx])
	}
	sort.Ints(out)
	return out
}
