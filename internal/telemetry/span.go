package telemetry

import (
	"fmt"
	"sort"
	"strings"

	"unap2p/internal/metrics"
	"unap2p/internal/sim"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

// Span is one timed operation on the simulated timeline, possibly with
// nested child spans — a Kademlia lookup is a span whose children are the
// per-hop RPC spans; a Gnutella flood is a span fanning out per branch.
type Span struct {
	// Name identifies the operation ("lookup", "send:ping", …).
	Name string
	// Start and End bound the span in simulated time.
	Start, End sim.Time
	// Note carries free-form detail ("h3→h17 64B", "dropped").
	Note string

	children []*Span
	open     bool
}

// Duration returns the span's total simulated duration.
func (s *Span) Duration() sim.Duration { return s.End - s.Start }

// SelfDuration returns the span's duration minus its children's — the
// time unaccounted for by nested operations.
func (s *Span) SelfDuration() sim.Duration {
	d := s.Duration()
	for _, c := range s.children {
		d -= c.Duration()
	}
	if d < 0 {
		d = 0
	}
	return d
}

// Children returns the nested spans in start order.
func (s *Span) Children() []*Span { return s.children }

// SpanTracer builds span trees over simulated time. Spans nest by
// Begin/End pairing (a stack), so instrumented code reads like
// structured logging:
//
//	sp := tracer.Begin("lookup")
//	… nested operations open child spans …
//	tracer.End(sp)
//
// Because synchronous overlay code does not advance the kernel clock
// between its own sends, the tracer keeps a virtual offset advanced by
// Advance (the traced Messenger advances it by each operation's
// latency); spans therefore measure accumulated network latency — the
// "where did the latency go" answer — even on kernel-less transports.
type SpanTracer struct {
	clock  func() sim.Time
	offset sim.Duration
	roots  []*Span
	stack  []*Span
	count  int
}

// NewSpanTracer returns a tracer reading time from clock (typically
// sim.Kernel.Clock()); a nil clock starts from time 0 and advances only
// through Advance.
func NewSpanTracer(clock func() sim.Time) *SpanTracer {
	if clock == nil {
		clock = func() sim.Time { return 0 }
	}
	return &SpanTracer{clock: clock}
}

// Now returns the tracer's current time: the base clock plus the virtual
// offset.
func (t *SpanTracer) Now() sim.Time { return t.clock() + t.offset }

// Advance moves the virtual offset forward by d (negative d is ignored).
func (t *SpanTracer) Advance(d sim.Duration) {
	if d > 0 {
		t.offset += d
	}
}

// Begin opens a span as a child of the innermost open span (or a new
// root) and returns it.
func (t *SpanTracer) Begin(name string) *Span {
	s := &Span{Name: name, Start: t.Now(), open: true}
	if n := len(t.stack); n > 0 {
		p := t.stack[n-1]
		p.children = append(p.children, s)
	} else {
		t.roots = append(t.roots, s)
	}
	t.stack = append(t.stack, s)
	t.count++
	return s
}

// End closes span s, and any still-open descendants, at the current
// time. Ending a span that is not on the stack is a no-op.
func (t *SpanTracer) End(s *Span) {
	idx := -1
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == s {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	now := t.Now()
	for i := len(t.stack) - 1; i >= idx; i-- {
		t.stack[i].End = now
		t.stack[i].open = false
	}
	t.stack = t.stack[:idx]
}

// Roots returns the completed and in-progress top-level spans.
func (t *SpanTracer) Roots() []*Span { return t.roots }

// Count reports the number of spans begun.
func (t *SpanTracer) Count() int { return t.count }

// SpanStat aggregates spans sharing a name.
type SpanStat struct {
	Name  string
	Count int
	// Total sums span durations; Self sums durations net of children.
	Total, Self sim.Duration
}

// Breakdown aggregates every span by name, sorted by descending total
// duration (ties by name) — the per-query latency breakdown table.
func (t *SpanTracer) Breakdown() []SpanStat {
	acc := map[string]*SpanStat{}
	var walk func(*Span)
	walk = func(s *Span) {
		st, ok := acc[s.Name]
		if !ok {
			st = &SpanStat{Name: s.Name}
			acc[s.Name] = st
		}
		st.Count++
		st.Total += s.Duration()
		st.Self += s.SelfDuration()
		for _, c := range s.children {
			walk(c)
		}
	}
	for _, r := range t.roots {
		walk(r)
	}
	out := make([]SpanStat, 0, len(acc))
	for _, st := range acc {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Render formats the span forest as an indented tree with durations —
// the human-readable "where did the latency go" view.
func (t *SpanTracer) Render() string {
	var b strings.Builder
	var walk func(s *Span, depth int)
	walk = func(s *Span, depth int) {
		fmt.Fprintf(&b, "%s%s %.1fms", strings.Repeat("  ", depth), s.Name, float64(s.Duration()))
		if s.Note != "" {
			fmt.Fprintf(&b, " (%s)", s.Note)
		}
		b.WriteByte('\n')
		for _, c := range s.children {
			walk(c, depth+1)
		}
	}
	for _, r := range t.roots {
		walk(r, 0)
	}
	return b.String()
}

// EmitTo records every completed span as a CatSpan event on rec, start-
// ordered depth-first, with Detail holding the parent path — so span
// trees persist into run files.
func (t *SpanTracer) EmitTo(rec *Recorder) {
	var walk func(s *Span, path string)
	walk = func(s *Span, path string) {
		if !s.open {
			rec.Record(Event{
				At: s.Start, Cat: CatSpan, Type: s.Name,
				From: -1, To: -1,
				Latency: s.Duration(), Detail: path,
			})
		}
		child := s.Name
		if path != "" {
			child = path + "/" + s.Name
		}
		for _, c := range s.children {
			walk(c, child)
		}
	}
	for _, r := range t.roots {
		walk(r, "")
	}
}

// tracedMessenger wraps a Messenger so every operation opens a span and
// advances the tracer's virtual clock by the operation's latency.
type tracedMessenger struct {
	inner  transport.Messenger
	tracer *SpanTracer
}

// TraceMessenger returns a Messenger that mirrors m while recording a
// span per Send/RoundTrip/Probe on tr. Handing it to an overlay yields
// per-query span trees without touching protocol code:
//
//	tr := telemetry.NewSpanTracer(nil)
//	d := kademlia.New(telemetry.TraceMessenger(msgr, tr), sel, cfg, rng)
//	sp := tr.Begin("lookup"); d.Lookup(…); tr.End(sp)
func TraceMessenger(m transport.Messenger, tr *SpanTracer) transport.Messenger {
	return &tracedMessenger{inner: m, tracer: tr}
}

func (t *tracedMessenger) Underlay() *underlay.Network { return t.inner.Underlay() }
func (t *tracedMessenger) Kernel() *sim.Kernel         { return t.inner.Kernel() }

func (t *tracedMessenger) span(name string, from, to *underlay.Host, bytes uint64,
	op func() transport.Result) transport.Result {
	sp := t.tracer.Begin(name)
	sp.Note = fmt.Sprintf("h%d→h%d %dB", hostID(from), hostID(to), bytes)
	res := op()
	if !res.OK {
		sp.Note += " dropped"
	}
	t.tracer.Advance(res.Latency)
	t.tracer.End(sp)
	return res
}

func (t *tracedMessenger) Send(from, to *underlay.Host, bytes uint64, msgType string) transport.Result {
	return t.span("send:"+msgType, from, to, bytes, func() transport.Result {
		return t.inner.Send(from, to, bytes, msgType)
	})
}

func (t *tracedMessenger) RoundTrip(from, to *underlay.Host, reqBytes, respBytes uint64,
	reqType, respType string) transport.Result {
	return t.span("rpc:"+reqType, from, to, reqBytes, func() transport.Result {
		return t.inner.RoundTrip(from, to, reqBytes, respBytes, reqType, respType)
	})
}

func (t *tracedMessenger) Probe(from, to *underlay.Host, bytes uint64) transport.Result {
	return t.span("probe", from, to, bytes, func() transport.Result {
		return t.inner.Probe(from, to, bytes)
	})
}

func (t *tracedMessenger) Counters() *metrics.CounterSet { return t.inner.Counters() }

func (t *tracedMessenger) MatrixFor(msgTypes ...string) *metrics.TrafficMatrix {
	return t.inner.MatrixFor(msgTypes...)
}
