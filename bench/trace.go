package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. Host-clock spans are
// in seconds since the tracer started; sim-clock spans (per-lookup spans
// of the sharded simulations) are in simulated milliseconds and take no
// part in self-time arithmetic.
type span struct {
	Trace  string             `json:"trace"`
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Clock  string             `json:"clock"`
	Start  float64            `json:"start"`
	End    float64            `json:"end"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

const (
	clockHost = "host"
	clockSim  = "sim"
)

// tracer keeps spans in memory until the benchmark ends. A nil *tracer
// is the tracing-off path: every method is a no-op, so workloads call it
// unconditionally and the untraced run takes no clock readings for it.
type tracer struct {
	trace string
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// cpu is the sampling profile of the traced rounds (profile.go).
	cpu cpuProfile
}

func newTracer(trace string) *tracer { return &tracer{trace: trace, t0: time.Now()} }

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }

// begin opens a host-clock span under parent (0 = root) and returns its id.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Trace: t.trace, ID: id, Parent: parent, Name: name,
		Clock: clockHost, Start: start, End: start})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// attr attaches a numeric attribute to span id.
func (t *tracer) attr(id int, key string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	if s.Attrs == nil {
		s.Attrs = map[string]float64{}
	}
	s.Attrs[key] = v
}

// add appends already-timed spans (per-client or per-shard buffers that
// were filled without taking the tracer's lock) under parent.
func (t *tracer) add(parent int, name, clock string, recs []spanRec) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range recs {
		t.spans = append(t.spans, span{Trace: t.trace, ID: len(t.spans) + 1, Parent: parent,
			Name: name, Clock: clock, Start: r.start, End: r.end, Attrs: r.attrs})
	}
}

// spanRec is one buffered interval awaiting tracer.add.
type spanRec struct {
	start, end float64
	attrs      map[string]float64
}

// selfTimes returns, per host-clock span id, the span's duration minus
// the part of its interval that its direct host-clock children cover.
// Children may overlap each other (concurrent clients), so coverage is
// the union of their intervals clipped to the parent.
func selfTimes(spans []span) map[int]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Clock == clockHost {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[int]float64{}
	for _, s := range spans {
		if s.Clock != clockHost {
			continue
		}
		self[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is the length of [lo,hi] covered by the union of kids.
func covered(lo, hi float64, kids []span) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total float64
	edge := lo
	for _, k := range kids {
		a, b := k.Start, k.End
		if a < edge {
			a = edge
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			edge = b
		}
	}
	return total
}

// selfByName sums self time per span name over the subtree rooted at
// root (inclusive).
func selfByName(spans []span, root int) map[string]float64 {
	self := selfTimes(spans)
	under := map[int]bool{root: true}
	out := map[string]float64{}
	for _, s := range spans { // ids ascend, parents precede children
		if s.ID != root && !under[s.Parent] {
			continue
		}
		under[s.ID] = true
		if s.Clock == clockHost {
			out[s.Name] += self[s.ID]
		}
	}
	return out
}

// flush writes every span as one JSON line.
func (t *tracer) flush(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
