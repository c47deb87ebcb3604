package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// Spans recorded from outside cannot split the time inside one call
// (sim.run, experiments.run, lookup) between the layers it passes
// through. A sampling CPU profile can: the traced rounds run under
// runtime/pprof, and every sample is charged to the layer of the
// innermost frame that belongs to this repository — so the allocation,
// map and socket work a layer triggers in the runtime counts as that
// layer's. Samples with no repository frame at all (garbage-collector
// workers, the scheduler) are "runtime".

// cpuLayers are the layers a sample can be charged to; each is reported
// as cpu_share.<layer>, its share of the traced rounds' CPU time.
var cpuLayers = []string{
	"sim", "transport", "metrics", "core", "coords", "overlay", "underlay",
	"megascale", "experiments", "nettransport", "livenode", "runtime", "other",
}

const modulePrefix = "unap2p/internal/"

// layerOfFunc names the layer a function belongs to: the first path
// segment under internal/ when it is one of cpuLayers, "other" for the
// rest of the repository and for the benchmark's own code, "" for
// anything else (runtime, standard library).
func layerOfFunc(name string) string {
	if strings.HasPrefix(name, "main.") {
		return "other"
	}
	rest, ok := strings.CutPrefix(name, modulePrefix)
	if !ok {
		return ""
	}
	seg := rest[:strings.IndexAny(rest+".", "/.")]
	for _, l := range cpuLayers {
		if l == seg {
			return l
		}
	}
	return "other"
}

// cpuProfile collects CPU time per layer over the rounds it wraps.
type cpuProfile struct {
	buf bytes.Buffer
	// ns is the CPU time charged to each layer so far, raw the last
	// round's profile as runtime/pprof wrote it (gzipped protobuf).
	ns  map[string]float64
	raw []byte
}

func (p *cpuProfile) start() error {
	p.buf.Reset()
	return pprof.StartCPUProfile(&p.buf)
}

// stop ends the round's profile and adds it to the per-layer totals.
func (p *cpuProfile) stop() error {
	pprof.StopCPUProfile()
	p.raw = append([]byte(nil), p.buf.Bytes()...)
	if p.ns == nil {
		p.ns = map[string]float64{}
	}
	return chargeProfile(p.raw, p.ns)
}

// shares is each layer's share of all CPU time charged so far.
func (p *cpuProfile) shares() map[string]float64 {
	var total float64
	for _, v := range p.ns {
		total += v
	}
	out := map[string]float64{}
	for _, l := range cpuLayers {
		out["cpu_share."+l] = ratio(p.ns[l], total)
	}
	return out
}

// chargeProfile decodes one gzipped pprof profile and adds every
// sample's CPU nanoseconds to the layer of its innermost repository
// frame. Only the handful of profile.proto fields this needs are read:
// Profile{sample=2, location=4, function=5, string_table=6},
// Sample{location_id=1, value=2}, Location{id=1, line=4},
// Line{function_id=1}, Function{id=1, name=2}.
func chargeProfile(gz []byte, ns map[string]float64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}

	type sample struct {
		locs []uint64
		ns   float64
	}
	var (
		samples  []sample
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost first
		funcName = map[uint64]uint64{}   // function id → string-table index
		strs     []string
	)
	err = pbFields(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case 2:
			var s sample
			var values []uint64
			if err := pbFields(msg, func(num int, v uint64, msg []byte) error {
				switch num {
				case 1:
					return pbUints(v, msg, &s.locs)
				case 2:
					return pbUints(v, msg, &values)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(values) > 0 { // Go's CPU profiles carry [samples, cpu nanoseconds]
				s.ns = float64(int64(values[len(values)-1]))
			}
			samples = append(samples, s)
		case 4:
			var id uint64
			var fns []uint64
			if err := pbFields(msg, func(num int, v uint64, msg []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return pbFields(msg, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5:
			var id, name uint64
			if err := pbFields(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}

	layerOfLoc := map[uint64]string{}
	for id, fns := range locFuncs {
		for _, fn := range fns {
			if i := funcName[fn]; i < uint64(len(strs)) {
				if l := layerOfFunc(strs[i]); l != "" {
					layerOfLoc[id] = l
					break
				}
			}
		}
	}
	for _, s := range samples {
		layer := "runtime"
		for _, loc := range s.locs { // leaf first
			if l := layerOfLoc[loc]; l != "" {
				layer = l
				break
			}
		}
		ns[layer] += s.ns
	}
	return nil
}

var errTruncated = errors.New("truncated protobuf")

// pbFields calls fn for every field of one protobuf message: with the
// value of a varint or fixed-width field in v, or with the bytes of a
// length-delimited field in msg.
func pbFields(b []byte, fn func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		var v uint64
		var msg []byte
		switch key & 7 {
		case 0:
			if v, n = pbVarint(b); n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			width := 8
			if key&7 == 5 {
				width = 4
			}
			if len(b) < width {
				return errTruncated
			}
			for i := width - 1; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[width:]
		case 2:
			size, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < size {
				return errTruncated
			}
			msg, b = b[n:n+int(size)], b[n+int(size):]
		default:
			return fmt.Errorf("protobuf wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, msg); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends a repeated integer field's values: the whole packed
// run when msg is set, the single value v otherwise.
func pbUints(v uint64, msg []byte, out *[]uint64) error {
	if msg == nil {
		*out = append(*out, v)
		return nil
	}
	for len(msg) > 0 {
		x, n := pbVarint(msg)
		if n == 0 {
			return errTruncated
		}
		*out = append(*out, x)
		msg = msg[n:]
	}
	return nil
}

// pbVarint decodes one base-128 varint and returns it with its length,
// or length 0 when b ends inside it.
func pbVarint(b []byte) (v uint64, n int) {
	for i, c := range b {
		if i == 10 {
			break
		}
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
