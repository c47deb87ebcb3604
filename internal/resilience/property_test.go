package resilience

import (
	"math"
	"testing"
	"testing/quick"

	"unap2p/internal/sim"
	"unap2p/internal/underlay"
)

// Property tests for the failure detector and its backoff, run through
// testing/quick over randomized configurations. Each table entry is one
// property; quick drives it with arbitrary inputs that the property
// normalizes into a valid configuration, so shrinking stays meaningful.

// normBackoff maps arbitrary ints/floats into a valid Backoff.
func normBackoff(seed int64, base, max uint16, factor, jitter float64) Backoff {
	b := Backoff{
		Base:   sim.Duration(1 + base%5000),
		Factor: 1 + math.Abs(math.Mod(factor, 3)),     // [1,4)
		Jitter: math.Abs(math.Mod(jitter, 0.95)),      // [0,0.95)
		Rand:   sim.NewSource(seed).Stream("backoff"), // jitter draws
	}
	if max%3 != 0 { // a third of configs run uncapped
		b.Max = b.Base + sim.Duration(max%10000)
	}
	return b
}

func TestBackoffProperties(t *testing.T) {
	cases := []struct {
		name string
		prop interface{}
	}{
		{
			// Nominal delays never shrink as the failure streak grows, and
			// never exceed the cap.
			name: "nominal monotone and capped",
			prop: func(seed int64, base, max uint16, factor, jitter float64) bool {
				b := normBackoff(seed, base, max, factor, jitter)
				prev := sim.Duration(0)
				for n := 1; n <= 24; n++ {
					d := b.Nominal(n)
					if d < prev {
						return false
					}
					if b.Max > 0 && d > b.Max {
						return false
					}
					prev = d
				}
				return true
			},
		},
		{
			// Every jittered draw falls inside the advertised Bounds, and
			// the bounds themselves are ordered around the nominal value.
			name: "jittered delay within bounds",
			prop: func(seed int64, base, max uint16, factor, jitter float64) bool {
				b := normBackoff(seed, base, max, factor, jitter)
				for n := 1; n <= 16; n++ {
					lo, hi := b.Bounds(n)
					nom := b.Nominal(n)
					if lo > nom || hi < nom {
						return false
					}
					for draw := 0; draw < 8; draw++ {
						if d := b.Delay(n); d < lo || d > hi {
							return false
						}
					}
				}
				return true
			},
		},
		{
			// A jitter-free backoff is exactly its nominal schedule — no
			// hidden RNG draws.
			name: "zero jitter is deterministic",
			prop: func(base, max uint16, factor float64) bool {
				b := normBackoff(1, base, max, factor, 0)
				b.Jitter = 0
				b.Rand = nil // Delay must not touch it
				for n := 1; n <= 16; n++ {
					if b.Delay(n) != b.Nominal(n) {
						return false
					}
				}
				return true
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if err := quick.Check(tc.prop, &quick.Config{MaxCount: 200}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// detCase is one randomized detector scenario: a small world, a single
// watch, a normalized config.
func detScenario(seed int64, suspectAfter, evictAfter uint8, partition bool) (*Detector, *sim.Kernel, *underlay.Host) {
	_, hosts, src, k, tr := testWorld(seed)
	if partition {
		// Total partition: no fd traffic crosses, in either direction.
		tr.Drop = func(from, to *underlay.Host) bool { return true }
	}
	cfg := DefaultConfig()
	cfg.SuspectAfter = 1 + int(suspectAfter%4)
	cfg.EvictAfter = cfg.SuspectAfter + int(evictAfter%4)
	cfg.Backoff.Rand = src.Stream("det-backoff")
	d := New(tr, k, cfg)
	target := hosts[1+int(((seed%10)+10)%10)]
	d.Watch(hosts[0], target)
	return d, k, target
}

func TestDetectorProperties(t *testing.T) {
	cases := []struct {
		name string
		prop interface{}
	}{
		{
			// With zero loss and every host up, the detector never issues
			// a verdict no matter how trigger-happy the config is.
			name: "no false suspicion at zero loss",
			prop: func(seed int64, suspectAfter, evictAfter uint8) bool {
				d, k, _ := detScenario(seed, suspectAfter, evictAfter, false)
				k.Run(60 * sim.Second)
				return len(d.Suspected()) == 0 && len(d.Evicted()) == 0 &&
					d.Counters().Value("ping_fail") == 0 &&
					d.Counters().Value("ping") > 0
			},
		},
		{
			// Under a total partition the watched peer is eventually
			// suspected and then evicted, for every config.
			name: "eventual suspicion and eviction under total partition",
			prop: func(seed int64, suspectAfter, evictAfter uint8) bool {
				d, k, target := detScenario(seed, suspectAfter, evictAfter, true)
				k.Run(10 * 60 * sim.Second)
				ev := d.Evicted()
				return d.Counters().Value("suspect") == 1 &&
					len(ev) == 1 && ev[0] == target.ID &&
					d.Watching() == 0
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if err := quick.Check(tc.prop, &quick.Config{MaxCount: 25}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
