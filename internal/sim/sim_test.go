package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKernelOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.Schedule(30, func() { got = append(got, 3) })
	k.Schedule(10, func() { got = append(got, 1) })
	k.Schedule(20, func() { got = append(got, 2) })
	k.Drain()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 30 {
		t.Fatalf("Now = %v, want 30", k.Now())
	}
}

func TestKernelTieBreakFIFO(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		k.Schedule(5, func() { got = append(got, i) })
	}
	k.Drain()
	for i := range got {
		if got[i] != i {
			t.Fatalf("equal-time events fired out of schedule order at %d: %v", i, got[:i+1])
		}
	}
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.Schedule(10, func() { fired++ })
	k.Schedule(50, func() { fired++ })
	end := k.Run(25)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if end != 25 {
		t.Fatalf("end = %v, want 25", end)
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", k.Pending())
	}
	k.Drain()
	if fired != 2 {
		t.Fatalf("after drain fired = %d, want 2", fired)
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := NewKernel()
	var times []Time
	k.Schedule(10, func() {
		times = append(times, k.Now())
		k.Schedule(5, func() { times = append(times, k.Now()) })
	})
	k.Drain()
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Fatalf("times = %v, want [10 15]", times)
	}
}

func TestKernelPastEventsFireNow(t *testing.T) {
	k := NewKernel()
	var at Time = -1
	k.Schedule(10, func() {
		k.At(3, func() { at = k.Now() }) // in the past
	})
	k.Drain()
	if at != 10 {
		t.Fatalf("past event fired at %v, want 10", at)
	}
}

func TestKernelNegativeDelayClamped(t *testing.T) {
	k := NewKernel()
	ran := false
	k.Schedule(-5, func() { ran = true })
	k.Drain()
	if !ran {
		t.Fatal("negative-delay event never ran")
	}
}

func TestTimerCancel(t *testing.T) {
	k := NewKernel()
	ran := false
	tm := k.Schedule(10, func() { ran = true })
	if !tm.Cancel() {
		t.Fatal("first Cancel returned false")
	}
	if tm.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	k.Drain()
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestTimerCancelAfterFire(t *testing.T) {
	k := NewKernel()
	tm := k.Schedule(1, func() {})
	k.Drain()
	if tm.Cancel() {
		t.Fatal("Cancel after fire returned true")
	}
}

func TestStop(t *testing.T) {
	k := NewKernel()
	n := 0
	k.Schedule(1, func() { n++; k.Stop() })
	k.Schedule(2, func() { n++ })
	k.Run(100)
	if n != 1 {
		t.Fatalf("events after Stop ran: n=%d", n)
	}
}

func TestSourceDeterminism(t *testing.T) {
	a := NewSource(42).Stream("overlay")
	b := NewSource(42).Stream("overlay")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed+name streams diverged")
		}
	}
}

func TestSourceStreamIndependence(t *testing.T) {
	s := NewSource(42)
	a := s.Stream("a")
	b := s.Stream("b")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams 'a' and 'b' collide %d/100 times", same)
	}
}

func TestSourceForkIndependence(t *testing.T) {
	s := NewSource(7)
	a := s.Stream("x")
	b := s.Fork("child").Stream("x")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("fork stream collides with parent %d/100 times", same)
	}
}

func TestExpMean(t *testing.T) {
	r := NewSource(1).Stream("exp")
	var sum Duration
	const n = 20000
	for i := 0; i < n; i++ {
		sum += Exp(r, 100)
	}
	mean := float64(sum) / n
	if math.Abs(mean-100) > 5 {
		t.Fatalf("exp mean = %.2f, want ~100", mean)
	}
	if Exp(r, 0) != 0 || Exp(r, -3) != 0 {
		t.Fatal("non-positive mean should yield 0")
	}
}

func TestWeibullPositive(t *testing.T) {
	r := NewSource(1).Stream("weibull")
	for i := 0; i < 1000; i++ {
		if v := Weibull(r, 0.5, 100); v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("weibull draw %v out of range", v)
		}
	}
}

func TestZipfRange(t *testing.T) {
	r := NewSource(1).Stream("zipf")
	z := NewZipf(r, 1.0, 50)
	counts := make([]int, 50)
	for i := 0; i < 50000; i++ {
		k := z.Next()
		if k < 0 || k >= 50 {
			t.Fatalf("zipf rank %d out of [0,50)", k)
		}
		counts[k]++
	}
	if counts[0] <= counts[49] {
		t.Fatalf("zipf not skewed: rank0=%d rank49=%d", counts[0], counts[49])
	}
}

func TestZipfDegenerate(t *testing.T) {
	r := NewSource(1).Stream("zipf1")
	z := NewZipf(r, 1.2, 1)
	for i := 0; i < 100; i++ {
		if z.Next() != 0 {
			t.Fatal("single-item zipf must always return 0")
		}
	}
}

// Property: for any batch of non-negative delays, Drain fires them all in
// nondecreasing time order and ends at the max delay.
func TestQuickKernelMonotone(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel()
		var fired []Time
		var maxT Time
		for _, d := range delays {
			dt := Time(d)
			if dt > maxT {
				maxT = dt
			}
			k.Schedule(dt, func() { fired = append(fired, k.Now()) })
		}
		k.Drain()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(delays) == 0 || k.Now() == maxT
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: splitmix64 is injective on any sample we draw (it is a
// bijection), so distinct stream names should essentially never collide.
func TestQuickSplitmixNoTrivialCollisions(t *testing.T) {
	f := func(a, b uint64) bool {
		if a == b {
			return true
		}
		return splitmix64(a) != splitmix64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// NextAt peeks the earliest pending deadline without disturbing the
// queue — the wall-clock pacer's sleep target.
func TestKernelNextAt(t *testing.T) {
	k := NewKernel()
	if _, ok := k.NextAt(); ok {
		t.Fatal("NextAt on empty kernel reported an event")
	}
	k.At(30, func() {})
	k.At(10, func() {})
	tm := k.AtDaemon(5, func() {})
	if at, ok := k.NextAt(); !ok || at != 5 {
		t.Fatalf("NextAt = %v,%v want 5,true", at, ok)
	}
	tm.Cancel()
	if at, ok := k.NextAt(); !ok || at != 10 {
		t.Fatalf("NextAt after cancel = %v,%v want 10,true", at, ok)
	}
	k.Drain()
	if _, ok := k.NextAt(); ok {
		t.Fatal("NextAt after drain reported an event")
	}
}
