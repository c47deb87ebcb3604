package churn

import (
	"math"
	"testing"

	"unap2p/internal/sim"
	"unap2p/internal/topology"
	"unap2p/internal/underlay"
)

func buildHosts() (*underlay.Network, []*underlay.Host) {
	net := topology.Star(4, topology.DefaultConfig())
	hosts := topology.PlaceHosts(net, 20, false, 1, 2, sim.NewSource(1).Stream("churn-place"))
	return net, hosts
}

func TestExponentialModel(t *testing.T) {
	m := Exponential{MeanOn: 100, MeanOff: 50}
	r := sim.NewSource(2).Stream("exp")
	var onSum, offSum sim.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		onSum += m.SessionLength(r)
		offSum += m.OffTime(r)
	}
	if math.Abs(float64(onSum)/n-100) > 5 {
		t.Fatalf("mean on = %v", float64(onSum)/n)
	}
	if math.Abs(float64(offSum)/n-50) > 3 {
		t.Fatalf("mean off = %v", float64(offSum)/n)
	}
}

func TestWeibullModelHeavyTail(t *testing.T) {
	m := Weibull{ShapeOn: 0.5, ScaleOn: 100, ShapeOff: 1, ScaleOff: 50}
	r := sim.NewSource(3).Stream("weib")
	var max sim.Duration
	var sum sim.Duration
	const n = 5000
	for i := 0; i < n; i++ {
		d := m.SessionLength(r)
		if d <= 0 {
			t.Fatal("non-positive session")
		}
		sum += d
		if d > max {
			max = d
		}
	}
	if float64(max) < 10*float64(sum)/n {
		t.Fatalf("no heavy tail: max %v vs mean %v", max, float64(sum)/n)
	}
}

func TestDriverCyclesHosts(t *testing.T) {
	_, hosts := buildHosts()
	k := sim.NewKernel()
	var joins, leaves int
	d := &Driver{
		Kernel:   k,
		ModelFor: func(*underlay.Host) Model { return Exponential{MeanOn: 100, MeanOff: 100} },
		Rand:     sim.NewSource(4).Stream("drv"),
		OnJoin:   func(*underlay.Host) { joins++ },
		OnLeave:  func(*underlay.Host) { leaves++ },
	}
	d.Start(hosts)
	k.Run(10 * sim.Second)
	if leaves == 0 || joins == 0 {
		t.Fatalf("no churn: joins=%d leaves=%d", joins, leaves)
	}
	if uint64(joins) != d.Joins || uint64(leaves) != d.Leaves {
		t.Fatal("driver counters disagree with callbacks")
	}
	// Every leave precedes its host's next join: counts may differ by at
	// most the population size.
	if leaves < joins-len(hosts) || leaves > joins+len(hosts) {
		t.Fatalf("implausible join/leave balance: %d/%d", joins, leaves)
	}
}

func TestDriverHalfOnlineEquilibrium(t *testing.T) {
	_, hosts := buildHosts()
	k := sim.NewKernel()
	d := &Driver{
		Kernel:   k,
		ModelFor: func(*underlay.Host) Model { return Exponential{MeanOn: 200, MeanOff: 200} },
		Rand:     sim.NewSource(5).Stream("drv2"),
	}
	d.Start(hosts)
	k.Run(20 * sim.Second)
	up := 0
	for _, h := range hosts {
		if h.Up {
			up++
		}
	}
	// Equal on/off means ≈50% online; allow wide slack for 60 hosts.
	if up < len(hosts)/5 || up > 4*len(hosts)/5 {
		t.Fatalf("online = %d of %d, want ≈ half", up, len(hosts))
	}
}

func TestDriverStartsOfflineHosts(t *testing.T) {
	_, hosts := buildHosts()
	for _, h := range hosts {
		h.Up = false
	}
	k := sim.NewKernel()
	d := &Driver{
		Kernel:   k,
		ModelFor: func(*underlay.Host) Model { return Exponential{MeanOn: 1000, MeanOff: 10} },
		Rand:     sim.NewSource(6).Stream("drv3"),
	}
	d.Start(hosts)
	k.Run(sim.Second)
	up := 0
	for _, h := range hosts {
		if h.Up {
			up++
		}
	}
	if up < len(hosts)*9/10 {
		t.Fatalf("offline hosts did not rejoin: %d/%d up", up, len(hosts))
	}
}
