package telemetry

import (
	"strings"
	"testing"

	"unap2p/internal/metrics"
)

func TestSnapshotFlatten(t *testing.T) {
	s := newMetricsSnapshot()
	s.Counters["msgs"] = 10
	s.Gauges["g"] = 1.5
	h := metrics.NewLatencyHistogram()
	h.Observe(4)
	h.Observe(8)
	s.Histograms["lat"] = h.Snapshot()
	m := metrics.NewTrafficMatrix()
	m.Add(1, 1, 60)
	m.Add(1, 2, 40)
	s.Matrices["traffic"] = m.Snapshot()

	flat := s.Flatten()
	checks := map[string]float64{
		"msgs":                   10,
		"g":                      1.5,
		"lat.n":                  2,
		"lat.mean":               6,
		"lat.max":                8,
		"traffic.total":          100,
		"traffic.intra":          60,
		"traffic.intra_fraction": 0.6,
	}
	for k, want := range checks {
		if got, ok := flat[k]; !ok || got != want {
			t.Errorf("flat[%q] = %v (present %v), want %v", k, got, ok, want)
		}
	}
}

func TestPrometheusText(t *testing.T) {
	s := newMetricsSnapshot()
	s.Counters["transport:msgs:ping"] = 42
	s.Gauges["kernel:now_ms"] = 1234.5
	h := metrics.NewHistogram([]float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	s.Histograms["lat"] = h.Snapshot()
	m := metrics.NewTrafficMatrix()
	m.Add(1, 2, 100)
	s.Matrices["tm"] = m.Snapshot()

	text := s.PrometheusText()
	for _, want := range []string{
		"# TYPE unap2p_transport_msgs_ping_total counter",
		"unap2p_transport_msgs_ping_total 42",
		"# TYPE unap2p_kernel_now_ms gauge",
		"unap2p_kernel_now_ms 1234.5",
		"# TYPE unap2p_lat histogram",
		`unap2p_lat_bucket{le="1"} 1`,
		`unap2p_lat_bucket{le="10"} 2`,
		`unap2p_lat_bucket{le="+Inf"} 3`,
		"unap2p_lat_sum 55.5",
		"unap2p_lat_count 3",
		`unap2p_tm_bytes{scope="total"} 100`,
		`unap2p_tm_bytes{scope="intra"} 0`,
		`unap2p_tm_bytes{scope="inter"} 100`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus text missing %q\n%s", want, text)
		}
	}
}
