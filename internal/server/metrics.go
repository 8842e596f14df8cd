// In-process request metrics, exposed at GET /v1/metrics. Hand-rolled
// counters (stdlib-only) rather than a metrics dependency: requests and
// errors by endpoint, plus cumulative latency for mean-latency readouts.

package server

import (
	"net/http"
	"sync"
	"time"
)

// unmatchedKey collects every request no registered route matched (404s
// and 405s), so junk paths cannot mint metrics keys.
const unmatchedKey = "unmatched"

// metrics accumulates per-endpoint counters. Safe for concurrent use.
type metrics struct {
	mu    sync.Mutex
	start time.Time
	byKey map[string]*endpointStats
}

type endpointStats struct {
	Requests     int64
	Errors       int64 // responses with status >= 400
	TotalLatency time.Duration
}

func newMetrics() *metrics {
	return &metrics{start: time.Now(), byKey: make(map[string]*endpointStats)}
}

// observe records one served request.
func (m *metrics) observe(key string, status int, elapsed time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.byKey[key]
	if st == nil {
		st = &endpointStats{}
		m.byKey[key] = st
	}
	st.Requests++
	if status >= 400 {
		st.Errors++
	}
	st.TotalLatency += elapsed
}

// EndpointMetrics is one endpoint's row in the /v1/metrics body.
type EndpointMetrics struct {
	Requests      int64   `json:"requests"`
	Errors        int64   `json:"errors"`
	MeanLatencyMS float64 `json:"mean_latency_ms"`
}

// MetricsResponse is the /v1/metrics body.
type MetricsResponse struct {
	UptimeSeconds float64                    `json:"uptime_seconds"`
	Endpoints     map[string]EndpointMetrics `json:"endpoints"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.metrics.mu.Lock()
	out := MetricsResponse{
		UptimeSeconds: time.Since(s.metrics.start).Seconds(),
		Endpoints:     make(map[string]EndpointMetrics, len(s.metrics.byKey)),
	}
	for key, st := range s.metrics.byKey {
		em := EndpointMetrics{Requests: st.Requests, Errors: st.Errors}
		if st.Requests > 0 {
			em.MeanLatencyMS = st.TotalLatency.Seconds() * 1e3 / float64(st.Requests)
		}
		out.Endpoints[key] = em
	}
	s.metrics.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}
