// In-process request metrics, exposed at GET /v1/metrics. Hand-rolled
// counters (stdlib-only) rather than a metrics dependency: requests and
// errors by endpoint, plus cumulative latency for mean-latency readouts.

package server

import (
	"net/http"
	"sync/atomic"
	"time"
)

// unmatchedKey collects every request no registered route matched (404s
// and 405s), so junk paths cannot mint metrics keys.
const unmatchedKey = "unmatched"

// metrics accumulates per-endpoint counters. The table is filled while New
// registers the routes and only read afterwards, and the counters are
// atomics, so recording a request takes no lock.
type metrics struct {
	start   time.Time
	byRoute map[string]*endpointStats // registered patterns + unmatchedKey
}

type endpointStats struct {
	requests       atomic.Int64
	errors         atomic.Int64 // responses with status >= 400
	totalLatencyNS atomic.Int64
}

func newMetrics() *metrics {
	return &metrics{start: time.Now(), byRoute: map[string]*endpointStats{unmatchedKey: {}}}
}

// observe records one served request under the route pattern ServeMux
// matched ("" when none did).
func (m *metrics) observe(pattern string, status int, elapsed time.Duration) {
	st := m.byRoute[pattern]
	if st == nil {
		st = m.byRoute[unmatchedKey]
	}
	if status >= 400 {
		st.errors.Add(1)
	}
	st.totalLatencyNS.Add(int64(elapsed))
	st.requests.Add(1)
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

// handleMetrics lists every route that has served a request. The three
// counters of a row are read one by one, so a row may run a request or two
// ahead of itself while traffic is in flight.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	out := MetricsResponse{
		UptimeSeconds: time.Since(s.metrics.start).Seconds(),
		Endpoints:     make(map[string]EndpointMetrics, len(s.metrics.byRoute)),
	}
	for key, st := range s.metrics.byRoute {
		requests := st.requests.Load()
		if requests == 0 {
			continue
		}
		out.Endpoints[key] = EndpointMetrics{
			Requests:      requests,
			Errors:        st.errors.Load(),
			MeanLatencyMS: time.Duration(st.totalLatencyNS.Load()).Seconds() * 1e3 / float64(requests),
		}
	}
	writeJSON(w, http.StatusOK, out)
}
