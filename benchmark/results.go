package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one metric. The two tables below are the only place a
// metric is defined: BENCHMARK.json repeats them (the smoke test holds
// the two together) and the README explains them.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher"
	Bound  float64 // end-to-end only: share of the base a later change may lose
}

// endToEndDefs are what a user of the server sees. Every workload emits
// every one, from the untraced phase.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"read_p95_ms", "ms", "lower", 0.25},
	{"read_mean_ms", "ms", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.20},
	{"live_heap_mb", "MB", "lower", 0.10},
}

// perLayerDefs are single layers' counts and times, from the traced
// pass, the stage replay, the probes and the counters round the untraced
// phase. A layer a workload leaves idle reports 0.
var perLayerDefs = []metricDef{
	{Name: "graph.extract_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.subgraph_nodes", Unit: "count", Better: "lower"},
	{Name: "graph.subgraph_edges", Unit: "count", Better: "lower"},
	{Name: "graph.upsert_us", Unit: "us", Better: "lower"},
	{Name: "graph.compact_ms", Unit: "ms", Better: "lower"},
	{Name: "markov.chain_build_us", Unit: "us", Better: "lower"},
	{Name: "markov.sweeps_ms", Unit: "ms", Better: "lower"},
	{Name: "markov.edge_visits", Unit: "count", Better: "lower"},
	{Name: "topk.select_us", Unit: "us", Better: "lower"},
	{Name: "server.handle_us", Unit: "us", Better: "lower"},
	{Name: "server.self_us", Unit: "us", Better: "lower"},
	{Name: "server.popularity_us", Unit: "us", Better: "lower"},
	{Name: "server.response_bytes", Unit: "count", Better: "lower"},
	{Name: "http.self_us", Unit: "us", Better: "lower"},
	{Name: "longtail.recommend_hit_us", Unit: "us", Better: "lower"},
	{Name: "longtail.recommend_miss_ms", Unit: "ms", Better: "lower"},
	{Name: "longtail.apply_rating_us", Unit: "us", Better: "lower"},
	{Name: "cache.hit_share", Unit: "share", Better: "higher"},
	{Name: "cache.fingerprint_hits", Unit: "count", Better: "higher"},
	{Name: "cache.fingerprint_rejects", Unit: "count", Better: "lower"},
	{Name: "cache.journal_overflows", Unit: "count", Better: "lower"},
	{Name: "cache.evictions", Unit: "count", Better: "lower"},
	{Name: "cache.shared", Unit: "count", Better: "higher"},
	{Name: "wal.append_fsync_us", Unit: "us", Better: "lower"},
	{Name: "wal.durable_seq", Unit: "count", Better: "higher"},
	{Name: "persist.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "persist.checkpoint_bytes", Unit: "count", Better: "lower"},
	{Name: "persist.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "client.read_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.write_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "client.write_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.gen_late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.achieved_rps", Unit: "1/s", Better: "higher"},
	{Name: "client.window_spread", Unit: "share", Better: "lower"},
	{Name: "client.error_share", Unit: "share", Better: "lower"},
	{Name: "replay.coverage", Unit: "share", Better: "higher"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}

// metricValue is one measured metric. Windows are the per-window values
// (or the set-up repeats) the value is read from, and Spread their
// quartile distance as a share of their median.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples int       `json:"samples,omitempty"`
	Spread  float64   `json:"spread"`
	Windows []float64 `json:"windows,omitempty"`
}

// opCount is requests sent, succeeded and failed in one part of a run.
type opCount struct {
	Sent      int `json:"sent"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

// workloadResult is everything one run of one workload reports.
type workloadResult struct {
	Name       string  `json:"name"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	CorpusHash string  `json:"corpus_fnv64"`
	OpsHash    string  `json:"ops_fnv64"`
	// Counts is keyed by part: phase, oracle, traced, acked_writes,
	// checkpoint.
	Counts map[string]opCount `json:"counts"`
	// Valid is false when a validity guard tripped; Invalid says which.
	// An invalid phase's numbers are printed but must not be compared.
	Valid    bool                   `json:"valid"`
	Invalid  []string               `json:"invalid,omitempty"`
	EndToEnd map[string]metricValue `json:"end_to_end"`
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`

	spans []span // the traced pass, for -trace-out
}

func newWorkloadResult(name string, opts runOptions) *workloadResult {
	return &workloadResult{Name: name, Seed: opts.seed, Seconds: opts.seconds.Seconds(), Valid: true,
		Counts: map[string]opCount{}, EndToEnd: map[string]metricValue{}}
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("benchmark: metric " + name + " is not defined")
}

// set records an end-to-end metric with the values it summarizes.
func (w *workloadResult) set(name string, value float64, windows []float64, samples int) {
	w.EndToEnd[name] = metricValue{Value: value, Unit: unitOf(endToEndDefs, name), Samples: samples,
		Spread: quartileSpread(windows), Windows: windows}
}

// layer records a per-layer metric.
func (w *workloadResult) layer(name string, value float64) {
	if w.PerLayer == nil {
		w.PerLayer = map[string]metricValue{}
	}
	w.PerLayer[name] = metricValue{Value: value, Unit: unitOf(perLayerDefs, name)}
}

func (w *workloadResult) count(part string, sent, failed int) {
	c := w.Counts[part]
	c.Sent += sent
	c.Failed += failed
	c.Succeeded = c.Sent - c.Failed
	w.Counts[part] = c
}

func (w *workloadResult) invalid(format string, args ...any) {
	w.Valid = false
	w.Invalid = append(w.Invalid, fmt.Sprintf(format, args...))
}

func (w *workloadResult) attempted() (sent, failed int) {
	for _, c := range w.Counts {
		sent += c.Sent
		failed += c.Failed
	}
	return sent, failed
}

// results is the -out document: one run of every workload asked for.
type results struct {
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	GoMaxProc int               `json:"gomaxprocs"`
	Workloads []*workloadResult `json:"workloads"`
}

func (r *results) workload(name string) *workloadResult {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// contractLine is the one JSON object a driver reads from the last line
// of standard output.
func contractLine(w *workloadResult, traced bool) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, src := endToEndDefs, w.EndToEnd
	if traced {
		defs, src = perLayerDefs, w.PerLayer
	}
	metrics := make(map[string]mv, len(defs))
	for _, d := range defs {
		m, ok := src[d.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", w.Name, d.Name)
		}
		metrics[d.Name] = mv{m.Value, m.Unit}
	}
	sent, failed := w.attempted()
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{failed == 0, sent, failed, metrics})
}
