package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestManifestMatchesCode holds BENCHMARK.json and the tables in the code
// together: a workload, metric, unit or bound changed in one place only
// fails here.
func TestManifestMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, code default %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", m.Paths)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the code", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, code {%s %s}", i, m.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(m.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics in the manifest, %d in the code", len(m.EndToEnd), len(endToEndDefs))
	}
	for i, d := range endToEndDefs {
		got := m.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: manifest %+v, code %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(m.PerLayer) != len(perLayerDefs) {
		t.Fatalf("%d per-layer metrics in the manifest, %d in the code", len(m.PerLayer), len(perLayerDefs))
	}
	for i, d := range perLayerDefs {
		got := m.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: manifest %+v, code %+v", i, got, d)
		}
	}
}

// TestGoldenInputs pins seed 1's corpora and op streams. A change in
// internal/synth, internal/worlds or the generators here that moves a
// hash has changed the workload, and every recorded baseline with it.
func TestGoldenInputs(t *testing.T) {
	corpora := map[string]string{
		"movielens": "93079b8d56a29454",
		"clustered": "9a8abd398e5bc8ea",
		"zipf":      "30568d9f8562c05a",
	}
	ops := map[string]string{
		"cold_walk":    "b832bd8ad88cdb62",
		"big_universe": "fa8ace572291dedb",
		"hot_read":     "886fab54b395f276",
		"mixed_rw":     "2cb17596501f8595",
	}
	built := map[string]*corpus{}
	for kind, want := range corpora {
		c, err := buildCorpus(kind, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		built[kind] = c
		if got := fmt.Sprintf("%016x", c.hash()); got != want {
			t.Errorf("corpus %s: fnv64 %s, golden %s", kind, got, want)
		}
	}
	for _, wl := range workloads {
		got := fmt.Sprintf("%016x", hashOps(firstOps(&wl, built[wl.corpus], 1, 10000)))
		if got != ops[wl.name] {
			t.Errorf("workload %s: first 10k ops fnv64 %s, golden %s", wl.name, got, ops[wl.name])
		}
	}
	// The same seed gives the same inputs; another seed gives others.
	again, _ := buildCorpus("zipf", 1, false)
	other, _ := buildCorpus("zipf", 2, false)
	if again.hash() != built["zipf"].hash() || other.hash() == built["zipf"].hash() {
		t.Error("zipf corpus is not a function of the seed alone")
	}
}

// TestSmoke runs every workload end to end at a 1 s phase on the shrunken
// corpora, traced, and checks the shape of what comes out: every metric
// of both tables exactly once with its unit and a finite value, no failed
// operation, and a trace whose every child lies inside its parent.
func TestSmoke(t *testing.T) {
	logw = testWriter{t}
	dir := t.TempDir()
	t.Chdir(dir) // WAL directories are made under the working directory
	doc := &results{Seed: 1, Seconds: 1}
	spans := map[string][]span{}
	for i := range workloads {
		wl := &workloads[i]
		res, err := runWorkload(wl, runOptions{seed: 1, seconds: time.Second, trace: true, setups: 1, small: true})
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		doc.Workloads = append(doc.Workloads, res)
		spans[wl.name] = res.spans
		if sent, failed := res.attempted(); failed != 0 || sent == 0 {
			t.Errorf("%s: %d of %d operations failed", wl.name, failed, sent)
		}
		for _, traced := range []bool{false, true} {
			line, err := contractLine(res, traced)
			if err != nil {
				t.Errorf("%s: %v", wl.name, err)
				continue
			}
			checkContractLine(t, wl.name, line, traced)
		}
		if cov := res.PerLayer["replay.coverage"].Value; wl.hotUsers == 0 && (cov < 0.5 || cov > 1.5) {
			t.Errorf("%s: replayed stages cover %.2f of the miss, want about 1", wl.name, cov)
		}
		if hit := res.PerLayer["cache.hit_share"].Value; wl.prefill && hit != 1 {
			t.Errorf("%s: hit share %v after prefill, want 1", wl.name, hit)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("run left %d entries in its working directory", len(entries))
	}

	// The documents a run writes read back and compare clean against
	// themselves.
	out := filepath.Join(dir, "results.json")
	if err := writeJSONFile(out, doc); err != nil {
		t.Fatal(err)
	}
	var table bytes.Buffer
	if err := compareFiles(&table, out, out); err != nil {
		t.Errorf("a results file against itself: %v\n%s", err, table.String())
	}
	tracePath := filepath.Join(dir, "trace.json")
	if err := writeTrace(tracePath, spans); err != nil {
		t.Fatal(err)
	}
	checkTraceFile(t, tracePath)
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// checkContractLine requires exactly the contract's keys, and exactly the
// metrics of the table that applies, each once with its unit.
func checkContractLine(t *testing.T, name string, line []byte, traced bool) {
	t.Helper()
	var got struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("%s: result line: %v", name, err)
	}
	if got.Correct == nil || got.Attempted == nil || got.Failed == nil || !*got.Correct || *got.Attempted < 1 {
		t.Errorf("%s: result line %s", name, line)
	}
	defs := endToEndDefs
	if traced {
		defs = perLayerDefs
	}
	if len(got.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics on the line, %d defined", name, len(got.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := got.Metrics[d.Name]
		switch {
		case !ok || m.Value == nil:
			t.Errorf("%s: metric %s missing", name, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", name, d.Name, m.Unit, d.Unit)
		case math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
			t.Errorf("%s: metric %s is not finite", name, d.Name)
		case !traced && *m.Value == 0:
			t.Errorf("%s: end-to-end metric %s is 0", name, d.Name)
		}
	}
}

// checkTraceFile parses a -trace-out file and requires every span to end
// after it began and every child to lie inside its parent.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads map[string]struct {
			Spans []span `json:"spans"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("trace file holds %d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	for name, w := range doc.Workloads {
		byID := make(map[int]span, len(w.Spans))
		seen := map[string]bool{}
		for _, s := range w.Spans {
			byID[s.ID] = s
			seen[s.Name] = true
		}
		for _, s := range w.Spans {
			if s.End < s.Start {
				t.Errorf("%s: span %d %s ends before it begins", name, s.ID, s.Name)
			}
			if s.Parent == 0 {
				continue
			}
			p, ok := byID[s.Parent]
			if !ok {
				t.Errorf("%s: span %d %s has no parent %d", name, s.ID, s.Name, s.Parent)
			} else if s.Start < p.Start || s.End > p.End || s.Request != p.Request {
				t.Errorf("%s: span %d %s [%d,%d] is not inside its parent %s [%d,%d]",
					name, s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
		}
		want := []string{"client.request", "server.handle", "longtail.recommend", "longtail.popularity"}
		if wl, _ := workloadByName(name); wl.writeEvery > 0 {
			want = append(want, "longtail.apply_rating")
		}
		if wl, _ := workloadByName(name); !wl.prefill {
			want = append(want, "replay.walk", "graph.extract", "markov.chain_build", "markov.sweeps", "topk.select")
		}
		for _, w := range want {
			if !seen[w] {
				t.Errorf("%s: no %s span", name, w)
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "read_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_rps", Unit: "1/s", Better: "higher", Bound: 0.10}
	cases := []struct {
		def       metricDef
		base, new metricValue
		want      string
	}{
		{lower, metricValue{Value: 10}, metricValue{Value: 10.9}, verdictOK},
		{lower, metricValue{Value: 10}, metricValue{Value: 11.1}, verdictWorse},
		{lower, metricValue{Value: 10}, metricValue{Value: 5}, verdictOK},
		{higher, metricValue{Value: 100}, metricValue{Value: 91}, verdictOK},
		{higher, metricValue{Value: 100}, metricValue{Value: 89}, verdictWorse},
		{lower, metricValue{Value: 10, Spread: 0.2}, metricValue{Value: 10}, verdictUnresolved},
		{lower, metricValue{Value: 10}, metricValue{Value: 20, Spread: 0.2}, verdictUnresolved},
	}
	for _, c := range cases {
		if _, got := compareMetric(c.def, c.base, c.new); got != c.want {
			t.Errorf("%s base %v new %v: verdict %s, want %s", c.def.Name, c.base, c.new, got, c.want)
		}
	}
}

func TestCompareFilesFailsOnWorse(t *testing.T) {
	mk := func(p50 float64) *results {
		w := newWorkloadResult("cold_walk", runOptions{})
		for _, d := range endToEndDefs {
			w.set(d.Name, 1, nil, 1)
		}
		w.set("read_p50_ms", p50, nil, 1)
		return &results{Workloads: []*workloadResult{w}}
	}
	dir := t.TempDir()
	base, worse := filepath.Join(dir, "base.json"), filepath.Join(dir, "worse.json")
	if err := writeJSONFile(base, mk(10)); err != nil {
		t.Fatal(err)
	}
	if err := writeJSONFile(worse, mk(14)); err != nil {
		t.Fatal(err)
	}
	var table bytes.Buffer
	if err := compareFiles(&table, base, worse); err == nil {
		t.Errorf("a 40%% slower read_p50_ms passed:\n%s", table.String())
	}
	if !strings.Contains(table.String(), verdictWorse) {
		t.Errorf("table does not say %q:\n%s", verdictWorse, table.String())
	}
	if err := compareFiles(&table, worse, base); err != nil {
		t.Errorf("a faster run failed: %v", err)
	}
}

// TestQuartileSpread pins the statistic to Python's
// statistics.quantiles(v, n=4), which the acceptance gate uses.
func TestQuartileSpread(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // quartiles 2.75, 5.5, 8.25
	if got := quartileSpread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread = %v, want 1", got)
	}
	w := []float64{10, 12, 11, 13, 50} // quartiles 10.5, 12, 31.5
	if got := quartileSpread(w); math.Abs(got-21.0/12) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, 21.0/12)
	}
}
