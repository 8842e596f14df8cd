package main

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"longtailrec"
	"longtailrec/internal/core"
)

// Spans are recorded from the benchmark's own files, around the public
// functions of each layer; nothing inside the program is instrumented.
// The traced pass is single-client, so at most one request is in the
// server at a time and "the request being handled" is one variable.

const (
	headerRequestID = "X-Bench-Request"
	headerSpanID    = "X-Bench-Span"
)

// span is one timed interval. Times are nanoseconds since the tracer was
// made; Parent 0 means a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	// Note carries the one fact some spans need: "hit"/"miss" on
	// longtail.recommend, the method on server.handle.
	Note string `json:"note,omitempty"`
	// Bytes is the response body size, on server.handle.
	Bytes int `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	t0 time.Time
	mu sync.Mutex
	// spans[i] has ID i+1.
	spans []span
	// handling is the server.handle span of the request in the server,
	// which the Source decorator parents its spans to.
	handling atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, request int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Request: request, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int, note string) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Note = note
}

// child opens a span under the request being handled.
func (t *tracer) child(name string) int {
	parent := int(t.handling.Load())
	request := 0
	if parent > 0 {
		t.mu.Lock()
		request = t.spans[parent-1].Request
		t.mu.Unlock()
	}
	return t.begin(name, parent, request)
}

// wrap is the server.handle span: an http.Handler round srv.Handler().
func (t *tracer) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		request, _ := strconv.Atoi(r.Header.Get(headerRequestID))
		parent, _ := strconv.Atoi(r.Header.Get(headerSpanID))
		id := t.begin("server.handle", parent, request)
		t.handling.Store(int64(id))
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		t.handling.Store(0)
		t.end(id, r.Method)
		t.mu.Lock()
		t.spans[id-1].Bytes = cw.n
		t.mu.Unlock()
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += n
	return n, err
}

// tracedSource decorates the three server.Source calls a recommend or
// rating request makes; every other method is the System's own.
type tracedSource struct {
	*longtail.System
	t *tracer
}

func (s tracedSource) Recommend(ctx context.Context, algo string, req core.Request) (core.Response, error) {
	id := s.t.child("longtail.recommend")
	resp, err := s.System.Recommend(ctx, algo, req)
	note := "miss"
	if resp.CacheHit {
		note = "hit"
	}
	s.t.end(id, note)
	return resp, err
}

func (s tracedSource) LiveItemPopularityFor(user int) []int {
	id := s.t.child("longtail.popularity")
	pop := s.System.LiveItemPopularityFor(user)
	s.t.end(id, "")
	return pop
}

func (s tracedSource) ApplyRating(user, item int, score float64) (bool, uint64, error) {
	id := s.t.child("longtail.apply_rating")
	added, epoch, err := s.System.ApplyRating(user, item, score)
	s.t.end(id, "")
	return added, epoch, err
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns every span of the name (and note, when given) in
// the unit asked for.
func durations(spans []span, name, note string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && (note == "" || s.Note == note) {
			out = append(out, float64(s.dur())/float64(unit))
		}
	}
	return out
}

// selfTimes is each named span's duration minus the part of it its
// direct children cover, in the unit asked for.
func selfTimes(spans []span, name string, unit time.Duration) []float64 {
	covered := make(map[int]int64)
	for _, s := range spans {
		if s.Parent > 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start-covered[s.ID])/float64(unit))
		}
	}
	return out
}

// writeTrace writes the trace file: one JSON document, each workload's
// spans in the order they began.
func writeTrace(path string, byWorkload map[string][]span) error {
	type doc struct {
		Spans []span `json:"spans"`
	}
	out := make(map[string]doc, len(byWorkload))
	for name, spans := range byWorkload {
		out[name] = doc{spans}
	}
	return writeJSONFile(path, struct {
		Workloads map[string]doc `json:"workloads"`
	}{out})
}
