package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"longtailrec/internal/server"
	"longtailrec/internal/wal"
)

// layerProbes are the layer measurements that come from neither a span
// nor a server counter.
type layerProbes struct {
	walAppend       []float64 // µs per 1-record Append+fsync on a private log
	upsert          []float64 // µs per UpsertRating on a private graph
	compact         time.Duration
	checkpointBytes float64
	recover         time.Duration
}

// tracedPass replays the next ops of client 0's stream on one connection
// against a second listener whose handler and Source are wrapped in
// spans, and replays every cache miss stage by stage straight after its
// response — the graph cannot move in between, as nothing else is
// running. The System, its cache and its graph are the measured ones.
func (r *run) tracedPass() error {
	tr := newTracer()
	srv, err := server.New(tracedSource{r.st.sys, tr}, server.Options{
		DefaultAlgorithm: r.wl.algo,
		Logger:           log.New(io.Discard, "", 0),
	})
	if err != nil {
		return err
	}
	hs, ch, base, err := listen(tr.wrap(srv.Handler()))
	if err != nil {
		return err
	}
	c := newClient(base)
	c.traced = true
	defer func() {
		c.close()
		stopServer(hs, ch)
	}()

	ops := r.streams[0].take(r.wl.tracedOps)
	failed := 0
	start := time.Now()
	for i, o := range ops {
		request := i + 1
		id := tr.begin("client.request", 0, request)
		t := time.Now()
		rep, err := c.do(o, request, id)
		lat := time.Since(t)
		tr.end(id, "")
		ok := err == nil && plausible(o, rep)
		switch {
		case !ok:
		case o.kind == opWrite:
			r.acks[ackKey{o.user, o.item}] = o.score
		default:
			got, derr := decodeRecommend(rep.body)
			if derr != nil {
				ok = false
				break
			}
			if got.CacheHit {
				break
			}
			w, err := r.model.replay(o.user, tr, request)
			if err != nil {
				return err
			}
			if !sameRanking(got.Items, w.items) {
				fmt.Fprintf(logw, "  traced pass: user %d: HTTP ranking differs from the stage replay\n", o.user)
				ok = false
			}
			w.sg, w.enterLocal = nil, nil // both alias replay scratch
			r.walks = append(r.walks, w)
		}
		if !ok {
			failed++
		}
		r.traced = append(r.traced, sample{kind: o.kind, ok: ok, start: int64(t.Sub(start)), latency: int64(lat)})
	}
	r.res.count("traced", len(ops), failed)

	if err := r.probeGraphWrites(); err != nil {
		return err
	}
	if r.wl.wal {
		if err := r.probeWAL(); err != nil {
			return err
		}
	}
	r.res.spans = tr.snapshot()
	return nil
}

// probeGraphWrites times the graph layer's share of a write with nothing
// above it: the stream's writes upserted into a private copy of the
// corpus graph, one compact-threshold's worth, then folded once.
func (r *run) probeGraphWrites() error {
	g := r.st.sys.Data().Graph()
	g.SetCompactThreshold(0) // fold only when told to
	s := newStream(r.wl, r.c, r.perm, r.opts.seed, numClients+2)
	for i := 0; i < compactThreshold; i++ {
		o := s.writeFor(r.perm[i%len(r.perm)])
		t := time.Now()
		if _, err := g.UpsertRating(o.user, o.item, o.score); err != nil {
			return fmt.Errorf("graph probe: %w", err)
		}
		r.layer.upsert = append(r.layer.upsert, float64(time.Since(t))/float64(time.Microsecond))
	}
	t := time.Now()
	g.Compact()
	r.layer.compact = time.Since(t)
	return nil
}

// probeWAL times a one-record append and fsync on a private log beside
// the server's own: the floor a durable write cannot go below on this
// filesystem.
func (r *run) probeWAL() error {
	path := filepath.Join(r.st.walDir, "probe.log")
	l, err := wal.Open(path)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	for i := 0; i < 64; i++ {
		t := time.Now()
		if err := l.Append([]wal.Record{{Op: wal.OpUpsert, User: i, Item: i, Score: 1}}); err != nil {
			l.Close()
			return err
		}
		r.layer.walAppend = append(r.layer.walAppend, float64(time.Since(t))/float64(time.Microsecond))
	}
	return l.Close()
}

// medianOr0 is the median, or 0 for a layer that did nothing.
func medianOr0(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return median(v)
}

// perLayer reduces spans, replayed walks, probes and counters to the
// per-layer metrics.
func (r *run) perLayer() {
	res := r.res
	spans := r.res.spans
	const us, ms = time.Microsecond, time.Millisecond

	// Walk stages, from the replay of every traced miss.
	extract := durations(spans, "graph.extract", "", ms)
	build := durations(spans, "markov.chain_build", "", us)
	sweeps := durations(spans, "markov.sweeps", "", ms)
	sel := durations(spans, "topk.select", "", us)
	res.layer("graph.extract_ms", medianOr0(extract))
	res.layer("markov.chain_build_us", medianOr0(build))
	res.layer("markov.sweeps_ms", medianOr0(sweeps))
	res.layer("topk.select_us", medianOr0(sel))
	var nodes, edges, visits []float64
	for _, w := range r.walks {
		nodes = append(nodes, float64(w.nodes))
		edges = append(edges, float64(w.edges))
		visits = append(visits, float64(w.edgeVisits))
	}
	res.layer("graph.subgraph_nodes", medianOr0(nodes))
	res.layer("graph.subgraph_edges", medianOr0(edges))
	res.layer("markov.edge_visits", medianOr0(visits))

	// Serving tier, over the traced reads.
	reads := readRequests(spans)
	res.layer("server.handle_us", medianOr0(durations(reads, "server.handle", "", us)))
	res.layer("server.self_us", medianOr0(selfTimes(reads, "server.handle", us)))
	res.layer("server.popularity_us", medianOr0(durations(reads, "longtail.popularity", "", us)))
	res.layer("http.self_us", medianOr0(selfTimes(reads, "client.request", us)))
	var bytes []float64
	for _, s := range reads {
		if s.Name == "server.handle" {
			bytes = append(bytes, float64(s.Bytes))
		}
	}
	res.layer("server.response_bytes", medianOr0(bytes))
	hit := durations(spans, "longtail.recommend", "hit", us)
	miss := durations(spans, "longtail.recommend", "miss", ms)
	res.layer("longtail.recommend_hit_us", medianOr0(hit))
	res.layer("longtail.recommend_miss_ms", medianOr0(miss))
	res.layer("longtail.apply_rating_us", medianOr0(durations(spans, "longtail.apply_rating", "", us)))

	// Cache and WAL counters over the untraced phase.
	cd := r.cacheDelta
	res.layer("cache.hit_share", cd.hitShare())
	res.layer("cache.fingerprint_hits", float64(cd.fpHits))
	res.layer("cache.fingerprint_rejects", float64(cd.fpRejects))
	res.layer("cache.journal_overflows", float64(cd.journalOverflows))
	res.layer("cache.evictions", float64(cd.evictions))
	res.layer("cache.shared", float64(cd.shared))
	res.layer("wal.durable_seq", float64(cd.durableSeq))

	// Write-path probes.
	res.layer("wal.append_fsync_us", medianOr0(r.layer.walAppend))
	res.layer("graph.upsert_us", medianOr0(r.layer.upsert))
	res.layer("graph.compact_ms", float64(r.layer.compact)/float64(ms))
	res.layer("persist.checkpoint_ms", float64(r.phase.checkpoint)/float64(ms))
	res.layer("persist.checkpoint_bytes", r.layer.checkpointBytes)
	res.layer("persist.recover_ms", float64(r.layer.recover)/float64(ms))

	// Process cost of the untraced phase: client and server share it.
	ops := float64(len(r.phase.samples))
	res.layer("proc.cpu_ms_per_op", float64(r.after.cpu-r.before.cpu)/float64(ms)/ops)
	res.layer("proc.allocs_per_op", float64(r.after.mallocs-r.before.mallocs)/ops)
	res.layer("proc.gc_cycles", float64(r.after.gcCycles-r.before.gcCycles))
	res.layer("proc.gc_pause_total_ms", float64(r.after.gcPause-r.before.gcPause)/float64(ms))

	// Validity of the measurement itself.
	res.layer("client.read_p99_ms", medianOr0(perWindow(r.readWindows, quantile(0.99))))
	// Write latency is a layer metric because only mixed_rw writes: its
	// central value from the quietest window, as the read metrics' is.
	writes := windowed(r.phase.samples, opWrite, r.phase.duration)
	p50 := 0.0
	if w := perWindow(writes, quantile(0.50)); len(w) > 0 {
		p50 = quietest(w)
	}
	res.layer("client.write_p50_ms", p50)
	res.layer("client.write_p95_ms", medianOr0(perWindow(writes, quantile(0.95))))
	res.layer("client.write_p99_ms", medianOr0(perWindow(writes, quantile(0.99))))
	achieved, late := res.EndToEnd["throughput_rps"].Value, 0.0
	if r.wl.openRate > 0 {
		achieved, late = r.openLoopValidity()
	}
	res.layer("client.achieved_rps", achieved)
	res.layer("client.gen_late_p99_ms", late)
	res.layer("client.window_spread", res.EndToEnd["read_p50_ms"].Spread)
	sent, failed := res.attempted()
	res.layer("client.error_share", float64(failed)/float64(sent))

	// Do the replayed stages add up to the walk the server ran?
	coverage := 0.0
	if m := medianOr0(miss); m > 0 {
		coverage = (medianOr0(extract) + medianOr0(build)/1000 + medianOr0(sweeps) + medianOr0(sel)/1000) / m
	}
	res.layer("replay.coverage", coverage)
	var tracedReads []float64
	for _, s := range r.traced {
		if s.kind == opRead && s.ok {
			tracedReads = append(tracedReads, float64(s.latency)/1e6)
		}
	}
	res.layer("trace.overhead_share", medianOr0(tracedReads)/res.EndToEnd["read_p50_ms"].Value-1)
}

// readRequests keeps the spans of requests whose server.handle span is
// a GET: the recommend reads.
func readRequests(spans []span) []span {
	isRead := make(map[int]bool)
	for _, s := range spans {
		if s.Name == "server.handle" && s.Note == http.MethodGet {
			isRead[s.Request] = true
		}
	}
	var out []span
	for _, s := range spans {
		if isRead[s.Request] {
			out = append(out, s)
		}
	}
	return out
}
