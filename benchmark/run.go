package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"longtailrec"
	"longtailrec/internal/graph"
)

// logw takes the human-readable progress lines; standard output is kept
// for results.
var logw io.Writer = os.Stderr

// runOptions is one invocation's settings.
type runOptions struct {
	seed    int64
	seconds time.Duration
	// trace adds the single-client traced pass, the stage replay and the
	// layer probes, and fills the per-layer metrics.
	trace bool
	// setups is how many times set-up is done and timed; the last stack
	// built is the one measured.
	setups int
	// small shrinks the corpora for the smoke test.
	small bool
}

// run is the state of one workload run.
type run struct {
	wl    *workload
	opts  runOptions
	c     *corpus
	perm  []int
	cfg   longtail.Config
	st    *stack
	cl    []*client
	model *walkModel

	streams []*stream // one per client; open loops use streams[0] only
	acks    map[ackKey]float64

	res *workloadResult
	// what the untraced phase observed
	phase       *phaseResult
	readWindows [][]float64
	before      procStats
	after       procStats
	cacheDelta  cacheCounters
	traced      []sample
	walks       []walk
	layer       layerProbes
}

// runWorkload builds the stack, measures one phase, checks the answers
// and (with opts.trace) takes the per-layer measurements.
func runWorkload(wl *workload, opts runOptions) (res *workloadResult, err error) {
	r := &run{wl: wl, opts: opts, acks: make(map[ackKey]float64),
		res: newWorkloadResult(wl.name, opts)}
	r.c, err = buildCorpus(wl.corpus, opts.seed, opts.small)
	if err != nil {
		return nil, err
	}
	r.perm = userPerm(r.c, opts.seed)
	r.res.CorpusHash = fmt.Sprintf("%016x", r.c.hash())
	r.res.OpsHash = fmt.Sprintf("%016x", hashOps(firstOps(wl, r.c, opts.seed, 10000)))
	fmt.Fprintf(logw, "%s: corpus %s %d users x %d items, %d ratings (fnv %s), ops fnv %s\n",
		wl.name, r.c.kind, r.c.numUsers, r.c.numItems, len(r.c.ratings), r.res.CorpusHash, r.res.OpsHash)

	defer func() {
		if cerr := r.teardown(); err == nil {
			err = cerr
		}
	}()
	if err := r.setUp(); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
	}
	if err := r.measure(); err != nil {
		return nil, fmt.Errorf("%s: phase: %w", wl.name, err)
	}
	// The phase's own sample buffer is the benchmark's, not the server's.
	own := float64(cap(r.phase.samples)) * float64(unsafe.Sizeof(sample{})) / (1 << 20)
	r.res.set("live_heap_mb", liveHeapMB()-own, nil, 0)
	if err := r.oracle(); err != nil {
		return nil, fmt.Errorf("%s: oracle: %w", wl.name, err)
	}
	if opts.trace {
		if err := r.tracedPass(); err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", wl.name, err)
		}
	}
	if err := r.verifyAcks(); err != nil {
		return nil, fmt.Errorf("%s: write check: %w", wl.name, err)
	}
	r.endToEnd()
	if opts.trace {
		r.perLayer()
	}
	return r.res, nil
}

// setUp times the path from raw ratings to a warmed-up server
// opts.setups times and keeps the last stack.
func (r *run) setUp() error {
	var times []float64
	for i := 0; i < r.opts.setups; i++ {
		if r.st != nil {
			if err := r.teardown(); err != nil {
				return err
			}
			runtime.GC() // the discarded stack is not the next one's burden
		}
		t := time.Now()
		if err := r.setUpOnce(); err != nil {
			return err
		}
		times = append(times, time.Since(t).Seconds())
	}
	r.res.set("setup_s", median(times), times, len(times))
	r.cfg = systemConfig(r.opts.seed, r.st.walDir)
	var err error
	r.model, err = newWalkModel(r.st.sys, r.wl.algo, r.cfg)
	return err
}

// setUpOnce is what setup_s times: build the stack, see it healthy, run
// the warm-up list.
func (r *run) setUpOnce() error {
	walDir := ""
	if r.wl.wal {
		var err error
		if walDir, err = newWALDir(); err != nil {
			return err
		}
	}
	st, err := buildStack(r.c, r.wl, r.opts.seed, walDir)
	if err != nil {
		if walDir != "" {
			os.RemoveAll(walDir)
		}
		return err
	}
	r.st = st
	r.cl = make([]*client, numClients)
	for i := range r.cl {
		r.cl[i] = newClient(st.base)
	}
	if err := r.cl[0].get("/v1/health"); err != nil {
		return err
	}
	for _, o := range warmupList(r.perm) {
		rep, err := r.cl[0].do(o, 0, 0)
		if err != nil || !plausible(o, rep) {
			return fmt.Errorf("warm-up read of user %d failed (status %d): %v", o.user, rep.status, err)
		}
	}
	return nil
}

// teardown closes the clients and the stack and removes the WAL
// directory.
func (r *run) teardown() error {
	if r.st == nil {
		return nil
	}
	for _, c := range r.cl {
		c.close()
	}
	err := r.st.close()
	if r.st.walDir != "" {
		if rerr := os.RemoveAll(r.st.walDir); err == nil {
			err = rerr
		}
		os.Remove(tempRoot) // only succeeds once empty
	}
	r.st, r.cl = nil, nil
	return err
}

// measure runs the untraced phase every end-to-end metric comes from.
func (r *run) measure() error {
	wl := r.wl
	clients := numClients
	if wl.openRate > 0 {
		clients = 1
	}
	for cl := 0; cl < clients; cl++ {
		r.streams = append(r.streams, newStream(wl, r.c, r.perm, r.opts.seed, cl))
	}
	if wl.prefill {
		if err := r.prefill(); err != nil {
			return err
		}
	}
	var openOps []op
	if wl.openRate > 0 {
		n := int(wl.openRate * r.opts.seconds.Seconds())
		traced := 0
		if r.opts.trace {
			traced = wl.tracedOps
		}
		if err := distinctBudget(r.c, n, traced); err != nil {
			return err
		}
		openOps = r.streams[0].take(n)
	}
	r.before = readProcStats()
	cacheBefore := readCache(r.st.sys)
	if wl.openRate > 0 {
		r.phase = runOpen(r.cl, openOps, wl.openRate, r.opts.seconds)
	} else {
		var halfTime func()
		if wl.wal {
			halfTime = func() {
				if err := r.st.sys.SnapshotRefresh(); err != nil {
					fmt.Fprintf(logw, "  half-time checkpoint: %v\n", err)
					r.res.count("checkpoint", 1, 1)
				}
			}
		}
		r.phase = runClosed(r.cl, r.streams, r.opts.seconds, halfTime)
	}
	r.after = readProcStats()
	r.cacheDelta = readCache(r.st.sys).minus(cacheBefore)
	for k, v := range r.phase.acks {
		r.acks[k] = v
	}
	failed := 0
	for _, s := range r.phase.samples {
		if !s.ok {
			failed++
		}
	}
	r.res.count("phase", len(r.phase.samples), failed)
	return nil
}

// prefill reads every hot user once, both connections sharing the list,
// so the phase that follows is served from the cache alone.
func (r *run) prefill() error {
	hot := r.streams[0].hotSet()
	errs := make([]error, len(r.cl))
	var wg sync.WaitGroup
	for ci, c := range r.cl {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for i := ci; i < hot; i += len(r.cl) {
				o := op{kind: opRead, user: r.perm[i]}
				rep, err := c.do(o, 0, 0)
				if err != nil || !plausible(o, rep) {
					errs[ci] = fmt.Errorf("prefill read of user %d failed (status %d): %v", o.user, rep.status, err)
					return
				}
			}
		}(ci, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// oracleReads and twoPassReads size the answer check.
const (
	oracleReads  = 64
	twoPassReads = 8
)

// oracle re-reads users the phase read, with the server quiesced, and
// requires each HTTP ranking to equal the benchmark's own stage replay
// on the serving graph; the first few are also checked against the
// two-pass solver's scores.
func (r *run) oracle() error {
	users := r.phaseReadUsers()
	n := oracleReads
	if n > len(users) {
		n = len(users)
	}
	failed := 0
	for i := 0; i < n; i++ {
		user := users[i*len(users)/n]
		ok, err := r.checkRead(user, i < twoPassReads)
		if err != nil {
			return err
		}
		if !ok {
			failed++
		}
	}
	r.res.count("oracle", n, failed)
	return nil
}

// phaseReadUsers regenerates the distinct users the phase read, in
// first-read order, from fresh copies of its streams.
func (r *run) phaseReadUsers() []int {
	var users []int
	seen := make(map[int]bool)
	for cl, s := range r.streams {
		fresh := newStream(r.wl, r.c, r.perm, r.opts.seed, cl)
		for i := 0; i < s.n; i++ {
			if o := fresh.next(); o.kind == opRead && !seen[o.user] {
				seen[o.user] = true
				users = append(users, o.user)
			}
		}
	}
	return users
}

// checkRead fetches one recommendation over HTTP and compares it with
// the replay.
func (r *run) checkRead(user int, twoPass bool) (bool, error) {
	o := op{kind: opRead, user: user}
	rep, err := r.cl[0].do(o, 0, 0)
	if err != nil {
		return false, err
	}
	if !plausible(o, rep) {
		fmt.Fprintf(logw, "  oracle: user %d: status %d\n", user, rep.status)
		return false, nil
	}
	got, err := decodeRecommend(rep.body)
	if err != nil {
		return false, nil
	}
	w, err := r.model.replay(user, nil, 0)
	if err != nil {
		return false, err
	}
	if got.Fallback || got.User != user || !sameRanking(got.Items, w.items) {
		fmt.Fprintf(logw, "  oracle: user %d: HTTP ranking differs from the stage replay\n", user)
		return false, nil
	}
	if twoPass {
		ok, err := r.model.twoPassAgrees(w, got.Items)
		if err != nil {
			return false, err
		}
		if !ok {
			fmt.Fprintf(logw, "  oracle: user %d: scores differ from the two-pass solver by more than 1e-9\n", user)
			return false, nil
		}
	}
	return true, nil
}

// verifyAcks requires every acknowledged write's last score in the
// graph: the live one, or, with the WAL on, the one a fresh System
// recovers from the WAL directory after Close.
func (r *run) verifyAcks() error {
	sys := r.st.sys
	if r.wl.wal {
		for _, c := range r.cl {
			c.close()
		}
		if err := r.st.close(); err != nil {
			return err
		}
		if fi, err := os.Stat(filepath.Join(r.st.walDir, "checkpoint.ltr")); err == nil {
			r.layer.checkpointBytes = float64(fi.Size())
		}
		walDir := r.st.walDir
		r.st = nil
		defer func() {
			os.RemoveAll(walDir)
			os.Remove(tempRoot)
		}()
		data, err := longtail.NewDataset(r.c.numUsers, r.c.numItems, r.c.ratings)
		if err != nil {
			return err
		}
		t := time.Now()
		sys, err = longtail.NewSystem(data, r.cfg)
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		r.layer.recover = time.Since(t)
	}
	g := sys.Graph()
	lost := 0
	for k, want := range r.acks {
		if !ratingIs(g, k.user, k.item, want) {
			lost++
		}
	}
	if lost > 0 {
		fmt.Fprintf(logw, "  %d of %d acknowledged writes are not in the graph\n", lost, len(r.acks))
	}
	r.res.count("acked_writes", len(r.acks), lost)
	if r.wl.wal {
		return sys.Close()
	}
	return nil
}

func ratingIs(g *graph.Bipartite, user, item int, score float64) bool {
	if user >= g.NumUsers() {
		return false
	}
	items, weights := g.UserItems(user)
	for i, it := range items {
		if it == item {
			return weights[i] == score
		}
	}
	return false
}

// windowed cuts a phase's successful ops of one kind into numWindows
// equal slices of [0, d) by start time: each slice's latencies in
// milliseconds, ascending.
func windowed(samples []sample, kind opKind, d time.Duration) [][]float64 {
	buckets := make([][]float64, numWindows)
	for _, s := range samples {
		if s.kind != kind || !s.ok {
			continue
		}
		if w := int(int64(numWindows) * s.start / int64(d)); w >= 0 && w < numWindows {
			buckets[w] = append(buckets[w], float64(s.latency)/1e6)
		}
	}
	for _, b := range buckets {
		sort.Float64s(b)
	}
	return buckets
}

// perWindow applies a statistic to every window that has samples.
func perWindow(windows [][]float64, f func(sortedMS []float64) float64) []float64 {
	var out []float64
	for _, w := range windows {
		if len(w) > 0 {
			out = append(out, f(w))
		}
	}
	return out
}

// quantile is percentile as a per-window statistic.
func quantile(q float64) func([]float64) float64 {
	return func(sorted []float64) float64 { return percentile(sorted, q) }
}

func countKind(samples []sample, kind opKind) int {
	n := 0
	for _, s := range samples {
		if s.kind == kind && s.ok {
			n++
		}
	}
	return n
}

// Interference on a shared sandbox only ever adds time, and it comes in
// bursts, so a value is read from the quietest window — when the windows
// hold enough samples for the statistic. A tail estimated from a hundred
// samples is mostly sampling error, and the smallest of five such is
// biased low; that tail is read from the median window.
func quietest(windows []float64) float64 { return percentile(sortedCopy(windows), 0) }
func busiest(windows []float64) float64  { return percentile(sortedCopy(windows), 1) }

// tailWindowSamples is how many samples every window must hold before a
// p95 is read from the quietest one: fifty beyond the percentile.
const tailWindowSamples = 1000

func tailOver(windows [][]float64) func([]float64) float64 {
	for _, w := range windows {
		if len(w) < tailWindowSamples {
			return median
		}
	}
	return quietest
}

// endToEnd reduces the untraced phase to the end-to-end metrics, each a
// statistic computed per window and then reduced over the windows.
func (r *run) endToEnd() {
	d := r.phase.duration
	reads := countKind(r.phase.samples, opRead)
	r.readWindows = windowed(r.phase.samples, opRead, d)
	stat := func(name string, f, over func([]float64) float64) {
		ws := perWindow(r.readWindows, f)
		r.res.set(name, over(ws), ws, reads)
	}
	stat("read_p50_ms", quantile(0.50), quietest)
	stat("read_p95_ms", quantile(0.95), tailOver(r.readWindows))
	stat("read_mean_ms", mean, quietest)

	// Throughput: ops completed inside each window, the windows cut over
	// the time the phase really took, to its last reply.
	span := int64(1)
	for _, s := range r.phase.samples {
		if end := s.start + s.latency; end > span {
			span = end
		}
	}
	done := make([]float64, numWindows)
	for _, s := range r.phase.samples {
		if !s.ok {
			continue
		}
		w := int(int64(numWindows) * (s.start + s.latency) / (span + 1))
		done[w]++
	}
	for w := range done {
		done[w] /= time.Duration(span).Seconds() / numWindows
	}
	r.res.set("throughput_rps", busiest(done), done, len(r.phase.samples))

	// Validity guards.
	if reads < minTailSamples {
		r.res.invalid("read_p95_ms has %d samples behind it, needs %d", reads, minTailSamples)
	}
	if r.wl.openRate > 0 {
		achieved, late := r.openLoopValidity()
		if achieved < 0.99*r.wl.openRate {
			r.res.invalid("open loop achieved %.2f req/s of %.0f offered", achieved, r.wl.openRate)
		}
		if limit := maxLateShare * r.res.EndToEnd["read_p50_ms"].Value; late > limit {
			r.res.invalid("open-loop generator ran %.3f ms late at p99, limit %.3f ms", late, limit)
		}
	}
}

const (
	// minTailSamples keeps ten samples beyond the 95th percentile.
	minTailSamples = 200
	// maxLateShare bounds how late the open-loop generator may send at
	// p99, as a share of the median read: past it requests are waiting
	// for a free connection, and the phase measures the client's queue.
	maxLateShare = 0.25
)

// openLoopValidity reports the achieved request rate and the p99 of how
// late the generator sent a request after its due time, in ms.
func (r *run) openLoopValidity() (achievedRPS, lateP99MS float64) {
	var late []float64
	last := int64(0)
	for _, s := range r.phase.samples {
		late = append(late, float64(s.late)/1e6)
		if end := s.start + s.latency; end > last {
			last = end
		}
	}
	sort.Float64s(late)
	span := r.phase.duration
	if time.Duration(last) > span {
		span = time.Duration(last)
	}
	return float64(countKind(r.phase.samples, opRead)) / span.Seconds(), percentile(late, 0.99)
}

func liveHeapMB() float64 {
	// Twice: the first cycle only moves sync.Pool contents (the engine's
	// scratch) to the victim cache.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// procStats is the process-wide cost counters read at a phase edge.
type procStats struct {
	cpu      time.Duration
	mallocs  uint64
	gcCycles uint32
	gcPause  time.Duration
}

func readProcStats() procStats {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // RUSAGE_SELF cannot fail
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return procStats{
		cpu:      tv(ru.Utime) + tv(ru.Stime),
		mallocs:  ms.Mallocs,
		gcCycles: ms.NumGC,
		gcPause:  time.Duration(ms.PauseTotalNs),
	}
}

// cacheCounters is the slice of ServingStats the cache metrics use.
type cacheCounters struct {
	hits, misses, shared, evictions     uint64
	fpHits, fpRejects, journalOverflows uint64
	durableSeq                          uint64
}

func readCache(sys *longtail.System) cacheCounters {
	st := sys.ServingStats()
	return cacheCounters{
		hits: st.Cache.Hits, misses: st.Cache.Misses, shared: st.Cache.Shared, evictions: st.Cache.Evictions,
		fpHits: st.Cache.FingerprintHits, fpRejects: st.Cache.FingerprintRejects,
		journalOverflows: st.Cache.JournalOverflows,
		durableSeq:       st.Durability.DurableSeq,
	}
}

func (a cacheCounters) minus(b cacheCounters) cacheCounters {
	return cacheCounters{
		hits: a.hits - b.hits, misses: a.misses - b.misses, shared: a.shared - b.shared,
		evictions: a.evictions - b.evictions, fpHits: a.fpHits - b.fpHits, fpRejects: a.fpRejects - b.fpRejects,
		journalOverflows: a.journalOverflows - b.journalOverflows,
		durableSeq:       a.durableSeq, // a position, not a rate
	}
}

func (c cacheCounters) hitShare() float64 {
	lookups := c.hits + c.misses + c.shared
	if lookups == 0 {
		return 0
	}
	return float64(c.hits+c.shared) / float64(lookups)
}
