// Command ltr-server serves long-tail recommendations over HTTP/JSON.
//
//	ltr-server -addr :8080 -in ratings.tsv -format tsv
//	ltr-server -in snapshot.ltrz -format ltrz          # persist container
//	ltr-server -synthetic movielens                    # demo corpus
//	ltr-server -synthetic movielens -cache-size 16384  # bigger result cache
//
// Endpoints: /v1/health, /v1/stats, /v1/algorithms,
// /v1/recommend?user=&algo=&k=, POST /v1/ratings (live rating ingest),
// /v1/explain?user=&item=, /v1/users/{id}, /v1/items/{id},
// /v1/items/{id}/similar?k=.
//
// Serving is live: POST /v1/ratings writes land in the graph's delta
// overlay immediately; a cached recommendation survives a write only when
// its subgraph fingerprint proves the write could not have touched it.
// -cache-size sizes that cache (0 disables it); -compact-threshold
// controls how many overlay writes accumulate before they are folded back
// into the CSR; -evict-interval runs a background janitor that periodically reclaims the memory of
// cache entries stranded by epoch bumps. With -auto-grow (the default)
// the universe is open: ratings from users and items the corpus has
// never seen are admitted and grow the serving graph, and brand-new
// users get the deterministic popularity fallback from /v1/recommend
// until their first ratings land; -auto-grow=false restores the closed
// universe (unseen ids 404).
//
// With -wal-dir set, live writes are durable: each accepted rating is
// group-committed to an append-only, checksummed, fsync'd write-ahead
// log before it is acknowledged, a background loop periodically writes
// an atomic checkpoint and truncates the log (-checkpoint-interval),
// and startup recovers checkpoint + log tail — a crash or restart loses
// no acknowledged write. -wal-sync-interval widens the group-commit
// window (more writes per fsync, more latency per write); -wal-max-batch
// caps it.
//
// The process shuts down gracefully on SIGINT/SIGTERM; with -wal-dir the
// shutdown flushes the pending commit batch and writes a final
// checkpoint.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"longtailrec"
	"longtailrec/internal/dataset"
	"longtailrec/internal/persist"
	"longtailrec/internal/server"
)

// options collects the flag values run needs.
type options struct {
	addr, in, format, synthetic, algo string
	topics                            int
	seed                              int64
	cacheSize, compactThreshold       int
	autoGrow                          bool
	requestTimeout                    time.Duration
	evictInterval                     time.Duration
	walDir                            string
	walSyncInterval                   time.Duration
	walMaxBatch                       int
	checkpointInterval                time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.StringVar(&o.in, "in", "", "ratings file path (required unless -synthetic)")
	flag.StringVar(&o.format, "format", "tsv", "input format: tsv, csv, movielens or ltrz")
	flag.StringVar(&o.synthetic, "synthetic", "", "serve a synthetic corpus instead: "+strings.Join(longtail.WorldKinds(), ", "))
	flag.StringVar(&o.algo, "algo", "AC2", "default algorithm: "+strings.Join(longtail.AlgorithmNames(), ", "))
	flag.IntVar(&o.topics, "topics", 20, "LDA topics (AC2/LDA)")
	flag.Int64Var(&o.seed, "seed", 42, "seed for the synthetic corpus")
	flag.IntVar(&o.cacheSize, "cache-size", 4096, "recommendation result cache entries (0 disables caching)")
	flag.IntVar(&o.compactThreshold, "compact-threshold", 1024, "live writes buffered in a graph delta overlay before auto-compaction")
	flag.BoolVar(&o.autoGrow, "auto-grow", true, "admit ratings from unseen users/items, growing the serving universe live")
	flag.DurationVar(&o.requestTimeout, "request-timeout", 0, "per-request deadline for the recommendation endpoints (0 disables); an expired deadline cancels the walk mid-sweep")
	flag.DurationVar(&o.evictInterval, "evict-interval", time.Minute, "how often the background janitor sweeps stale (epoch-invalidated) cache entries (0 disables the janitor)")
	flag.StringVar(&o.walDir, "wal-dir", "", "directory for the write-ahead log and checkpoint; enables durable live writes with crash recovery on startup (empty = in-memory serving)")
	flag.DurationVar(&o.walSyncInterval, "wal-sync-interval", 0, "group-commit window: how long the first writer of a batch waits for company before its fsync (0 = commit immediately, batching only under concurrency)")
	flag.IntVar(&o.walMaxBatch, "wal-max-batch", 64, "max live writes per group-commit batch (one fsync per batch)")
	flag.DurationVar(&o.checkpointInterval, "checkpoint-interval", 5*time.Minute, "how often to compact the graph, write an atomic checkpoint and truncate the WAL behind it (0 disables; needs -wal-dir)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "ltr-server: %v\n", err)
		os.Exit(1)
	}
}

func run(o options) error {
	data, err := loadData(o.in, o.format, o.synthetic, o.seed)
	if err != nil {
		return err
	}
	cfg := longtail.DefaultConfig()
	cfg.LDA.NumTopics = o.topics
	cfg.Seed = o.seed
	cfg.CacheSize = o.cacheSize
	cfg.CompactThreshold = o.compactThreshold
	cfg.AutoGrow = o.autoGrow
	cfg.WALDir = o.walDir
	cfg.WALMaxBatch = o.walMaxBatch
	cfg.WALMaxDelay = o.walSyncInterval
	sys, err := longtail.NewSystem(data, cfg)
	if err != nil {
		return err
	}
	// Close flushes the pending group-commit batch and writes the final
	// checkpoint — a graceful shutdown loses no acknowledged write and
	// restarts from the checkpoint alone. No-op without -wal-dir.
	defer func() {
		if cerr := sys.Close(); cerr != nil {
			log.Printf("ltr-server: close: %v", cerr)
		}
	}()
	logger := log.New(os.Stderr, "ltr-server ", log.LstdFlags)
	srv, err := server.New(sys, server.Options{
		Addr:             o.addr,
		DefaultAlgorithm: o.algo,
		Logger:           logger,
		RequestTimeout:   o.requestTimeout,
	})
	if err != nil {
		return err
	}
	st := data.Summarize()
	durability := "off"
	if o.walDir != "" {
		durability = o.walDir
	}
	logger.Printf("serving %d users / %d items / %d ratings on %s (default algorithm %s, cache %d entries, compact every %d writes, auto-grow %v, wal %s)",
		st.NumUsers, st.NumItems, st.NumRatings, o.addr, o.algo, o.cacheSize, o.compactThreshold, o.autoGrow, durability)

	// Background cache janitor: epoch bumps make stale entries
	// unreachable but not free — the ticker reclaims their memory so a
	// write-heavy stream cannot pin dead results until LRU pressure gets
	// to them. Stopped cleanly (goroutine joined) on shutdown.
	if o.evictInterval > 0 && o.cacheSize > 0 {
		janitorStop := make(chan struct{})
		var janitorWG sync.WaitGroup
		janitorWG.Add(1)
		go func() {
			defer janitorWG.Done()
			ticker := time.NewTicker(o.evictInterval)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					if n := sys.EvictStaleCache(); n > 0 {
						logger.Printf("cache janitor: evicted %d stale entries", n)
					}
				case <-janitorStop:
					return
				}
			}
		}()
		defer func() {
			close(janitorStop)
			janitorWG.Wait()
		}()
	}

	// Background snapshot refresher: periodically compacts the graph,
	// writes an atomic checkpoint and truncates the log behind it —
	// bounding replay time after a crash. Joined before sys.Close runs so
	// the final checkpoint never races a periodic one.
	if o.walDir != "" && o.checkpointInterval > 0 {
		refreshStop := make(chan struct{})
		var refreshWG sync.WaitGroup
		refreshWG.Add(1)
		go func() {
			defer refreshWG.Done()
			ticker := time.NewTicker(o.checkpointInterval)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					if err := sys.SnapshotRefresh(); err != nil {
						logger.Printf("snapshot refresh: %v", err)
					}
				case <-refreshStop:
					return
				}
			}
		}()
		defer func() {
			close(refreshStop)
			refreshWG.Wait()
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		logger.Printf("shutting down")
		return srv.Shutdown(context.Background())
	}
}

func loadData(in, format, synthetic string, seed int64) (*longtail.Dataset, error) {
	if synthetic != "" {
		w, err := longtail.GenerateWorld(synthetic, seed)
		if err != nil {
			return nil, err
		}
		return w.Data, nil
	}
	if in == "" {
		return nil, fmt.Errorf("-in is required (or pass -synthetic movielens)")
	}
	if format == "ltrz" {
		var d *longtail.Dataset
		err := persist.LoadFile(in, func(r io.Reader) error {
			var lerr error
			d, lerr = persist.LoadDataset(r)
			return lerr
		})
		return d, err
	}
	f, err := os.Open(in)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var loaded *dataset.Loaded
	switch format {
	case "tsv":
		loaded, err = dataset.LoadTSV(f)
	case "csv":
		loaded, err = dataset.LoadCSV(f)
	case "movielens":
		loaded, err = dataset.LoadMovieLens(f)
	default:
		return nil, fmt.Errorf("unknown format %q", format)
	}
	if err != nil {
		return nil, err
	}
	return loaded.Data, nil
}
