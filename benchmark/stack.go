package main

import (
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"longtailrec"
	"longtailrec/internal/server"
)

// Serving knobs, the ltr-server defaults: -cache-size, -compact-threshold
// and -wal-max-batch (with -wal-sync-interval 0 and -shards 1).
const (
	cacheSize        = 4096
	compactThreshold = 1024
	walMaxBatch      = 64
)

// stack is the serving stack of one run, built as cmd/ltr-server builds
// it and listening on loopback.
type stack struct {
	sys     *longtail.System
	httpSrv *http.Server
	serveCh chan error
	base    string // http://127.0.0.1:port
	walDir  string
}

func systemConfig(seed int64, walDir string) longtail.Config {
	cfg := longtail.ServingConfig(cacheSize, compactThreshold)
	cfg.Seed = seed
	cfg.WALDir = walDir
	cfg.WALMaxBatch = walMaxBatch
	return cfg
}

// listen serves h on a fresh loopback port with the read-header timeout
// internal/server gives its own http.Server.
func listen(h http.Handler) (*http.Server, chan error, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	ch := make(chan error, 1)
	go func() { ch <- hs.Serve(ln) }()
	return hs, ch, "http://" + ln.Addr().String(), nil
}

// stopServer closes the listener and every connection and waits for the
// serve goroutine.
func stopServer(hs *http.Server, ch chan error) error {
	cerr := hs.Close()
	if err := <-ch; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return cerr
}

// buildStack goes from raw ratings to a listening server: everything
// setup_s covers except the health probe and the warm-up op list.
func buildStack(c *corpus, wl *workload, seed int64, walDir string) (*stack, error) {
	data, err := longtail.NewDataset(c.numUsers, c.numItems, c.ratings)
	if err != nil {
		return nil, err
	}
	sys, err := longtail.NewSystem(data, systemConfig(seed, walDir))
	if err != nil {
		return nil, err
	}
	// Resolve the algorithm now: AC2 trains LDA on first use, and a
	// server that has not done so is not ready.
	if _, err := sys.Algorithm(wl.algo); err != nil {
		sys.Close()
		return nil, err
	}
	srv, err := server.New(sys, server.Options{
		DefaultAlgorithm: wl.algo,
		Logger:           log.New(io.Discard, "", 0),
	})
	if err != nil {
		sys.Close()
		return nil, err
	}
	hs, ch, base, err := listen(srv.Handler())
	if err != nil {
		sys.Close()
		return nil, err
	}
	return &stack{sys: sys, httpSrv: hs, serveCh: ch, base: base, walDir: walDir}, nil
}

// close stops the listener, then the system (final checkpoint when the
// WAL is on). The WAL directory is left for the caller.
func (s *stack) close() error {
	err := stopServer(s.httpSrv, s.serveCh)
	if cerr := s.sys.Close(); err == nil {
		err = cerr
	}
	return err
}

// tempRoot is where WAL directories live: inside the working directory,
// which is the checkout, on its real filesystem.
const tempRoot = ".bench_tmp"

func newWALDir() (string, error) {
	if err := os.MkdirAll(tempRoot, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(tempRoot, "wal-")
}
