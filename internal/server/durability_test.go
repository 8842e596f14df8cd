// Tests for the durability section of /v1/stats: wal_enabled,
// durable_seq, pending_batch and last_checkpoint_epoch.

package server

import (
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"testing"

	"longtailrec"
)

// durableTestServer builds a server over a WAL-backed System serving the
// testSystem corpus from walDir.
func durableTestServer(t testing.TB, walDir string) (*longtail.System, *httptest.Server) {
	t.Helper()
	base := testSystem(t)
	d, err := longtail.NewDataset(base.Data().NumUsers(), base.Data().NumItems(), base.Data().Ratings())
	if err != nil {
		t.Fatal(err)
	}
	cfg := longtail.DefaultConfig()
	cfg.LDA.NumTopics = 2
	cfg.LDA.Iterations = 5
	cfg.SVDRank = 2
	cfg.AutoGrow = true
	cfg.WALDir = walDir
	sys, err := longtail.NewSystem(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	srv, err := New(sys, Options{
		DefaultAlgorithm: "AT",
		Logger:           log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return sys, ts
}

func TestStatsDurabilityFields(t *testing.T) {
	sys, ts := durableTestServer(t, t.TempDir())

	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &st)
	if !st.WALEnabled {
		t.Fatal("wal_enabled false on a WAL-backed server")
	}
	if st.DurableSeq != 0 || st.PendingBatch != 0 || st.LastCheckpointEpoch != 0 {
		t.Fatalf("fresh durability stats = (seq=%d, pending=%d, ckpt=%d), want zeros",
			st.DurableSeq, st.PendingBatch, st.LastCheckpointEpoch)
	}

	// Two accepted writes advance durable_seq to 2: every acked write is
	// in the log.
	postJSON(t, ts.URL+"/v1/ratings", RatingRequest{User: 0, Item: 5, Score: 4}, http.StatusCreated, nil)
	postJSON(t, ts.URL+"/v1/ratings", RatingRequest{User: 8, Item: 8, Score: 3}, http.StatusCreated, nil)
	// A rejected write must NOT advance it.
	postJSON(t, ts.URL+"/v1/ratings", RatingRequest{User: 0, Item: 0, Score: -1}, http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &st)
	if st.DurableSeq != 2 {
		t.Fatalf("durable_seq = %d after 2 accepted writes, want 2", st.DurableSeq)
	}
	if st.PendingBatch != 0 {
		t.Fatalf("pending_batch = %d with no writer in flight, want 0", st.PendingBatch)
	}

	// A checkpoint records the epoch it captured.
	if err := sys.SnapshotRefresh(); err != nil {
		t.Fatal(err)
	}
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &st)
	if st.LastCheckpointEpoch != st.Epoch {
		t.Fatalf("last_checkpoint_epoch = %d just after a refresh, want the epoch %d",
			st.LastCheckpointEpoch, st.Epoch)
	}
	if st.LastCheckpointEpoch == 0 {
		t.Fatal("last_checkpoint_epoch still 0 after writes and a refresh")
	}
}

func TestStatsDurabilityDisabled(t *testing.T) {
	_, ts := testServer(t) // no WALDir
	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &st)
	if st.WALEnabled {
		t.Fatal("wal_enabled true on an in-memory server")
	}
	if st.DurableSeq != 0 || st.PendingBatch != 0 || st.LastCheckpointEpoch != 0 {
		t.Fatalf("durability fields nonzero without a WAL: (seq=%d, pending=%d, ckpt=%d)",
			st.DurableSeq, st.PendingBatch, st.LastCheckpointEpoch)
	}
}
