// Durable writes: write-ahead logging, group commit, the snapshot-refresh
// cycle and restart recovery.
//
// With Config.WALDir set, ApplyRating validates the write against the
// serving graph, then submits one WAL record to a group-commit ingester.
// The ingester batches concurrent writers into ONE log append + fsync, ONE
// overlay application and ONE epoch bump per batch, and acknowledges each
// writer only after its batch is durable — so an acked write survives a
// crash by construction, and an fsync failure fails the ack without
// applying anything (the client retries).
//
// Validation runs BEFORE logging, so invalid operations never occupy log
// space or replay time; the universe only grows, so a verdict reached
// before the submit cannot be invalidated by the time the batch applies.
//
// SnapshotRefresh bounds the log: under an ingester barrier it compacts
// the graph, writes an atomic checkpoint naming the covered sequence, and
// truncates the log behind it. Recovery is the mirror image: restore the
// checkpoint, replay records above its sequence, reopen for appends.

package longtail

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"longtailrec/internal/core"
	"longtailrec/internal/graph"
	"longtailrec/internal/persist"
	"longtailrec/internal/wal"
)

// WAL artifact names inside Config.WALDir.
const (
	walFileName        = "wal.log"
	checkpointFileName = "checkpoint.ltr"
)

// writeOutcome is what one durable write hands back to its waiting
// writer: the apply verdict plus the post-batch epoch.
type writeOutcome struct {
	added bool
	epoch uint64
	err   error
}

// restoreCheckpoint rebuilds the serving graph from the checkpoint in
// walDir, or returns nil on first boot (no checkpoint yet). The graph is
// rebuilt with its original base/live universe split preserved, so models
// trained against the dataset universe still validate after live
// admissions, and it resumes the recorded epoch.
func restoreCheckpoint(walDir string) (*graph.Bipartite, error) {
	path := filepath.Join(walDir, checkpointFileName)
	if _, err := os.Stat(path); err != nil {
		if os.IsNotExist(err) {
			return nil, nil // first boot: nothing to restore
		}
		return nil, fmt.Errorf("longtail: checkpoint: %w", err)
	}
	var cp *persist.FleetCheckpoint
	if err := persist.LoadFile(path, func(r io.Reader) error {
		var lerr error
		cp, lerr = persist.LoadFleetCheckpoint(r)
		return lerr
	}); err != nil {
		return nil, fmt.Errorf("longtail: checkpoint %s: %w", path, err)
	}
	g, err := graph.FromSnapshotWithBase(cp.Snapshot, cp.BaseUsers, cp.BaseItems)
	if err != nil {
		return nil, fmt.Errorf("longtail: checkpoint %s: %w", path, err)
	}
	return g, nil
}

// enableDurability opens the write-ahead log, replays its tail over the
// (possibly checkpoint-restored) graph, and arms the group-commit write
// path. Called once from NewSystem.
func (s *System) enableDurability() error {
	if err := os.MkdirAll(s.cfg.WALDir, 0o755); err != nil {
		return fmt.Errorf("longtail: wal dir: %w", err)
	}
	log, err := wal.Open(filepath.Join(s.cfg.WALDir, walFileName))
	if err != nil {
		return fmt.Errorf("longtail: %w", err)
	}
	// The restored image covers every record below the log's base
	// sequence; the epoch it carries is the last checkpoint's.
	s.lastCkptEpoch.Store(s.g.Epoch())
	// Replay the tail: every durable record the last checkpoint does not
	// cover. A torn final record (crash mid-append) was already truncated
	// away by Open; a crash between checkpoint and log truncation leaves
	// records below the checkpoint's coverage, which the sequence gate
	// skips.
	if err := log.Replay(log.BaseSeq(), func(_ uint64, rec wal.Record) error {
		return s.applyRecord(rec)
	}); err != nil {
		log.Close()
		return fmt.Errorf("longtail: wal replay: %w", err)
	}
	ing, err := wal.NewIngester(log, s.applyRecords, wal.BatchOptions{
		MaxBatch: s.cfg.WALMaxBatch,
		MaxDelay: s.cfg.WALMaxDelay,
	})
	if err != nil {
		log.Close()
		return fmt.Errorf("longtail: %w", err)
	}
	s.wlog, s.ing = log, ing
	return nil
}

// applyDurable is ApplyRating's write path when durability is on. A
// non-nil error means the write took NO effect — invalid input, or a
// durability failure (retryable).
func (s *System) applyDurable(user, item int, score float64) (bool, uint64, error) {
	// Reject before logging: garbage must not reach the log.
	if err := s.g.CheckWrite(user, item, score, s.cfg.AutoGrow); err != nil {
		return false, s.g.Epoch(), err
	}
	op := wal.OpUpsert
	if s.cfg.AutoGrow {
		op = wal.OpUpsertAutoGrow
	}
	out, err := s.ing.Submit(wal.Record{Op: op, User: user, Item: item, Score: score})
	if err != nil {
		// Not durable, not applied: the caller may retry.
		return false, s.g.Epoch(), err
	}
	return out.added, out.epoch, out.err
}

// applyRecords is the ingester's apply hook: it applies one durable batch
// as ONE UpsertRatingsBatch — one lock acquisition and one epoch bump
// however many writers the batch carries. Outcomes align with records by
// index.
func (s *System) applyRecords(recs []wal.Record) []writeOutcome {
	ops := make([]graph.WriteOp, len(recs))
	for k, rec := range recs {
		ops[k] = graph.WriteOp{
			User:     rec.User,
			Item:     rec.Item,
			Score:    rec.Score,
			AutoGrow: rec.Op == wal.OpUpsertAutoGrow,
		}
	}
	results := s.g.UpsertRatingsBatch(ops)
	epoch := s.g.Epoch()
	out := make([]writeOutcome, len(recs))
	for k, res := range results {
		out[k] = writeOutcome{added: res.Added, epoch: epoch, err: res.Err}
	}
	return out
}

// applyRecord replays one WAL record into the graph directly, without
// logging — the recovery path, where the record is by definition already
// durable. Idempotent over a checkpoint that includes it: an upsert that
// re-writes the same score is a no-op and moves no epoch.
func (s *System) applyRecord(rec wal.Record) error {
	var err error
	switch rec.Op {
	case wal.OpUpsertAutoGrow:
		_, err = s.g.UpsertRatingAutoGrow(rec.User, rec.Item, rec.Score)
	case wal.OpUpsert:
		_, err = s.g.UpsertRating(rec.User, rec.Item, rec.Score)
	default:
		err = fmt.Errorf("unknown WAL op %d", rec.Op)
	}
	return err
}

// SnapshotRefresh runs one durability maintenance cycle: it compacts the
// graph, writes an atomic checkpoint to Config.WALDir (a crash leaves the
// old checkpoint intact) and truncates the log behind it. Serialized
// against the group-commit stream, so acknowledged writes are never lost
// or double-applied; concurrent reads keep being served, and no epoch
// moves. Errors if the System has no WALDir. ltr-server runs this on a
// timer (-checkpoint-interval).
func (s *System) SnapshotRefresh() error {
	if s.wlog == nil {
		return fmt.Errorf("longtail: no WAL directory configured")
	}
	if err := s.checkpoint(); err != nil {
		return fmt.Errorf("longtail: %w", err)
	}
	return nil
}

// checkpoint runs refresh under the ingester barrier, serialized against
// every group commit; once Close has stopped the ingester nothing can
// race, and it runs directly (the final checkpoint of a graceful
// shutdown).
func (s *System) checkpoint() error {
	var err error
	if berr := s.ing.Barrier(func() { err = s.refresh() }); berr != nil {
		if !errors.Is(berr, wal.ErrClosed) {
			return berr
		}
		return s.refresh()
	}
	return err
}

// refresh is the cycle body. Caller guarantees no concurrent applies. The
// log is truncated only after the checkpoint is durably on disk; a crash
// between the two leaves a log whose replay over the new checkpoint is
// sequence-gated and idempotent.
func (s *System) refresh() error {
	// The checkpoint serializes a folded CSR and the restart begins with
	// no pending overlay.
	s.g.Compact()
	// Seq is read under the barrier, so it names exactly the records the
	// image includes.
	seq := s.wlog.Seq()
	cp := &persist.FleetCheckpoint{
		Seq:       seq,
		BaseUsers: s.g.BaseNumUsers(),
		BaseItems: s.g.BaseNumItems(),
		Snapshot:  s.g.Snapshot(),
	}
	if err := persist.SaveFile(filepath.Join(s.cfg.WALDir, checkpointFileName), func(w io.Writer) error {
		return persist.SaveFleetCheckpoint(w, cp)
	}); err != nil {
		return err
	}
	if err := s.wlog.ResetTo(seq); err != nil {
		return err
	}
	s.lastCkptEpoch.Store(cp.Snapshot.Epoch)
	return nil
}

// durabilityStats reports where the write-ahead log stands.
func (s *System) durabilityStats() core.DurabilityStats {
	if s.wlog == nil {
		return core.DurabilityStats{}
	}
	return core.DurabilityStats{
		Enabled:             true,
		DurableSeq:          s.wlog.Seq(),
		PendingBatch:        s.ing.Pending(),
		LastCheckpointEpoch: s.lastCkptEpoch.Load(),
	}
}

// Close shuts the durable write path down gracefully: it commits the
// pending group-commit batch (writers racing Close get a retryable
// error), writes a final checkpoint covering everything, and closes the
// log. Idempotent; a no-op for systems without a WAL directory. Serving
// reads remain available throughout and after.
func (s *System) Close() error {
	s.closeOnce.Do(func() {
		if s.wlog == nil {
			return
		}
		s.ing.Close()
		if err := s.checkpoint(); err != nil {
			s.closeErr = fmt.Errorf("longtail: final checkpoint: %w", err)
		}
		if err := s.wlog.Close(); err != nil && s.closeErr == nil {
			s.closeErr = fmt.Errorf("longtail: %w", err)
		}
	})
	return s.closeErr
}
