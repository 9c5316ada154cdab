package main

import (
	"log/slog"
	"time"

	"simjoin"
	"simjoin/internal/store"
)

// attachStore wires a recovered catalog into the server: every recovered
// dataset becomes a served entry, mutating handlers start teeing through
// the store, and the live WAL size becomes a scrape-time gauge.
func (s *server) attachStore(cat *store.Catalog) {
	s.st = cat
	s.rec = cat.Recovery()
	for name, ds := range cat.Datasets() {
		// newEntry rebuilds each dataset's join-size sketch from the
		// recovered points, so estimates survive restarts too.
		s.sets[name] = newEntry(simjoin.WrapDataset(ds))
	}
	s.m.reg.NewGaugeFunc("simjoind_store_wal_bytes",
		"Current total write-ahead log size across datasets.",
		func() float64 { return float64(cat.WALBytes()) })
}

// storeHooks routes the storage engine's observability callbacks into
// the server's Prometheus registry.
func storeHooks(m *metrics) store.Hooks {
	return store.Hooks{
		WALAppend: func(d time.Duration, bytes int) {
			m.storeWALAppend.Observe(d.Seconds())
			m.storeWALBytes.Add(int64(bytes))
		},
		Snapshot: func(d time.Duration, bytes int) {
			m.storeSnapshot.Observe(d.Seconds())
		},
		Compaction: func(d time.Duration) {
			m.storeCompactions.Inc()
			m.storeCompaction.Observe(d.Seconds())
		},
		Fsync: func() { m.storeFsyncs.Inc() },
	}
}

// logRecovery emits one structured line per recovered dataset plus one
// per quarantined directory, so a restart's replay is auditable.
func logRecovery(logger *slog.Logger, dir string, rec store.RecoveryInfo) {
	for _, d := range rec.Datasets {
		logger.Info("recovered dataset",
			"name", d.Name, "points", d.Points, "dims", d.Dims,
			"wal_records", d.Records, "wal_bytes", d.WALBytes,
			"tail_truncated", d.TailTruncated)
	}
	for _, q := range rec.Quarantined {
		logger.Error("quarantined dataset directory", "name", q.Name, "error", q.Error)
	}
	logger.Info("storage recovered", "dir", dir,
		"datasets", len(rec.Datasets), "records", rec.Records(),
		"truncated_tails", rec.TruncatedTails(), "quarantined", len(rec.Quarantined))
}
