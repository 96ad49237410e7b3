package store

// WalStats summarises the on-disk log for /metrics. Safe for
// concurrent use with the writing goroutine; sizes are advisory (a
// racing append or compaction skews them by at most one segment).
type WalStats struct {
	CommittedLSN  uint64 `json:"committed_lsn"`
	Segments      int    `json:"segments"`
	Bytes         int64  `json:"bytes"`
	Snapshots     int    `json:"snapshots"`
	SnapshotLSN   uint64 `json:"snapshot_lsn"`
	SnapshotBytes int64  `json:"snapshot_bytes"`
}

// WalStats reports the committed watermark and the on-disk footprint of
// the log and snapshots.
func (s *Store) WalStats() WalStats {
	st := WalStats{CommittedLSN: s.commitLSN.Load()}
	snaps, segs, err := storeFiles(s.fs, s.dir)
	if err != nil {
		return st
	}
	st.Snapshots, st.Segments = len(snaps), len(segs)
	// A file a racing compaction removed reads as size 0.
	for _, lsn := range snaps {
		st.SnapshotLSN = lsn
		sz, _ := s.fs.Size(join(s.dir, snapName(lsn)))
		st.SnapshotBytes += sz
	}
	for _, lsn := range segs {
		sz, _ := s.fs.Size(join(s.dir, walName(lsn)))
		st.Bytes += sz
	}
	return st
}
