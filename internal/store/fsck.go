package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"adp/internal/composite"
	"adp/internal/graph"
)

// Fsck is the offline integrity walk behind `adpart -fsck <dir>`: it
// classifies every snapshot and every WAL frame without opening the
// store for writing, and (with repair) cuts the log where Open's
// recovery would.

// SnapshotStatus describes one snapshot file.
type SnapshotStatus struct {
	Name  string `json:"name"`
	LSN   uint64 `json:"lsn"`
	Bytes int64  `json:"bytes"`
	// Err is empty for a readable snapshot. Deep parsing requires the
	// graph; with a nil graph only existence and size are checked and
	// Err is empty unless the file is unreadable.
	Err string `json:"error,omitempty"`
}

// SegmentStatus describes one WAL segment file.
type SegmentStatus struct {
	Name     string `json:"name"`
	StartLSN uint64 `json:"start_lsn"`
	Bytes    int64  `json:"bytes"`
	// Frames counts cleanly decoded frames; Commits the commit markers
	// among them; Mutations the insert/delete records.
	Frames    int    `json:"frames"`
	Commits   int    `json:"commits"`
	Mutations int    `json:"mutations"`
	LastLSN   uint64 `json:"last_lsn"`
	// Damage is non-nil when decoding stopped before the end of file.
	Damage *Damage `json:"damage,omitempty"`
	// UncommittedFrames counts clean frames after the last commit
	// marker (an un-acked tail — not damage, but Open will discard it).
	UncommittedFrames int `json:"uncommitted_frames"`
	// CommittedEnd is the byte offset just past the last commit marker
	// (the repair truncation point when Damage is set).
	CommittedEnd int64 `json:"committed_end"`
}

// FsckReport is the full classification of a store directory.
type FsckReport struct {
	Dir       string           `json:"dir"`
	Snapshots []SnapshotStatus `json:"snapshots"`
	Segments  []SegmentStatus  `json:"segments"`
	// ChainBroken names the first live segment that breaks Open's chain
	// rule (linkBreak) and why: an LSN gap between segments, or a log
	// that does not reach back to the snapshot.
	ChainBroken string `json:"chain_broken,omitempty"`
	// Repaired lists the repair actions taken (empty without repair).
	Repaired []string `json:"repaired,omitempty"`
}

// Healthy reports whether every snapshot parses, every frame decodes,
// no un-acked tail lingers, and the segment chain is unbroken.
func (r *FsckReport) Healthy() bool {
	for _, s := range r.Snapshots {
		if s.Err != "" {
			return false
		}
	}
	for _, s := range r.Segments {
		if s.Damage != nil || s.UncommittedFrames > 0 {
			return false
		}
	}
	return r.ChainBroken == ""
}

// Format renders the report for humans, one line per file.
func (r *FsckReport) Format(w io.Writer) {
	fmt.Fprintf(w, "fsck %s: ", r.Dir)
	if r.Healthy() {
		fmt.Fprintln(w, "healthy")
	} else {
		fmt.Fprintln(w, "DAMAGED")
	}
	for _, s := range r.Snapshots {
		status := "ok"
		if s.Err != "" {
			status = "CORRUPT: " + s.Err
		}
		fmt.Fprintf(w, "  %s  lsn=%d  %d bytes  %s\n", s.Name, s.LSN, s.Bytes, status)
	}
	for _, s := range r.Segments {
		span := fmt.Sprintf("lsn=%d..%d", s.StartLSN, s.LastLSN)
		if s.Frames == 0 {
			span = fmt.Sprintf("lsn=%d (empty)", s.StartLSN)
		}
		fmt.Fprintf(w, "  %s  %s  %d bytes  %d frames (%d muts, %d commits)",
			s.Name, span, s.Bytes, s.Frames, s.Mutations, s.Commits)
		if s.UncommittedFrames > 0 {
			fmt.Fprintf(w, "  UNCOMMITTED TAIL: %d frames past offset %d", s.UncommittedFrames, s.CommittedEnd)
		}
		if s.Damage != nil {
			fmt.Fprintf(w, "  DAMAGE: %s at offset %d", s.Damage.Reason, s.Damage.Offset)
		}
		fmt.Fprintln(w)
	}
	if r.ChainBroken != "" {
		fmt.Fprintf(w, "  CHAIN BROKEN at %s\n", r.ChainBroken)
	}
	for _, a := range r.Repaired {
		fmt.Fprintf(w, "  repaired: %s\n", a)
	}
}

// WriteJSON renders the report machine-readably (`adpart -fsck -json`):
// the full classification plus the aggregate health verdict, so chaos
// suites and operators can assert on frame classes programmatically.
func (r *FsckReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Healthy bool `json:"healthy"`
		*FsckReport
	}{r.Healthy(), r})
}

// Fsck walks the store directory and classifies every file. g enables
// deep snapshot verification (composite parse + index validation); a
// nil g checks snapshots for readability only. The segment chain is
// checked by Open's rule (linkBreak) from the newest usable snapshot.
// With repair set, an unhealthy log gets exactly the cut Open's
// recovery would make (cutLog): segments past it are removed and the
// one holding it is truncated. Damaged segments the snapshot already
// covers, which Open never reads, are truncated to their last commit.
// The actions are recorded in Repaired, and the returned report
// describes the repaired directory.
func Fsck(dir string, g *graph.Graph, repair bool) (*FsckReport, error) {
	fs := vfs(osVFS{})
	snapLSNs, segLSNs, err := storeFiles(fs, dir)
	if err != nil {
		return nil, fmt.Errorf("fsck: %w", err)
	}
	rep := &FsckReport{Dir: dir}

	// snapLSN is the snapshot Open would start from: the newest usable.
	var snapLSN uint64
	usable := false
	for _, lsn := range snapLSNs {
		st := SnapshotStatus{Name: snapName(lsn), LSN: lsn}
		data, err := fs.ReadFile(join(dir, st.Name))
		if err != nil {
			st.Err = err.Error()
		} else {
			st.Bytes = int64(len(data))
			if g != nil {
				c, err := composite.Read(bytes.NewReader(data), g)
				if err != nil {
					st.Err = err.Error()
				} else if err := c.ValidateIndex(); err != nil {
					st.Err = err.Error()
				}
			}
		}
		if st.Err == "" {
			snapLSN, usable = lsn, true
		}
		rep.Snapshots = append(rep.Snapshots, st)
	}

	// hdrLen[i] is segment i's header length: 0 when its header is
	// unreadable, -1 when the file is.
	hdrLen := make([]int64, len(segLSNs))
	for i, lsn := range segLSNs {
		st := SegmentStatus{Name: walName(lsn), StartLSN: lsn, CommittedEnd: segHdrLen}
		data, err := fs.ReadFile(join(dir, st.Name))
		if err != nil {
			st.Damage = &Damage{Offset: 0, Reason: err.Error()}
			rep.Segments = append(rep.Segments, st)
			hdrLen[i] = -1
			continue
		}
		st.Bytes = int64(len(data))
		frames, dmg, serr := scanSegment(data, lsn)
		if serr != nil {
			st.Damage = &Damage{Offset: 0, Reason: serr.Error()}
		} else {
			st.Damage = dmg
			hdrLen[i] = segmentHeaderLen(data)
			st.CommittedEnd = hdrLen[i]
		}
		st.Frames = len(frames)
		sinceCommit := 0
		for _, f := range frames {
			st.LastLSN = f.lsn
			switch f.kind {
			case recCommit:
				st.Commits++
				st.CommittedEnd = f.end
				sinceCommit = 0
			case recInsert, recDelete:
				st.Mutations++
				sinceCommit++
			default:
				sinceCommit++
			}
		}
		st.UncommittedFrames = sinceCommit
		rep.Segments = append(rep.Segments, st)
	}

	// Open refuses a store with no usable snapshot, or whose usable one
	// is a fallback the compacted log no longer reaches back to, or with
	// an unreadable live segment: repair then has no cut to copy.
	refused := !usable || (snapLSN != snapLSNs[len(snapLSNs)-1] && len(segLSNs) > 0 && segLSNs[0] > snapLSN+1)

	// Open's walk over the live log, on the classification: the chain
	// rule, then where recovery would end the log.
	live := liveStart(segLSNs, snapLSN)
	keepSeg, keepOff := -1, int64(0)
	next := uint64(0)
	for si := live; si < len(segLSNs); si++ {
		st := &rep.Segments[si]
		if why := linkBreak(st.StartLSN, next, snapLSN); why != "" {
			rep.ChainBroken = fmt.Sprintf("%s (%s)", st.Name, why)
			break
		}
		if hdrLen[si] <= 0 {
			refused = refused || hdrLen[si] < 0
			break
		}
		if si == live {
			keepSeg, keepOff = si, hdrLen[si]
		}
		if st.Commits > 0 {
			keepSeg, keepOff = si, st.CommittedEnd
		}
		if st.Damage != nil {
			break
		}
		next = st.StartLSN + uint64(st.Frames)
	}

	if !repair || rep.Healthy() {
		return rep, nil
	}
	if refused {
		return rep, fmt.Errorf("fsck: Open refuses %s, so there is no cut to repair to", dir)
	}
	var actions []string
	cause := func(si int) string {
		st := rep.Segments[si]
		switch {
		case st.Damage != nil:
			return fmt.Sprintf("%s at offset %d", st.Damage.Reason, st.Damage.Offset)
		case st.UncommittedFrames > 0:
			return fmt.Sprintf("%d un-acked frames", st.UncommittedFrames)
		}
		return "past the point Open stops"
	}
	// Covered history Open never reads keeps its committed prefix.
	for si := 0; si < live; si++ {
		st := rep.Segments[si]
		if (st.Damage != nil || st.UncommittedFrames > 0) && st.Bytes > st.CommittedEnd {
			if err := fs.Truncate(join(dir, st.Name), st.CommittedEnd); err != nil {
				return rep, fmt.Errorf("fsck: repairing %s: %w", st.Name, err)
			}
			actions = append(actions, fmt.Sprintf("%s truncated from %d to %d bytes (cut %s)", st.Name, st.Bytes, st.CommittedEnd, cause(si)))
		}
	}
	cuts, err := cutLog(fs, dir, segLSNs, live, keepSeg, keepOff)
	for _, c := range cuts {
		name := rep.Segments[c.si].Name
		if c.keep < 0 {
			actions = append(actions, fmt.Sprintf("%s removed, %d bytes (cut %s)", name, c.bytes, cause(c.si)))
		} else {
			actions = append(actions, fmt.Sprintf("%s truncated from %d to %d bytes (cut %s)", name, c.bytes, c.keep, cause(c.si)))
		}
	}
	if err != nil {
		return rep, fmt.Errorf("fsck: repairing: %w", err)
	}
	// Report the repaired directory as it now stands.
	after, err := Fsck(dir, g, false)
	if err != nil {
		return rep, err
	}
	after.Repaired = actions
	return after, nil
}
