// Package store is the crash-consistent on-disk home of a composite
// partition: an append-only CRC-framed write-ahead log of coherent
// edge mutations in front of periodic full snapshots in the existing
// composite serialisation format. Recovery (Open) replays the log onto
// the latest snapshot, truncating at the first torn or corrupt frame
// and discarding any un-acked tail, so a process kill at any byte of
// any write leaves a state identical to some committed prefix of the
// mutation history — never a panic, a half-applied batch, or a corrupt
// coherence index. See DESIGN.md, "Durability".
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"adp/internal/graph"
)

// WAL segment wire format (all little-endian):
//
//	header:  [segMagic u32][segVersion u32]
//	v2:      [segMagic u32][2 u32][k u16][k × dest u32]
//	frame:   [payloadLen u32][crc32c u32][payload]
//	payload: [lsn u64][kind u8][body]
//
// A version-2 header additionally records the destination vector in
// effect when the segment was opened. Replication followers append the
// leader's frames verbatim into segments whose boundaries do not line
// up with the leader's, so — unlike the leader, which re-logs a recDest
// on the first insert of every fresh segment — a follower segment may
// open mid-batch with a sticky recDest that lives in an earlier
// (possibly compacted) file. The header extension keeps every segment
// self-contained for replay without consuming an LSN.
//
// The CRC (Castagnoli) covers the payload only; payloadLen covers the
// payload only. Record kinds and bodies:
//
//	recDest   [k u16][k × dest u32]  sets the destination vector for
//	                                 subsequent inserts (sticky state)
//	recInsert [u u32][v u32]         coherent InsertEdge with the
//	                                 current destination vector
//	recDelete [u u32][v u32]         coherent DeleteEdge
//	recCommit [count u32]            batch boundary: everything since
//	                                 the previous commit is now acked
//
// LSNs are assigned per frame, increase by exactly 1, and never reset;
// a snapshot file's name carries the highest LSN it covers, so replay
// skips every frame at or below it.

const (
	segMagic   = uint32(0xAD9A_0005)
	segVersion = uint32(1)
	// segVersionDest marks a header carrying the sticky destination
	// vector (follower-opened segments).
	segVersionDest = uint32(2)
	segHdrLen      = 8
	frameHdr       = 8 // payloadLen + crc
	// maxFramePayload caps what a frame may declare; the largest real
	// payload is a recDest with 32 destinations (~140 bytes), so
	// anything near the cap is corruption, not data.
	maxFramePayload = 1 << 16
)

type recKind uint8

const (
	recDest recKind = iota + 1
	recInsert
	recDelete
	recCommit
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frame is one decoded WAL record.
type frame struct {
	lsn  uint64
	kind recKind
	body []byte
	// off and end are the frame's byte extent within the segment
	// (header included), so callers can truncate exactly at a boundary.
	off, end int64
}

// appendFrame encodes one record onto buf and returns the extended
// buffer. The payload is assembled directly in buf and the CRC patched
// in afterwards, so no intermediate payload slice exists: hdr and pfx
// stay on the stack (only their bytes are appended) and crc32.Checksum
// sees only buf, which the caller already owns on the heap. A
// steady-state append into retained capacity therefore performs zero
// heap allocations — the wal_append bench contract, pinned by
// TestWalAppendAllocFree.
func appendFrame(buf []byte, lsn uint64, kind recKind, body []byte) []byte {
	start := len(buf)
	var hdr [frameHdr]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(9+len(body)))
	buf = append(buf, hdr[:]...)
	var pfx [9]byte
	binary.LittleEndian.PutUint64(pfx[:], lsn)
	pfx[8] = byte(kind)
	buf = append(buf, pfx[:]...)
	buf = append(buf, body...)
	crc := crc32.Checksum(buf[start+frameHdr:], castagnoli)
	binary.LittleEndian.PutUint32(buf[start+4:], crc)
	return buf
}

// Damage classifies why a WAL scan stopped before the end of the
// segment bytes.
type Damage struct {
	// Offset is where the undecodable region starts.
	Offset int64 `json:"offset"`
	// Reason is a frame-level diagnosis: torn frame, CRC mismatch,
	// bad kind, or an LSN break.
	Reason string `json:"reason"`
}

func (d *Damage) Error() string {
	return fmt.Sprintf("wal: %s at offset %d", d.Reason, d.Offset)
}

// errBadSegHeader marks a segment whose 8-byte header is wrong; the
// whole file is untrusted.
var errBadSegHeader = errors.New("wal: bad segment header")

// parseSegmentHeader validates a segment header and returns the sticky
// destination vector it carries (nil for version 1) plus the header
// length in bytes.
func parseSegmentHeader(data []byte) ([]int, int64, error) {
	if len(data) < segHdrLen {
		return nil, 0, errBadSegHeader
	}
	if binary.LittleEndian.Uint32(data) != segMagic {
		return nil, 0, errBadSegHeader
	}
	switch v := binary.LittleEndian.Uint32(data[4:]); v {
	case segVersion:
		return nil, segHdrLen, nil
	case segVersionDest:
		// The extension is a recDest body: [k u16][k × dest u32].
		if len(data) < segHdrLen+2 {
			return nil, 0, fmt.Errorf("%w: torn dest extension", errBadSegHeader)
		}
		end := segHdrLen + 2 + 4*int(binary.LittleEndian.Uint16(data[segHdrLen:]))
		if len(data) < end {
			return nil, 0, fmt.Errorf("%w: torn dest extension", errBadSegHeader)
		}
		dest, err := decodeDest(data[segHdrLen:end])
		if err != nil {
			return nil, 0, fmt.Errorf("%w: %v", errBadSegHeader, err)
		}
		return dest, int64(end), nil
	default:
		return nil, 0, fmt.Errorf("%w: version %d", errBadSegHeader, v)
	}
}

// segmentHeaderLen returns the header length of a segment, or segHdrLen
// when the header is unreadable (the legacy truncation floor).
func segmentHeaderLen(data []byte) int64 {
	_, n, err := parseSegmentHeader(data)
	if err != nil {
		return segHdrLen
	}
	return n
}

// scanSegment decodes the frames of one segment. It returns every
// frame that decodes cleanly in order, and a non-nil *Damage when the
// scan stopped early (torn tail, CRC mismatch, kind or LSN breakage).
// wantLSN is the LSN the first frame must carry; pass 0 to accept any
// start. A clean, fully-consumed segment returns (frames, nil, nil).
func scanSegment(data []byte, wantLSN uint64) ([]frame, *Damage, error) {
	frames, _, dmg, err := scanSegmentDest(data, wantLSN)
	return frames, dmg, err
}

// scanSegmentDest is scanSegment plus the header's sticky destination
// vector (nil for a version-1 header).
func scanSegmentDest(data []byte, wantLSN uint64) ([]frame, []int, *Damage, error) {
	hdrDest, off, herr := parseSegmentHeader(data)
	if herr != nil {
		return nil, nil, nil, herr
	}
	var frames []frame
	next := wantLSN
	for off < int64(len(data)) {
		rest := data[off:]
		if len(rest) < frameHdr {
			return frames, hdrDest, &Damage{Offset: off, Reason: fmt.Sprintf("torn frame header (%d trailing bytes)", len(rest))}, nil
		}
		plen := binary.LittleEndian.Uint32(rest)
		crc := binary.LittleEndian.Uint32(rest[4:])
		if plen < 9 || plen > maxFramePayload {
			return frames, hdrDest, &Damage{Offset: off, Reason: fmt.Sprintf("implausible payload length %d", plen)}, nil
		}
		if int64(len(rest)) < frameHdr+int64(plen) {
			return frames, hdrDest, &Damage{Offset: off, Reason: fmt.Sprintf("torn frame (%d of %d payload bytes)", len(rest)-frameHdr, plen)}, nil
		}
		payload := rest[frameHdr : frameHdr+int(plen)]
		if got := crc32.Checksum(payload, castagnoli); got != crc {
			return frames, hdrDest, &Damage{Offset: off, Reason: fmt.Sprintf("crc mismatch (stored %#x, computed %#x)", crc, got)}, nil
		}
		f := frame{
			lsn:  binary.LittleEndian.Uint64(payload),
			kind: recKind(payload[8]),
			body: payload[9:],
			off:  off,
			end:  off + frameHdr + int64(plen),
		}
		if f.kind < recDest || f.kind > recCommit {
			return frames, hdrDest, &Damage{Offset: off, Reason: fmt.Sprintf("unknown record kind %d", payload[8])}, nil
		}
		if next != 0 && f.lsn != next {
			return frames, hdrDest, &Damage{Offset: off, Reason: fmt.Sprintf("lsn break (want %d, got %d)", next, f.lsn)}, nil
		}
		next = f.lsn + 1
		frames = append(frames, f)
		off = f.end
	}
	return frames, hdrDest, nil, nil
}

// decodeDest parses a recDest body.
func decodeDest(body []byte) ([]int, error) {
	if len(body) < 2 {
		return nil, fmt.Errorf("wal: dest body too short (%d bytes)", len(body))
	}
	k := int(binary.LittleEndian.Uint16(body))
	if k < 1 || k > 32 {
		return nil, fmt.Errorf("wal: dest vector length %d out of range [1,32]", k)
	}
	if len(body) != 2+4*k {
		return nil, fmt.Errorf("wal: dest body is %d bytes, want %d", len(body), 2+4*k)
	}
	dest := make([]int, k)
	for j := 0; j < k; j++ {
		dest[j] = int(binary.LittleEndian.Uint32(body[2+4*j:]))
	}
	return dest, nil
}

func encodeDest(dest []int) []byte {
	body := make([]byte, 2+4*len(dest))
	binary.LittleEndian.PutUint16(body, uint16(len(dest)))
	for j, d := range dest {
		binary.LittleEndian.PutUint32(body[2+4*j:], uint32(d))
	}
	return body
}

// decodeEdge parses a recInsert/recDelete body.
func decodeEdge(body []byte) (u, v uint32, err error) {
	if len(body) != 8 {
		return 0, 0, fmt.Errorf("wal: edge body is %d bytes, want 8", len(body))
	}
	return binary.LittleEndian.Uint32(body), binary.LittleEndian.Uint32(body[4:]), nil
}

// putEdge fills an 8-byte edge body in place so hot append paths can
// use a stack buffer instead of a per-record heap allocation.
func putEdge(body []byte, u, v graph.VertexID) {
	binary.LittleEndian.PutUint32(body, uint32(u))
	binary.LittleEndian.PutUint32(body[4:], uint32(v))
}

func newSegmentHeader() []byte {
	hdr := make([]byte, segHdrLen)
	binary.LittleEndian.PutUint32(hdr, segMagic)
	binary.LittleEndian.PutUint32(hdr[4:], segVersion)
	return hdr
}

// newSegmentHeaderDest builds a version-2 header carrying the sticky
// destination vector in effect at segment open, as a recDest body.
func newSegmentHeaderDest(dest []int) []byte {
	hdr := newSegmentHeader()
	binary.LittleEndian.PutUint32(hdr[4:], segVersionDest)
	return append(hdr, encodeDest(dest)...)
}
