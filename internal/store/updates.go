package store

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"adp/internal/composite"
	"adp/internal/graph"
	"adp/internal/refine"
)

// The textual update stream is the WAL record grammar spelled out for
// humans — the `adpart -updates` driver and the tests speak it:
//
//	+ U V [D0 D1 ... Dk-1]   insert edge (U,V); the optional Di name
//	                         the destination fragment per bundled
//	                         partition, defaulting to locality routing
//	- U V                    delete edge (U,V)
//	commit                   batch boundary (ack point)
//
// Blank lines and lines starting with '#' are skipped.

// MutKind enumerates update-stream operations.
type MutKind uint8

const (
	MutInsert MutKind = iota + 1
	MutDelete
	MutCommit
)

// Mutation is one parsed update-stream line.
type Mutation struct {
	Kind MutKind
	U, V graph.VertexID
	// Dest is the explicit destination vector of an insert; nil routes
	// by locality.
	Dest []int
}

// String renders the mutation in the update-stream grammar.
func (m Mutation) String() string {
	switch m.Kind {
	case MutInsert:
		s := fmt.Sprintf("+ %d %d", m.U, m.V)
		for _, d := range m.Dest {
			s += fmt.Sprintf(" %d", d)
		}
		return s
	case MutDelete:
		return fmt.Sprintf("- %d %d", m.U, m.V)
	case MutCommit:
		return "commit"
	}
	return "invalid"
}

// ParseUpdates reads an update stream. Line numbers appear in errors.
func ParseUpdates(r io.Reader) ([]Mutation, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	var muts []Mutation
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "commit":
			if len(fields) != 1 {
				return nil, fmt.Errorf("updates: line %d: commit takes no operands", line)
			}
			muts = append(muts, Mutation{Kind: MutCommit})
		case "+", "-":
			if len(fields) < 3 {
				return nil, fmt.Errorf("updates: line %d: %q needs two vertex ids", line, fields[0])
			}
			u, err := strconv.ParseUint(fields[1], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("updates: line %d: bad vertex %q", line, fields[1])
			}
			v, err := strconv.ParseUint(fields[2], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("updates: line %d: bad vertex %q", line, fields[2])
			}
			m := Mutation{U: graph.VertexID(u), V: graph.VertexID(v)}
			if fields[0] == "-" {
				if len(fields) != 3 {
					return nil, fmt.Errorf("updates: line %d: delete takes no destinations", line)
				}
				m.Kind = MutDelete
			} else {
				m.Kind = MutInsert
				for _, f := range fields[3:] {
					d, err := strconv.Atoi(f)
					if err != nil || d < 0 {
						return nil, fmt.Errorf("updates: line %d: bad destination %q", line, f)
					}
					m.Dest = append(m.Dest, d)
				}
			}
			muts = append(muts, m)
		default:
			return nil, fmt.Errorf("updates: line %d: unknown op %q (want +, - or commit)", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("updates: %w", err)
	}
	return muts, nil
}

// RouteDest derives a destination vector for inserting (u,v): each
// bundled partition routes independently by endpoint locality.
func RouteDest(c *composite.Composite, u, v graph.VertexID) []int {
	dest := make([]int, c.K())
	for j := range dest {
		dest[j] = refine.RouteFragment(c.Partition(j), u, v)
	}
	return dest
}

// Apply runs a parsed update stream through the store: inserts and
// deletes between commit markers form one durable batch each; a
// trailing unterminated batch is committed at the end. It returns the
// number of applied inserts and deletes. A failure part-way leaves the
// mutations before it applied in memory but never acked, so it poisons
// the store like any other write-path error.
func (s *Store) Apply(muts []Mutation) (inserts, deletes int, err error) {
	inserts, deletes, _, err = s.ApplyRetrying(muts, 0, 0)
	return inserts, deletes, err
}

// ApplyRetrying is Apply with every commit under the fsync retry
// ladder: a transient commit-time fsync failure is retried in place up
// to attempts times, backing off from base and doubling — the store
// keeps the interrupted commit's bytes pending, so a retry that lands
// completes exactly that commit and the stream carries on. It also
// reports the retries made.
func (s *Store) ApplyRetrying(muts []Mutation, attempts int, base time.Duration) (inserts, deletes, retries int, err error) {
	commit := func() error {
		n, err := s.retrySyncLadder(s.Commit(), attempts, base, nil)
		retries += n
		return err
	}
	for i, m := range muts {
		switch m.Kind {
		case MutInsert:
			if err = s.Insert(m.U, m.V, m.Dest); err == nil {
				inserts++
			}
		case MutDelete:
			if _, err = s.Delete(m.U, m.V); err == nil {
				deletes++
			}
		case MutCommit:
			err = commit()
		}
		if err != nil {
			return inserts, deletes, retries, s.fail(fmt.Errorf("store: mutation %d: %w", i, err))
		}
	}
	return inserts, deletes, retries, commit()
}

// Fold applies an update stream to a composite that no store fronts —
// the same coherent insert/delete without the log, for `adpart
// -updates` and for catching a maintenance candidate up. Commit markers
// are framing only; an insert without destinations is routed by
// locality against c. It returns the inserts applied and the deletes
// that found their edge, so a caller that must refuse an absent delete
// can count.
func Fold(c *composite.Composite, muts []Mutation) (inserts, deletesFound int, err error) {
	g := c.Partition(0).Graph()
	for i, m := range muts {
		switch m.Kind {
		case MutInsert:
			dest := m.Dest
			if len(dest) == 0 {
				dest = RouteDest(c, m.U, m.V)
			}
			if err = checkEdge(g, m.U, m.V); err == nil {
				err = checkDest(c, dest)
			}
			if err == nil {
				err = c.InsertEdge(m.U, m.V, dest)
			}
			if err != nil {
				return inserts, deletesFound, fmt.Errorf("store: mutation %d: %w", i, err)
			}
			inserts++
		case MutDelete:
			if c.DeleteEdge(m.U, m.V) {
				deletesFound++
			}
		}
	}
	return inserts, deletesFound, nil
}
