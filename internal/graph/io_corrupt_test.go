package graph

import (
	"errors"
	"strconv"
	"strings"
	"testing"
)

// TestReadEdgeListCorrupt tables the malformed-text failure modes: each
// must produce an error naming the offending line, never a panic or a
// silently wrong graph.
func TestReadEdgeListCorrupt(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  string // substring the error must contain
	}{
		{"non-numeric header count", "# vertices x directed\n0 1\n", "line 1"},
		{"negative header count", "# vertices -5 directed\n", "line 1"},
		{"header count over cap", "# vertices 999999999999 directed\n", "cap"},
		{"missing dst field", "# vertices 3 directed\n0\n", "line 2"},
		{"non-numeric src", "zz 1\n", "line 1"},
		{"non-numeric dst", "1 zz\n", "line 1"},
		{"negative vertex id", "-1 2\n", "line 1"},
		{"edge beyond declared range", "# vertices 3 directed\n0 5\n", "line 2"},
		{"later line beyond range", "# vertices 4 directed\n0 1\n1 2\n2 9\n", "line 4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadEdgeList(strings.NewReader(tc.input))
			if err == nil {
				t.Fatalf("corrupt input accepted: %q", tc.input)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestReadEdgeListWrapsParseError: the %w chain must expose the
// underlying strconv failure to errors.As.
func TestReadEdgeListWrapsParseError(t *testing.T) {
	_, err := ReadEdgeList(strings.NewReader("abc 1\n"))
	var numErr *strconv.NumError
	if !errors.As(err, &numErr) {
		t.Fatalf("error %v does not wrap a *strconv.NumError", err)
	}
}
