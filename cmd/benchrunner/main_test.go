package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunTableIII drives the command in process on the smallest
// collections it takes: the table's title, its six columns and one row
// per synthetic collection, each with six fields. It reads no timing.
func TestRunTableIII(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-table", "3", "-files", "2", "-scale", "0.25"}, &out); err != nil {
		t.Fatalf("benchrunner -table 3: %v\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 5 || !strings.HasPrefix(lines[0], "TABLE III.") {
		t.Fatalf("want a title, a header and three rows, got:\n%s", out.String())
	}
	if got := strings.Fields(lines[1]); strings.Join(got, " ") != "Collection Compressed Uncompressed Documents Terms Tokens" {
		t.Errorf("header = %q", lines[1])
	}
	for i, name := range []string{"ClueWeb09-like", "Wikipedia01-07-like", "LibraryOfCongress-like"} {
		if row := strings.Fields(lines[2+i]); len(row) != 6 || row[0] != name {
			t.Errorf("row %d = %q, want six fields starting with %s", i, lines[2+i], name)
		}
	}
}
