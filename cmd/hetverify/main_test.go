package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunOneSeed drives the command in process the way `make
// differential` does, one seed of each harness: the batch differential
// with the chaos matrix, and the live one.
func TestRunOneSeed(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-seeds", "1", "-chaos"}, "OK: 1 seeds (chaos=true, positional=false)"},
		{[]string{"-seeds", "1", "-live", "-live-ops", "150"}, "OK: 1 live seeds (150 ops each, positional=false)"},
	} {
		var out bytes.Buffer
		if err := run(tc.args, &out); err != nil {
			t.Fatalf("hetverify %v: %v\n%s", tc.args, err, out.String())
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("hetverify %v printed %q, want it to contain %q", tc.args, out.String(), tc.want)
		}
	}
}
