package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSelfcheck drives the command in process the way `make
// trace-serve` does: a live index in an empty directory, the seeded
// selfcheck load over a loopback port (every endpoint, every search
// mode, the debug surfaces), then a clean exit with the closers run.
func TestRunSelfcheck(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"non-positional", nil},
		{"positional", []string{"-positional"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			trace := filepath.Join(dir, "req.jsonl")
			args := append([]string{"-live", "-selfcheck", "-index", filepath.Join(dir, "seg"),
				"-sample", "1", "-slow-ms", "-1", "-trace-requests", trace}, tc.args...)
			var out bytes.Buffer
			if err := run(args, &out); err != nil {
				t.Fatalf("hetserve %v: %v\n%s", args, err, out.String())
			}
			for _, want := range []string{
				"hetserve: live index, 0 docs in 0 segments — listening on a loopback selfcheck port",
				"hetserve: selfcheck passed",
			} {
				if !strings.Contains(out.String(), want) {
					t.Errorf("hetserve %v printed %q, want it to contain %q", args, out.String(), want)
				}
			}
			// The closers ran: what the load ingested is sealed on disk,
			// so a second run over the same directory opens it.
			out.Reset()
			if err := run(append(args[:4:4], tc.args...), &out); err != nil {
				t.Fatalf("second run: %v\n%s", err, out.String())
			}
			if strings.Contains(out.String(), "live index, 0 docs") {
				t.Errorf("second run found an empty index: %s", out.String())
			}
		})
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-selfcheck", "-index", t.TempDir()}, // -selfcheck without -live
		{"-index", filepath.Join(t.TempDir(), "missing")},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("hetserve %v: no error\n%s", args, out.String())
		}
	}
}
