package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// query runs the command in process and returns what it printed after
// the "index: N terms, R runs" header, which differs by design.
func query(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("indexquery %v: %v\n%s", args, err, out.String())
	}
	_, postings, ok := strings.Cut(out.String(), "\n")
	if !ok || !strings.HasPrefix(out.String(), "index: ") {
		t.Fatalf("indexquery %v printed no header:\n%s", args, out.String())
	}
	return postings
}

// TestRoundTripPerRunAndMergedAgree is the CLI round trip: hetindex
// builds one synthetic corpus twice — once left as per-run files, once
// merged with self-tuned codecs — and indexquery must print the same
// postings lines from both, over the full range and over a docID range
// that cuts through the runs. hetverify, the last leg, generates its
// own corpora and is driven by its own package's test.
func TestRoundTripPerRunAndMergedAgree(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool to build hetindex with")
	}
	tmp := t.TempDir()
	hetindex := filepath.Join(tmp, "hetindex")
	if out, err := exec.Command(goTool, "build", "-o", hetindex, "fastinvert/cmd/hetindex").CombinedOutput(); err != nil {
		t.Fatalf("go build hetindex: %v\n%s", err, out)
	}
	d1, d2 := filepath.Join(tmp, "d1"), filepath.Join(tmp, "d2")
	for _, args := range [][]string{
		{"-files", "2", "-scale", "0.25", "-out", d1},
		{"-files", "2", "-scale", "0.25", "-out", d2, "-merge", "-codec", "auto"},
	} {
		if out, err := exec.Command(hetindex, args...).CombinedOutput(); err != nil {
			t.Fatalf("hetindex %v: %v\n%s", args, err, out)
		}
	}

	// The generated collection is 32 documents in two runs, [0,15] and
	// [16,31]; these three terms occur on both sides of the boundary.
	// The ranges cut through both runs, then name the second run alone.
	terms := []string{"Script", "said", "also", "the", "zzznotindexed"}
	for _, extra := range [][]string{{"-n", "100"}, {"-n", "100", "-range", "8:21"}, {"-n", "100", "-range", "16:31"}} {
		perRun := query(t, append(append([]string{"-index", d1}, extra...), terms...)...)
		merged := query(t, append(append([]string{"-index", d2}, extra...), terms...)...)
		if perRun != merged {
			t.Errorf("indexquery %v disagrees:\nper-run assembly (d1):\n%s\nmerged (d2):\n%s", extra, perRun, merged)
		}
		for _, term := range []string{"script", "said", "also"} {
			if strings.Contains(perRun, `-> "`+term+`": 0 postings`) {
				t.Errorf("indexquery %v found no postings for %q:\n%s", extra, term, perRun)
			}
		}
	}
}
