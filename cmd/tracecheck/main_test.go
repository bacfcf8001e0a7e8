package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// goBuild compiles one of the module's commands into dir.
func goBuild(t *testing.T, dir, cmd string) string {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool to build " + cmd + " with")
	}
	bin := filepath.Join(dir, cmd)
	if out, err := exec.Command(goTool, "build", "-o", bin, "fastinvert/cmd/"+cmd).CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", cmd, err, out)
	}
	return bin
}

// TestRunAcceptsToolStreams runs the two writers the way `make smoke`
// and `make trace-serve` do and gates what they write with the
// thresholds CI uses: a build record from hetindex -trace, and the
// request stream of hetserve's seeded selfcheck load.
func TestRunAcceptsToolStreams(t *testing.T) {
	dir := t.TempDir()
	build := filepath.Join(dir, "build.jsonl")
	hetindex := goBuild(t, dir, "hetindex")
	if out, err := exec.Command(hetindex, "-files", "2", "-scale", "0.25", "-concurrent",
		"-out", filepath.Join(dir, "index"), "-trace", build).CombinedOutput(); err != nil {
		t.Fatalf("hetindex: %v\n%s", err, out)
	}
	requests := filepath.Join(dir, "req.jsonl")
	hetserve := goBuild(t, dir, "hetserve")
	if out, err := exec.Command(hetserve, "-live", "-index", filepath.Join(dir, "seg"), "-selfcheck",
		"-sample", "1", "-slow-ms", "-1", "-trace-requests", requests).CombinedOutput(); err != nil {
		t.Fatalf("hetserve: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"-min-coverage", "0.9", build},
		{"-min-stages", "5", "-min-traces", "50", requests},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Errorf("tracecheck %v: %v\n%s", args, err, out.String())
		}
		if !strings.HasPrefix(out.String(), "traces OK: ") {
			t.Errorf("tracecheck %v printed %q", args, out.String())
		}
	}
}

// TestRunRejects: each broken stream or call fails naming the invariant
// or flag it broke.
func TestRunRejects(t *testing.T) {
	dir := t.TempDir()
	const build = `{"ev":"reqtrace","id":"b","endpoint":"build","dur_ms":10,"spans":[{"stage":"build","par":-1,"dur_ms":10},`
	cases := []struct {
		name, trace string
		flags       []string
		want        string
	}{
		{"lane sum", build + `{"stage":"parse","par":0,"lane":"parse/1","dur_ms":6},{"stage":"parse","par":0,"lane":"parse/1","start_ms":3,"dur_ms":6}]}`,
			nil, `children of span 0 (build) on lane "parse/1" sum 12.000ms past the span's 10.000ms`},
		{"outside parent", build + `{"stage":"flush","par":0,"lane":"flush","start_ms":8,"dur_ms":4}]}`,
			nil, "span 1 (flush) [8.000, 12.000]ms is not inside its parent [0.000, 10.000]ms"},
		{"unknown stage", build + `{"stage":"warp","par":0}]}`, nil, `unknown stage "warp"`},
		{"empty stream", "", nil, "trace stream is empty"},
		{"coverage gate", build + `{"stage":"stall","par":0,"lane":"parse/0","dur_ms":5}]}`,
			[]string{"-min-coverage", "0.9"}, "coverage 50.0% below the 90% gate"},
		{"requests flag", build + `{"stage":"read","par":0,"lane":"read","dur_ms":1}]}`,
			[]string{"-requests"}, "flag provided but not defined: -requests"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "_")+".jsonl")
			if err := os.WriteFile(path, []byte(tc.trace), 0o644); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			err := run(append(tc.flags, path), &out)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("tracecheck %s: error %v, want containing %q", tc.name, err, tc.want)
			}
		})
	}
}
