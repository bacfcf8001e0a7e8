package main

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fastinvert"
)

func writeGz(t *testing.T, path, content string) {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write([]byte(content)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRunBuildsMergesAndVerifies drives the command the way the
// benchmark and the verify notes do — a gzip corpus directory through
// -concurrent -merge -codec auto -verify — over a corpus whose middle
// file holds no document, and reads the result back the way indexquery
// does.
func TestRunBuildsMergesAndVerifies(t *testing.T) {
	const delim = "\n\x1dDOC\x1e\n" // the container format's document separator
	corpusDir := filepath.Join(t.TempDir(), "corpus")
	if err := os.Mkdir(corpusDir, 0o755); err != nil {
		t.Fatal(err)
	}
	writeGz(t, filepath.Join(corpusDir, "a.txt.gz"),
		"parallel indexing on heterogeneous platforms"+delim+"a pipelined parallel parser")
	writeGz(t, filepath.Join(corpusDir, "b.txt.gz"), "   \n")
	writeGz(t, filepath.Join(corpusDir, "c.txt.gz"), "inverted files built in parallel")
	out := filepath.Join(t.TempDir(), "index")

	var stdout bytes.Buffer
	err := run([]string{"-corpus", corpusDir, "-out", out,
		"-concurrent", "-merge", "-codec", "auto", "-verify"}, &stdout)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, stdout.String())
	}
	for _, want := range []string{
		"collection: 3 files, 3 documents, ",
		" s (3 docs, ", // the sampling line: one document from each non-empty file
		"merged: ",
		"verified: ",
	} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, stdout.String())
		}
	}

	if _, err := fastinvert.VerifyIndex(out); err != nil {
		t.Fatal(err)
	}
	idx, err := fastinvert.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	list, err := idx.PostingsRange(fastinvert.NormalizeTerm("Parallel"), 0, ^uint32(0))
	if err != nil {
		t.Fatal(err)
	}
	if got := list.DocIDs; len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("postings of \"parallel\" = %v, want documents 0, 1 and 2", got)
	}
}
