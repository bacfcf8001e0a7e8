package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
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
		"-concurrent", "-merge", "-codec", "auto", "-verify", "-metrics", "-"}, &stdout)
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

	// The merge says what it read, on its line and in the metrics
	// snapshot, and that is at most one read per shard (four a worker),
	// run and indexer — a run is one key-ordered region per indexer —
	// however many lists the runs hold.
	var lists, runs int
	var reads int64
	var took string
	var mb float64
	merged := stdout.String()[strings.Index(stdout.String(), "merged: "):]
	if _, err := fmt.Sscanf(merged, "merged: %d lists from %d runs into %f MB (docs [0,2]) in %s %d reads of %f MB\n",
		&lists, &runs, &mb, &took, &reads, &mb); err != nil {
		t.Fatalf("merged line does not parse (%v):\n%s", err, merged)
	}
	const indexers = 2 + 2 // the -cpu and -gpu defaults
	if bound := int64(4 * runtime.GOMAXPROCS(0) * runs * indexers); reads < 1 || reads > bound {
		t.Errorf("merge of %d lists from %d runs took %d reads, want 1..%d", lists, runs, reads, bound)
	}
	for _, want := range []string{
		"\nfastinvert_merge_seconds ",
		fmt.Sprintf("\nfastinvert_merge_read_calls_total %d\n", reads),
		"\nfastinvert_merge_read_bytes_total ",
	} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("metrics snapshot lacks %q:\n%s", want, stdout.String())
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

// TestGeneratedAndDirectoryCorpusAgree: without -corpus the command
// materializes the generated collection before the build; it must then
// index exactly what -corpus reads back from the same profile written
// to disk — the same sample, tokens and terms.
func TestGeneratedAndDirectoryCorpusAgree(t *testing.T) {
	const files, scale = 3, 0.5
	corpusDir := filepath.Join(t.TempDir(), "corpus")
	if _, err := fastinvert.WriteCorpus(fastinvert.ClueWeb09Profile(scale), files, corpusDir); err != nil {
		t.Fatal(err)
	}
	// What the two reports have in common once timings are left out.
	counts := func(args ...string) []string {
		t.Helper()
		var stdout bytes.Buffer
		if err := run(append(args, "-metrics", "-"), &stdout); err != nil {
			t.Fatalf("run %v: %v\n%s", args, err, stdout.String())
		}
		var kept []string
		for _, line := range strings.Split(stdout.String(), "\n") {
			for _, prefix := range []string{
				"collection: ", "input: ", "workload split: ",
				`fastinvert_build_stage_bytes_total{stage="sampling"} `,
				"fastinvert_build_sampled_docs_total ", "fastinvert_build_sampled_tokens_total ",
				"fastinvert_build_tokens_total ",
				"fastinvert_parser_token_cache_hits_total ", "fastinvert_parser_token_cache_misses_total ",
			} {
				if strings.HasPrefix(line, prefix) {
					kept = append(kept, line)
				}
			}
		}
		return kept
	}
	generated := counts("-files", "3", "-scale", "0.5")
	fromDir := counts("-corpus", corpusDir)
	if len(generated) != 9 {
		t.Fatalf("report lacks some of the nine count lines:\n%s", strings.Join(generated, "\n"))
	}
	if got, want := strings.Join(generated, "\n"), strings.Join(fromDir, "\n"); got != want {
		t.Errorf("generated in memory:\n%s\nread from the directory:\n%s", got, want)
	}
}
