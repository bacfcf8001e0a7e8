package fastinvert_test

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"fastinvert"
)

// The public name for what Index.Postings returns must be that type.
var _ func(*fastinvert.Index, string) (*fastinvert.PostingsList, error) = (*fastinvert.Index).Postings

// TestBuildContextPublic exercises the context-aware build surface:
// cancellation aborts, a live context builds an index that Open can
// serve, and Close flips queries to ErrClosed.
func TestBuildContextPublic(t *testing.T) {
	src := fastinvert.GenerateCorpus(smallProfile(), 3)
	opts := smallOptions()
	opts.OutDir = filepath.Join(t.TempDir(), "idx")

	b, err := fastinvert.NewBuilder(opts)
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.BuildContext(canceled, src); !errors.Is(err, context.Canceled) {
		t.Fatalf("BuildContext(canceled) = %v, want context.Canceled", err)
	}

	if _, err := b.BuildContext(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	idx, err := fastinvert.Open(opts.OutDir)
	if err != nil {
		t.Fatal(err)
	}
	s := fastinvert.NewSearcher(idx)
	term := fastinvert.NormalizeTerm("parallelized")
	if _, err := s.PostingsCtx(context.Background(), term); err != nil {
		t.Fatal(err)
	}

	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Postings(term); !errors.Is(err, fastinvert.ErrClosed) {
		t.Fatalf("Postings after Close = %v, want ErrClosed", err)
	}
	if _, err := idx.LookupTerm(term); !errors.Is(err, fastinvert.ErrClosed) {
		t.Fatalf("LookupTerm after Close = %v, want ErrClosed", err)
	}
}

// TestExportedSentinels pins the root re-exports to their internal
// identities so errors.Is matches across the API boundary.
func TestExportedSentinels(t *testing.T) {
	src := fastinvert.GenerateCorpus(smallProfile(), 2)
	opts := smallOptions()
	opts.OutDir = filepath.Join(t.TempDir(), "idx")
	b, err := fastinvert.NewBuilder(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(src); err != nil {
		t.Fatal(err)
	}
	idx, err := fastinvert.Open(opts.OutDir)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()

	if _, err := idx.LookupTerm("zzznotindexed"); !errors.Is(err, fastinvert.ErrTermNotFound) {
		t.Errorf("LookupTerm miss = %v, want ErrTermNotFound", err)
	}
	s := fastinvert.NewSearcher(idx)
	// The small index is non-positional, so a multi-word phrase query
	// must fail with the typed sentinel.
	term := fastinvert.NormalizeTerm("parallelized")
	if _, err := s.Phrase(term, term); err != nil && !errors.Is(err, fastinvert.ErrNotPositional) {
		t.Errorf("Phrase = %v, want ErrNotPositional (or no error if terms unindexed)", err)
	}
	if fastinvert.ErrCorruptIndex == nil || fastinvert.ErrClosed == nil {
		t.Fatal("sentinels must be non-nil")
	}
}
