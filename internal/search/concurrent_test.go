package search

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
)

// TestSearcherConcurrentQueries hammers one Searcher (and therefore
// one IndexReader) from 16 goroutines with mixed Postings/And/TopK —
// the documented concurrency guarantee, checked under -race. The
// ranked queries alternate between the two modes over a merged index
// with blocked lists, so pooled scratch — cursors, decode buffers,
// heap — changes hands between goroutines and evaluators all the
// time, and every answer is held to the one computed up front: a
// scratch two queries shared would show as a wrong result even
// without the race detector.
func TestSearcherConcurrentQueries(t *testing.T) {
	idx, ref := buildBlockedIndex(t)
	s := New(idx)
	frequent, rare := pickTerms(ref)
	words := []string{frequent, rare}
	ranked := [][]string{topTerms(ref, 3), {frequent, rare}, topTerms(ref, 8)[5:]}
	want := make([][]ScoredDoc, len(ranked))
	for i, q := range ranked {
		var err error
		if want[i], err = s.TopKModeCtx(context.Background(), RankExhaustive, 5, q...); err != nil {
			t.Fatal(err)
		}
	}

	const goroutines = 16
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				w := words[(g+i)%len(words)]
				var err error
				switch i % 3 {
				case 0:
					var l interface{ Len() int }
					l, err = s.Postings(w)
					if err == nil && l.Len() == 0 {
						err = errors.New("empty postings for indexed term " + w)
					}
				case 1:
					_, err = s.And(frequent, rare)
				case 2:
					qi := (g + i) % len(ranked)
					mode := []RankMode{RankAuto, RankExhaustive}[(g+i/3)%2]
					var got []ScoredDoc
					got, err = s.TopKModeCtx(context.Background(), mode, 5, ranked[qi]...)
					if err == nil && !slices.Equal(got, want[qi]) {
						err = fmt.Errorf("%s %v = %v, want %v", mode, ranked[qi], got, want[qi])
					}
				}
				if err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if st := s.RankStats(); st.BlockQueries == 0 || st.FallbackQueries != 0 {
		t.Fatalf("auto queries did not all take the block path: %+v", st)
	}
}

// TestContextCancellation verifies every Ctx query method observes a
// canceled context and returns its error.
func TestContextCancellation(t *testing.T) {
	idx, ref := buildIndex(t)
	defer idx.Close()
	s := New(idx)
	frequent, _ := pickTerms(ref)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := s.PostingsCtx(ctx, frequent); !errors.Is(err, context.Canceled) {
		t.Errorf("PostingsCtx = %v, want Canceled", err)
	}
	if _, err := s.AndCtx(ctx, frequent); !errors.Is(err, context.Canceled) {
		t.Errorf("AndCtx = %v, want Canceled", err)
	}
	if _, err := s.OrCtx(ctx, frequent); !errors.Is(err, context.Canceled) {
		t.Errorf("OrCtx = %v, want Canceled", err)
	}
	if _, err := s.PhraseCtx(ctx, frequent); !errors.Is(err, context.Canceled) {
		t.Errorf("PhraseCtx = %v, want Canceled", err)
	}
	if _, err := s.TopKCtx(ctx, 5, frequent); !errors.Is(err, context.Canceled) {
		t.Errorf("TopKCtx = %v, want Canceled", err)
	}
}

func TestTypedQueryErrors(t *testing.T) {
	idx, ref := buildIndex(t) // non-positional index
	defer idx.Close()
	s := New(idx)
	frequent, rare := pickTerms(ref)

	if _, err := s.TopK(0, frequent); !errors.Is(err, ErrInvalidK) {
		t.Errorf("TopK(0) = %v, want ErrInvalidK", err)
	}
	if _, err := s.Phrase(frequent, rare); !errors.Is(err, ErrNotPositional) {
		t.Errorf("Phrase on non-positional index = %v, want ErrNotPositional", err)
	}
}
