package store

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"fastinvert/internal/trie"
)

func trieIndexForTest(term string) int { return trie.IndexString(term) }

// buildTestIndex writes a small multi-run index and opens it.
func buildTestIndex(t testing.TB) (*IndexReader, []string) {
	t.Helper()
	dir := t.TempDir()
	w, err := NewIndexWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	terms := []string{"alpha", "beta", "gamma", "delta"}
	var dict []DictEntry
	for slot, term := range terms {
		dict = append(dict, DictEntry{
			Term:       term,
			Collection: int32(trieIndexForTest(term)),
			Slot:       int32(slot),
		})
	}
	// Three runs, each holding every term over a disjoint doc range.
	for r := 0; r < 3; r++ {
		b := NewRunBuilder()
		base := uint32(r * 100)
		for slot := range terms {
			docs := []uint32{base + uint32(slot), base + uint32(slot) + 10}
			tfs := []uint32{1, 2}
			if err := b.AddList(trieIndexForTest(terms[slot]), int32(slot), docs, tfs); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.WriteRun(b, base, base+99); err != nil {
			t.Fatal(err)
		}
	}
	SortDictEntries(dict)
	if err := w.Finish(dict); err != nil {
		t.Fatal(err)
	}
	idx, err := OpenIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	return idx, terms
}

// TestReaderConcurrentAccess hammers one IndexReader from 16
// goroutines mixing full fetches, range fetches and metadata reads —
// the first touches of each run file race on the lazy cache (run with
// -race).
func TestReaderConcurrentAccess(t *testing.T) {
	idx, terms := buildTestIndex(t)
	defer idx.Close()

	const goroutines = 16
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				term := terms[(g+i)%len(terms)]
				switch i % 3 {
				case 0:
					l, err := idx.Postings(term)
					if err != nil {
						errCh <- err
						return
					}
					if l.Len() != 6 { // 2 postings per run x 3 runs
						errCh <- errors.New("short postings under concurrency")
						return
					}
				case 1:
					l, err := idx.PostingsRange(term, 100, 199)
					if err != nil {
						errCh <- err
						return
					}
					if l.Len() != 2 {
						errCh <- errors.New("bad range postings under concurrency")
						return
					}
				case 2:
					if _, err := idx.LookupTerm(term); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestReaderClose(t *testing.T) {
	idx, terms := buildTestIndex(t)
	if _, err := idx.Postings(terms[0]); err != nil {
		t.Fatal(err)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	if err := idx.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil (idempotent)", err)
	}
	if _, err := idx.Postings(terms[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Postings after Close = %v, want ErrClosed", err)
	}
	if _, err := idx.LookupTerm(terms[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("LookupTerm after Close = %v, want ErrClosed", err)
	}
	if _, err := idx.Merge(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Merge after Close = %v, want ErrClosed", err)
	}
}

// TestReaderCloseDuringQueries races Close against readers: every
// query must either succeed or fail with ErrClosed, nothing else.
func TestReaderCloseDuringQueries(t *testing.T) {
	idx, terms := buildTestIndex(t)
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_, err := idx.Postings(terms[(g+i)%len(terms)])
				if err != nil && !errors.Is(err, ErrClosed) {
					errCh <- err
					return
				}
			}
		}(g)
	}
	idx.Close()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestLookupTermNotFound(t *testing.T) {
	idx, _ := buildTestIndex(t)
	defer idx.Close()
	_, err := idx.LookupTerm("nosuchterm")
	if !errors.Is(err, ErrTermNotFound) {
		t.Fatalf("LookupTerm = %v, want ErrTermNotFound", err)
	}
}

// TestCorruptionErrorsAreTyped checks every corrupt-bytes path is
// matchable via the ErrCorruptIndex sentinel.
func TestCorruptionErrorsAreTyped(t *testing.T) {
	b := NewRunBuilder()
	b.AddList(1, 0, []uint32{1}, []uint32{1})
	data := b.Finalize(1, 1)
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	if _, err := openRunBytes(bad); !errors.Is(err, ErrCorruptIndex) {
		t.Fatalf("run with bad magic = %v, want ErrCorruptIndex", err)
	}
	if !errors.Is(ErrCorruptRun, ErrCorruptIndex) {
		t.Fatal("ErrCorruptRun must wrap ErrCorruptIndex")
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "doclens.bin"), []byte("garbage!"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readDocLens(dir); !errors.Is(err, ErrCorruptIndex) {
		t.Fatalf("readDocLens = %v, want ErrCorruptIndex", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "doctable.bin"), []byte("garbage!!!!!"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readDocTable(dir); !errors.Is(err, ErrCorruptIndex) {
		t.Fatalf("readDocTable = %v, want ErrCorruptIndex", err)
	}
}

// TestCloseRacesMergeAndQueries hammers Close against concurrent
// Merge and PostingsRange calls (run with -race): every call must
// either complete or return ErrClosed, and no file handle or goroutine
// may leak past Close.
func TestCloseRacesMergeAndQueries(t *testing.T) {
	for round := 0; round < 8; round++ {
		idx, terms := buildTestIndex(t)
		var wg sync.WaitGroup
		errCh := make(chan error, 32)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					_, err := idx.PostingsRange(terms[(g+i)%len(terms)], 0, 250)
					if err != nil && !errors.Is(err, ErrClosed) {
						errCh <- err
						return
					}
				}
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				_, err := idx.Merge()
				if err != nil && !errors.Is(err, ErrClosed) {
					errCh <- err
					return
				}
			}
		}()
		idx.Close()
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
	}
}

// TestConcurrentQueriesOnMergedReader checks the merged read path and
// its cache under 16-goroutine load.
func TestConcurrentQueriesOnMergedReader(t *testing.T) {
	idx, terms := buildTestIndex(t)
	defer idx.Close()
	if _, err := idx.Merge(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l, err := idx.Postings(terms[(g+i)%len(terms)])
				if err != nil {
					errCh <- err
					return
				}
				if l.Len() != 6 {
					errCh <- errors.New("short postings from merged path")
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
	if st := idx.Stats(); !st.MergedActive || st.MergedHits == 0 {
		t.Fatalf("merged path not exercised: %+v", st)
	}
}
