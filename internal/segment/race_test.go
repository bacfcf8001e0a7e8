package segment

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastinvert/internal/trie"
)

// settle waits for the goroutine count to drop back to base, tolerating
// runtime stragglers, and returns the final count.
func settle(base int) int {
	deadline := time.Now().Add(3 * time.Second)
	n := runtime.NumGoroutine()
	for n > base && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestConcurrentQueriesDuringSealAndCompaction hammers postings reads
// from 16 goroutines while the writer interleaves adds, deletes, seals
// and compactions. Run under -race this is the generation-swap safety
// proof: no query may error or observe a torn view mid-swap.
func TestConcurrentQueriesDuringSealAndCompaction(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{SealEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	terms := []string{"alpha", "beta", "gamma", "delta", "omega"}
	stop := make(chan struct{})
	var qerr atomic.Value
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				term := terms[(g+i)%len(terms)]
				l, err := m.PostingsCtx(context.Background(), term)
				if err != nil {
					qerr.Store(fmt.Errorf("Postings(%q): %w", term, err))
					return
				}
				// Postings must be strictly ascending whatever view the
				// query landed on.
				for j := 1; j < l.Len(); j++ {
					if l.DocIDs[j] <= l.DocIDs[j-1] {
						qerr.Store(fmt.Errorf("disordered postings for %q: %v", term, l.DocIDs))
						return
					}
				}
				if i%7 == 0 {
					m.Dictionary()
					m.Stats()
				}
			}
		}(g)
	}

	for i := 0; i < 200; i++ {
		text := docText(terms[i%len(terms)], terms[(i+1)%len(terms)])
		id, err := m.AddDocument(text)
		if err != nil {
			t.Fatal(err)
		}
		if i%5 == 2 {
			if err := m.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		if i%50 == 49 {
			if err := m.Compact(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if err := qerr.Load(); err != nil {
		t.Fatal(err)
	}
	if err := m.LastCompactionError(); err != nil {
		t.Fatal(err)
	}
}

// TestCancelledCompactionLeaksNothing cancels mid-compaction and
// checks that every worker goroutine drains and the index still
// answers queries from its pre-compaction state.
func TestCancelledCompactionLeaksNothing(t *testing.T) {
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	m, err := Open(dir, Options{CompactWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Enough lists across enough segments that the merge has real work.
	for s := 0; s < 4; s++ {
		for i := 0; i < 50; i++ {
			if _, err := m.AddDocument(docText(fmt.Sprintf("w%dq%dz", s, i), "alpha")); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	before, err := m.PostingsCtx(context.Background(), "alpha")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- m.Compact(ctx) }()
	time.Sleep(2 * time.Millisecond)
	cancel()
	if err := <-done; err == nil {
		// The merge can legitimately win the race against cancel; only
		// a completed compaction may return nil.
		if st := m.Stats(); st.Compactions != 1 {
			t.Fatal("nil error from a compaction that did not complete")
		}
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled compaction = %v", err)
	}
	after, err := m.PostingsCtx(context.Background(), "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after.DocIDs, before.DocIDs) {
		t.Fatalf("postings changed across cancelled compaction: %d vs %d docs",
			after.Len(), before.Len())
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if n := settle(base); n > base {
		t.Fatalf("%d goroutines linger after cancelled compaction (baseline %d)", n, base)
	}
}

// TestCloseDuringBackgroundCompaction closes the manager while an
// auto-triggered compaction may be in flight; Close must wait it out
// without leaking goroutines or deadlocking.
func TestCloseDuringBackgroundCompaction(t *testing.T) {
	base := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		dir := t.TempDir()
		m, err := Open(dir, Options{SealEvery: 3, CompactAt: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			if _, err := m.AddDocument(docText("alpha", fmt.Sprintf("r%dw%dx", round, i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if n := settle(base); n > base {
		t.Fatalf("%d goroutines linger after Close (baseline %d)", n, base)
	}
}

// TestViewOutlivesReplacedSegmentFiles verifies the refcount contract:
// a query that acquired a view before a compaction reads replaced,
// unlinked segments to completion.
func TestViewOutlivesReplacedSegmentFiles(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for s := 0; s < 3; s++ {
		for i := 0; i < 10; i++ {
			if _, err := m.AddDocument(docText("alpha")); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	v, err := m.acquire()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The old view's segments are unlinked now; reading through the
	// retained view must still succeed via the open descriptors.
	var got []uint32
	dead := m.tomb.Load()
	coll := int32(trie.IndexString("alpha"))
	for _, s := range v.segs {
		part, _, err := s.postings(coll, "alpha")
		if err != nil {
			t.Fatalf("read from replaced segment: %v", err)
		}
		if part == nil {
			continue
		}
		for _, d := range part.DocIDs {
			if !dead.has(d) {
				got = append(got, d)
			}
		}
	}
	v.release()
	if len(got) != 30 {
		t.Fatalf("read %d postings from replaced segments, want 30", len(got))
	}
}
