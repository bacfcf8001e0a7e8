package segment

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"fastinvert/internal/store"
)

// gatedSeals makes every seal of m wait at its start until release is
// called, and reports on started each seal that reached the gate.
func gatedSeals(m *Manager) (started <-chan struct{}, release func()) {
	st := make(chan struct{}, 16)
	gate := make(chan struct{})
	m.sealHook = func() error {
		st <- struct{}{}
		<-gate
		return nil
	}
	var once sync.Once
	return st, func() { once.Do(func() { close(gate) }) }
}

// segmentDocs reports the Docs of every committed segment.
func segmentDocs(m *Manager) []uint32 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []uint32
	for _, s := range m.man.Segments {
		out = append(out, s.Docs)
	}
	return out
}

// TestIngestAcrossFreezeAndCommit drives adds and deletes on one writer
// against four readers while memtables freeze and their seals commit
// behind the writer. Every answer must hold each acknowledged, undeleted
// document exactly once — whether it sits in the memtable, the frozen
// memtable or a segment — and no document whose delete was
// acknowledged; and every segment must hold exactly SealEvery
// documents.
func TestIngestAcrossFreezeAndCommit(t *testing.T) {
	const sealEvery, docs = 7, 300
	m, err := Open(t.TempDir(), Options{SealEvery: sealEvery})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var acked atomic.Int64 // documents [0, acked) are acknowledged
	var deleted [docs]atomic.Bool
	stop := make(chan struct{})
	var qerr atomic.Value
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := int(acked.Load())
				var gone [docs]bool
				for d := 0; d < n; d++ {
					gone[d] = deleted[d].Load()
				}
				l, err := m.PostingsCtx(context.Background(), "common")
				if err != nil {
					qerr.Store(err)
					return
				}
				seen := map[uint32]bool{}
				for _, d := range l.DocIDs {
					if seen[d] {
						qerr.Store(fmt.Errorf("doc %d answered twice", d))
						return
					}
					seen[d] = true
					if int(d) < n && gone[d] {
						qerr.Store(fmt.Errorf("deleted doc %d answered", d))
						return
					}
				}
				for d := 0; d < n; d++ {
					if !seen[uint32(d)] && !deleted[d].Load() {
						qerr.Store(fmt.Errorf("acknowledged doc %d missing from %d answers", d, l.Len()))
						return
					}
				}
			}
		}()
	}
	for i := 0; i < docs; i++ {
		id, err := m.AddDocument(docText("common", fmt.Sprintf("w%dx", i)))
		if err != nil {
			t.Fatal(err)
		}
		acked.Store(int64(id) + 1)
		if i%5 == 3 {
			victim := id - 2
			if err := m.Delete(victim); err != nil {
				t.Fatal(err)
			}
			deleted[victim].Store(true)
		}
	}
	close(stop)
	wg.Wait()
	if err := qerr.Load(); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitSeal(); err != nil {
		t.Fatal(err)
	}
	sizes := segmentDocs(m)
	if len(sizes) != docs/sealEvery {
		t.Fatalf("%d segments, want %d", len(sizes), docs/sealEvery)
	}
	for i, n := range sizes {
		if n != sealEvery {
			t.Fatalf("segment %d holds %d documents, want %d", i, n, sealEvery)
		}
	}
}

// TestDeletesOfFrozenDocumentsSurviveReopen deletes a document of a
// frozen memtable while its seal is held, and another while the commit
// runs; both must be in the tombstones a reopen loads.
func TestDeletesOfFrozenDocumentsSurviveReopen(t *testing.T) {
	for round := 0; round < 10; round++ {
		dir := t.TempDir()
		m, err := Open(dir, Options{SealEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		started, release := gatedSeals(m)
		for i := 0; i < 4; i++ {
			if _, err := m.AddDocument(docText("alpha", fmt.Sprintf("w%dx", i))); err != nil {
				t.Fatal(err)
			}
		}
		<-started
		if st := m.Stats(); st.Sealing != 4 || st.MemtableDocs != 0 {
			t.Fatalf("held seal: %+v, want 4 sealing and an empty memtable", st)
		}
		if err := m.Delete(1); err != nil {
			t.Fatal(err)
		}
		raced := make(chan error, 1)
		go func() { raced <- m.Delete(2) }()
		release()
		if err := <-raced; err != nil {
			t.Fatal(err)
		}
		if err := m.WaitSeal(); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		m2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !m2.IsDeleted(1) || !m2.IsDeleted(2) || m2.IsDeleted(0) || m2.NumDocs() != 2 {
			t.Fatalf("round %d after reopen: deleted 1:%v 2:%v 0:%v, %d docs", round,
				m2.IsDeleted(1), m2.IsDeleted(2), m2.IsDeleted(0), m2.NumDocs())
		}
		m2.Close()
	}
}

// TestCloseDuringInFlightSeal closes the manager while a seal is held
// and documents sit behind it in the memtable: Close must wait the seal
// out and seal the rest, so a reopen holds every document.
func TestCloseDuringInFlightSeal(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{SealEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	started, release := gatedSeals(m)
	for i := 0; i < 8; i++ {
		if _, err := m.AddDocument(docText("alpha", fmt.Sprintf("w%dx", i))); err != nil {
			t.Fatal(err)
		}
	}
	<-started
	closed := make(chan error, 1)
	go func() { closed <- m.Close() }()
	release()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddDocument(docText("late")); !errors.Is(err, store.ErrClosed) {
		t.Fatalf("add after Close = %v, want ErrClosed", err)
	}
	m2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := segmentDocs(m2); len(got) != 2 || got[0] != 5 || got[1] != 3 {
		t.Fatalf("segments after Close = %v, want [5 3]", got)
	}
	l, err := m2.PostingsCtx(context.Background(), "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 8 {
		t.Fatalf("alpha after reopen: %d docs, want 8", l.Len())
	}
}

// TestFailedSealKeepsDocumentsSearchable fails a background seal: its
// documents stay searchable from the frozen memtable; the next
// AddDocument reports the failure and refuses its document, Seal
// reports it while the fault persists and commits once it clears, and
// Close reports it too.
func TestFailedSealKeepsDocumentsSearchable(t *testing.T) {
	fault := errors.New("disk on fire")
	var failing atomic.Bool
	failing.Store(true)
	hook := func() error {
		if failing.Load() {
			return fault
		}
		return nil
	}
	dir := t.TempDir()
	m, err := Open(dir, Options{SealEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	m.sealHook = hook
	for i := 0; i < 3; i++ {
		if _, err := m.AddDocument(docText("alpha", fmt.Sprintf("w%dx", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.WaitSeal(); !errors.Is(err, fault) {
		t.Fatalf("WaitSeal = %v, want the fault", err)
	}
	if l, _ := m.PostingsCtx(context.Background(), "alpha"); l.Len() != 3 {
		t.Fatalf("alpha after failed seal: %d docs, want 3", l.Len())
	}
	if _, err := m.AddDocument(docText("alpha")); !errors.Is(err, fault) {
		t.Fatalf("AddDocument after failed seal = %v, want the fault", err)
	}
	if err := m.Seal(); !errors.Is(err, fault) {
		t.Fatalf("Seal under the fault = %v, want it", err)
	}
	if st := m.Stats(); st.Docs != 3 || st.Segments != 0 || st.Sealing != 3 || st.SealErrors < 2 {
		t.Fatalf("stats under the fault = %+v", st)
	}
	failing.Store(false)
	if err := m.Seal(); err != nil {
		t.Fatalf("Seal after the fault cleared = %v", err)
	}
	if st := m.Stats(); st.Segments != 1 || st.Sealing != 0 {
		t.Fatalf("stats after retry = %+v", st)
	}
	if _, err := m.AddDocument(docText("alpha")); err != nil {
		t.Fatalf("AddDocument after retry = %v", err)
	}
	if l, _ := m.PostingsCtx(context.Background(), "alpha"); l.Len() != 4 {
		t.Fatalf("alpha after retry: %d docs, want 4", l.Len())
	}
	failing.Store(true)
	if err := m.Close(); !errors.Is(err, fault) {
		t.Fatalf("Close under the fault = %v, want it", err)
	}
}

// TestCompactionCommitsBesideInFlightSeal compacts the sealed segments
// while the next seal is held: the compaction commits first under an ID
// of its own (the seal reserved one when its memtable froze), the seal
// commits after it, and a reopen finds both segments and every
// document.
func TestCompactionCommitsBesideInFlightSeal(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{SealEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := m.AddDocument(docText("alpha", fmt.Sprintf("w%dx", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.WaitSeal(); err != nil {
		t.Fatal(err)
	}
	started, release := gatedSeals(m)
	for i := 6; i < 9; i++ {
		if _, err := m.AddDocument(docText("alpha", fmt.Sprintf("w%dx", i))); err != nil {
			t.Fatal(err)
		}
	}
	<-started
	if err := m.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	release()
	if err := m.WaitSeal(); err != nil {
		t.Fatal(err)
	}
	m.mu.RLock()
	ids := map[uint64]bool{}
	for _, s := range m.man.Segments {
		ids[s.ID] = true
	}
	m.mu.RUnlock()
	if len(ids) != 2 {
		t.Fatalf("segment IDs after compaction and seal: %v, want two distinct", ids)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := segmentDocs(m2); len(got) != 2 || got[0] != 6 || got[1] != 3 {
		t.Fatalf("segments after reopen = %v, want [6 3]", got)
	}
	if l, _ := m2.PostingsCtx(context.Background(), "alpha"); l.Len() != 9 {
		t.Fatalf("alpha after reopen: %d docs, want 9", l.Len())
	}
}
