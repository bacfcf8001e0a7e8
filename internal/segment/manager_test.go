package segment

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fastinvert/internal/corpus"
	"fastinvert/internal/store"
	"fastinvert/internal/telemetry"
)

// docText builds a document from the given terms (already normalized:
// lowercase, non-stop, stem-stable words).
func docText(terms ...string) []byte { return []byte(strings.Join(terms, " ")) }

// readBackLive drains every non-empty live postings list into a map.
func readBackLive(t *testing.T, m *Manager) map[string][]uint32 {
	t.Helper()
	out := make(map[string][]uint32)
	for _, e := range m.Dictionary() {
		l, err := m.PostingsCtx(context.Background(), e.Term)
		if err != nil {
			t.Fatalf("Postings(%q): %v", e.Term, err)
		}
		if l.Len() == 0 {
			continue
		}
		out[e.Term] = append([]uint32(nil), l.DocIDs...)
	}
	return out
}

func TestMemtableSealReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	docs := [][]byte{
		docText("alpha", "beta"),
		docText("beta", "gamma", "beta"),
		docText("alpha", "delta"),
	}
	for i, d := range docs {
		id, err := m.AddDocument(d)
		if err != nil {
			t.Fatal(err)
		}
		if id != uint32(i) {
			t.Fatalf("doc %d got id %d", i, id)
		}
	}
	want := map[string][]uint32{
		"alpha": {0, 2},
		"beta":  {0, 1},
		"gamma": {1},
		"delta": {2},
	}
	if got := readBackLive(t, m); !reflect.DeepEqual(got, want) {
		t.Fatalf("memtable readback = %v, want %v", got, want)
	}
	// TF of the repeated term must reflect both occurrences.
	l, err := m.PostingsCtx(context.Background(), "beta")
	if err != nil {
		t.Fatal(err)
	}
	if l.TFs[1] != 2 {
		t.Fatalf("beta TF in doc 1 = %d, want 2", l.TFs[1])
	}
	if err := m.Seal(); err != nil {
		t.Fatal(err)
	}
	if got := readBackLive(t, m); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-seal readback = %v, want %v", got, want)
	}
	if st := m.Stats(); st.Segments != 1 || st.MemtableDocs != 0 || st.Seals != 1 {
		t.Fatalf("stats after seal = %+v", st)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := readBackLive(t, m2); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened readback = %v, want %v", got, want)
	}
	if n := m2.Stats().Docs; n != 3 {
		t.Fatalf("Docs after reopen = %d", n)
	}
	// New docs continue the ID sequence.
	id, err := m2.AddDocument(docText("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if id != 3 {
		t.Fatalf("next doc id = %d, want 3", id)
	}
}

func TestDeleteFiltersAndPersists(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := m.AddDocument(docText("alpha")); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Seal(); err != nil {
		t.Fatal(err)
	}
	// One sealed delete (persists immediately), one memtable delete.
	if _, err := m.AddDocument(docText("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(4); err != nil {
		t.Fatal(err)
	}
	l, err := m.PostingsCtx(context.Background(), "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint32{0, 2, 3}; !reflect.DeepEqual(l.DocIDs, want) {
		t.Fatalf("live alpha docs = %v, want %v", l.DocIDs, want)
	}
	if !m.IsDeleted(1) || !m.IsDeleted(4) || m.IsDeleted(0) {
		t.Fatal("IsDeleted disagrees with deletions")
	}
	if live := m.NumDocs(); live != 3 {
		t.Fatalf("NumDocs = %d, want 3", live)
	}
	if err := m.Delete(99); !errors.Is(err, ErrUnknownDoc) {
		t.Fatalf("Delete(99) = %v, want ErrUnknownDoc", err)
	}
	// Deleting twice is a no-op.
	if err := m.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Both deletions survive reopen: doc 4 was sealed by Close.
	m2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	l, err = m2.PostingsCtx(context.Background(), "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint32{0, 2, 3}; !reflect.DeepEqual(l.DocIDs, want) {
		t.Fatalf("reopened alpha docs = %v, want %v", l.DocIDs, want)
	}
}

func TestCompactionMergesSegmentsAndPurgesTombstones(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// Three segments; "gamma" lives only in doc 2, which dies below.
	batches := [][][]byte{
		{docText("alpha", "beta"), docText("alpha")},
		{docText("gamma"), docText("beta", "delta")},
		{docText("alpha", "delta")},
	}
	for _, batch := range batches {
		for _, d := range batch {
			if _, err := m.AddDocument(d); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Delete(2); err != nil {
		t.Fatal(err)
	}
	want := map[string][]uint32{
		"alpha": {0, 1, 4},
		"beta":  {0, 3},
		"delta": {3, 4},
	}
	if got := readBackLive(t, m); !reflect.DeepEqual(got, want) {
		t.Fatalf("pre-compaction readback = %v, want %v", got, want)
	}
	genBefore := m.Gen()
	if err := m.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	if m.Gen() == genBefore {
		t.Fatal("compaction did not advance the generation")
	}
	st := m.Stats()
	if st.Segments != 1 || st.Compactions != 1 {
		t.Fatalf("stats after compaction = %+v", st)
	}
	if st.Deleted != 0 {
		t.Fatalf("purged tombstones still counted: %+v", st)
	}
	if got := readBackLive(t, m); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-compaction readback = %v, want %v", got, want)
	}
	// The fully-purged term is gone from the dictionary, not just empty.
	for _, e := range m.Dictionary() {
		if e.Term == "gamma" {
			t.Fatal("fully purged term still in dictionary")
		}
	}
	// Old segment files are unlinked; exactly one .post remains.
	posts, _ := filepath.Glob(filepath.Join(dir, "seg-*.post"))
	if len(posts) != 1 {
		t.Fatalf("segment files after compaction: %v", posts)
	}
	// The tombstoned doc stays deleted (its ID is never reused).
	if l, _ := m.PostingsCtx(context.Background(), "gamma"); l.Len() != 0 {
		t.Fatal("purged postings resurfaced")
	}
	if m.Stats().Docs != 5 {
		t.Fatalf("Docs = %d, want 5", m.Stats().Docs)
	}
	// The collection size idf is computed from counts the purged
	// document out once — now, and after a reopen: the memtable is
	// empty, so the compaction's manifest is the last one written and
	// must carry the purge itself.
	if n := m.NumDocs(); n != 4 {
		t.Fatalf("NumDocs after compaction = %d, want 4", n)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if n := m2.NumDocs(); n != 4 {
		t.Fatalf("NumDocs after reopen = %d, want 4", n)
	}
}

// TestCompactionReadsExtents: a compaction's reads follow the layout
// of its inputs, not their list count. A sealed segment is one region
// in (collection, local slot) order; through the remap a shard's share
// of it is the whole collections inside the shard's key range — one
// extent — and a subset of each of the two collections its boundaries
// cut. Tombstones change what is written, never what is read. The
// counts arrive on the compact operation's trace.
func TestCompactionReadsExtents(t *testing.T) {
	const segments, perSegment, workers = 3, 120, 2
	m, err := Open(t.TempDir(), Options{CompactWorkers: workers})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var compact *telemetry.ReqTraceRecord
	m.SetTraceSink(func(tr *telemetry.RequestTrace) {
		if rec := tr.Snapshot(); rec.Endpoint == "compact" {
			compact = &rec
		}
	})
	gen := corpus.NewGenerator(corpus.Wikipedia0107(0.25))
	var docs [][]byte
	for f := 0; len(docs) < segments*perSegment; f++ {
		docs = append(docs, corpus.SplitDocs(gen.GeneratePlain(f))...)
	}
	for i, d := range docs[:segments*perSegment] {
		if _, err := m.AddDocument(d); err != nil {
			t.Fatal(err)
		}
		if (i+1)%perSegment == 0 {
			if err := m.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for doc := uint32(3); doc < segments*perSegment; doc += 10 {
		if err := m.Delete(doc); err != nil {
			t.Fatal(err)
		}
	}
	lists := 0
	for _, s := range m.cur.segs {
		lists += s.run.NumLists()
	}
	before := readBackLive(t, m)
	if err := m.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := readBackLive(t, m); !reflect.DeepEqual(got, before) {
		t.Fatal("compaction changed what the index answers")
	}
	if compact == nil {
		t.Fatal("no compact operation trace reached the sink")
	}
	reads, _ := compact.Attrs["read_calls"].(int64)
	readBytes, _ := compact.Attrs["read_bytes"].(int64)
	if compact.Attrs["segments"] != segments || reads < 1 || readBytes < 1 {
		t.Fatalf("compact trace attributes = %v", compact.Attrs)
	}
	const shards, regions = 4 * workers, 3
	if bound := int64(shards * segments * regions); reads > bound {
		t.Errorf("compaction of %d lists took %d reads, bound %d shards x %d segments x %d regions = %d",
			lists, reads, shards, segments, regions, bound)
	}
	if lists < 50*int(reads) {
		t.Errorf("%d input lists for %d reads: too few lists for the bound to mean anything", lists, reads)
	}
}

func TestAutoSealAndBackgroundCompaction(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{SealEvery: 2, CompactAt: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 12; i++ {
		if _, err := m.AddDocument(docText("alpha", fmt.Sprintf("w%dx", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Let any background compaction land before checking.
	m.bg.Wait()
	if err := m.LastCompactionError(); err != nil {
		t.Fatalf("background compaction failed: %v", err)
	}
	st := m.Stats()
	if st.Seals != 6 {
		t.Fatalf("auto-seals = %d, want 6", st.Seals)
	}
	if st.Compactions == 0 {
		t.Fatal("no background compaction ran")
	}
	l, err := m.PostingsCtx(context.Background(), "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 12 {
		t.Fatalf("alpha postings = %d docs, want 12", l.Len())
	}
}

func TestCompactEverythingPurged(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 3; i++ {
		if _, err := m.AddDocument(docText("alpha")); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Seal(); err != nil {
		t.Fatal(err)
	}
	for d := uint32(0); d < 3; d++ {
		if err := m.Delete(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := readBackLive(t, m); len(got) != 0 {
		t.Fatalf("readback after total purge = %v", got)
	}
	if len(m.Dictionary()) != 0 {
		t.Fatal("dictionary survives total purge")
	}
	if m.NumDocs() != 0 || m.Stats().Docs != 3 {
		t.Fatalf("NumDocs=%d Docs=%d", m.NumDocs(), m.Stats().Docs)
	}
	// The doc space stays consumed after reopen.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if id, err := m2.AddDocument(docText("beta")); err != nil || id != 3 {
		t.Fatalf("AddDocument after purge = (%d, %v), want (3, nil)", id, err)
	}
}

func TestPositionalLivePostings(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{Positional: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.AddDocument(docText("alpha", "beta", "alpha")); err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		l, err := m.PostingsCtx(context.Background(), "alpha")
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if !l.Positional() || len(l.Positions) != 1 ||
			!reflect.DeepEqual(l.Positions[0], []uint32{0, 2}) {
			t.Fatalf("%s: alpha positions = %v", stage, l.Positions)
		}
	}
	check("memtable")
	if err := m.Seal(); err != nil {
		t.Fatal(err)
	}
	check("sealed")
	if err := m.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	check("compacted")
}

func TestClosedManagerErrors(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddDocument(docText("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddDocument(docText("beta")); !errors.Is(err, store.ErrClosed) {
		t.Fatalf("AddDocument after Close = %v", err)
	}
	if err := m.Delete(0); !errors.Is(err, store.ErrClosed) {
		t.Fatalf("Delete after Close = %v", err)
	}
	if _, err := m.PostingsCtx(context.Background(), "alpha"); !errors.Is(err, store.ErrClosed) {
		t.Fatalf("Postings after Close = %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
}

func TestOpenRejectsCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestFileName), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, store.ErrCorruptIndex) {
		t.Fatalf("Open on corrupt manifest = %v, want ErrCorruptIndex", err)
	}
}

func TestOpenRejectsOversizedTombstones(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddDocument(docText("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Tombstones claiming more docs than the manifest sealed would
	// delete future documents; Open must refuse.
	b := (&bitmap{}).grown(10)
	if err := saveTombstones(dir, b, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, store.ErrCorruptIndex) {
		t.Fatalf("Open = %v, want ErrCorruptIndex", err)
	}
}

func TestEmptyDocumentConsumesDocID(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if id, err := m.AddDocument(nil); err != nil || id != 0 {
		t.Fatalf("empty doc = (%d, %v)", id, err)
	}
	if id, err := m.AddDocument(docText("alpha")); err != nil || id != 1 {
		t.Fatalf("second doc = (%d, %v)", id, err)
	}
	if err := m.Seal(); err != nil {
		t.Fatal(err)
	}
	l, err := m.PostingsCtx(context.Background(), "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(l.DocIDs, []uint32{1}) {
		t.Fatalf("alpha docs = %v, want [1]", l.DocIDs)
	}
}
