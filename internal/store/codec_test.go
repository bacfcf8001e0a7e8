package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"fastinvert/internal/encoding"
	"fastinvert/internal/postings"
	"fastinvert/internal/trie"
)

// bigList returns a list long enough (>= 32) for AutoSelect to leave
// the varbyte floor; gapRange controls density.
func bigList(n int, gapRange int, seed int64) (docs, tfs []uint32) {
	r := rand.New(rand.NewSource(seed))
	d := uint32(0)
	for i := 0; i < n; i++ {
		d += 1 + uint32(r.Intn(gapRange))
		docs = append(docs, d)
		tfs = append(tfs, 1+uint32(r.Intn(3)))
	}
	return docs, tfs
}

// TestRunRejectsCodecCorruption: every run version but the current
// one, unknown codec IDs, counts the codec cannot hold and a blocked
// positional entry must all surface ErrCorruptRun (wrapping
// ErrCorruptIndex).
func TestRunRejectsCodecCorruption(t *testing.T) {
	docs, tfs := bigList(64, 3, 2)
	b := NewRunBuilder()
	if err := b.AddList(0, 0, docs, tfs); err != nil {
		t.Fatal(err)
	}
	base := b.Finalize(0, 1000)

	// Flags live at entry offset 24; the entry table starts at the
	// header boundary.
	flagsOff := runHdrSize + 24
	mutate := func(f func(data []byte)) []byte {
		data := append([]byte(nil), base...)
		f(data)
		binary.LittleEndian.PutUint32(data[20:], crc32.ChecksumIEEE(data[runCRCFrom:]))
		return data
	}

	cases := map[string][]byte{
		"unknown codec": mutate(func(d []byte) {
			binary.LittleEndian.PutUint32(d[flagsOff:], codecFlags(200))
		}),
		"count exceeds codec minimum": mutate(func(d []byte) {
			binary.LittleEndian.PutUint32(d[flagsOff:], codecFlags(encoding.CodecGamma))
			// 64 gamma postings cost >= 16 bytes; claim far more.
			binary.LittleEndian.PutUint32(d[runHdrSize+20:], 1<<20)
		}),
		"blocked positional entry": mutate(func(d []byte) {
			binary.LittleEndian.PutUint32(d[flagsOff:], FlagBlocks|FlagPositional)
		}),
	}
	for _, ver := range []uint32{0, 3, 4, 5, runVersion + 1} {
		cases[fmt.Sprintf("run version %d", ver)] = mutate(func(d []byte) {
			binary.LittleEndian.PutUint32(d[4:], ver)
		})
	}
	for name, data := range cases {
		if _, err := openRunBytes(data); !errors.Is(err, ErrCorruptRun) || !errors.Is(err, ErrCorruptIndex) {
			t.Errorf("%s: open = %v, want ErrCorruptRun", name, err)
		}
	}
}

// buildBigMergedDir writes an index whose lists are long enough for
// the self-tuning selector to pick non-varbyte codecs: a dense list
// (bitpack territory), a sparse list (Elias-Fano) and a short one
// (varbyte floor), plus a positional list.
func buildBigMergedDir(t testing.TB) (string, []string) {
	t.Helper()
	dir := t.TempDir()
	w, err := NewIndexWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	dense, denseTF := bigList(400, 3, 3)
	sparse, sparseTF := bigList(200, 50000, 4)
	terms := []string{"dense", "sparse", "tiny", "posit"}
	var dict []DictEntry
	for slot, term := range terms {
		dict = append(dict, DictEntry{
			Term:       term,
			Collection: int32(trie.IndexString(term)),
			Slot:       int32(slot),
		})
	}
	half := func(docs, tfs []uint32, lo, hi uint32) (d, f []uint32) {
		for i := range docs {
			if docs[i] >= lo && docs[i] <= hi {
				d = append(d, docs[i])
				f = append(f, tfs[i])
			}
		}
		return d, f
	}
	maxDoc := sparse[len(sparse)-1]
	mid := maxDoc / 2
	ranges := [][2]uint32{{0, mid}, {mid + 1, maxDoc}}
	for _, rg := range ranges {
		b := NewRunBuilder()
		for slot, term := range terms {
			coll := trie.IndexString(term)
			var docs, tfs []uint32
			switch term {
			case "dense":
				docs, tfs = half(dense, denseTF, rg[0], rg[1])
			case "sparse":
				docs, tfs = half(sparse, sparseTF, rg[0], rg[1])
			case "tiny":
				if rg[0] == 0 {
					docs, tfs = []uint32{3, 9}, []uint32{1, 2}
				}
			case "posit":
				if rg[0] == 0 {
					pd, pt := []uint32{1, 2, 7}, []uint32{1, 2, 1}
					if err := b.AddPositionalList(coll, int32(slot), pd, pt,
						[][]uint32{{0}, {3, 8}, {2}}); err != nil {
						t.Fatal(err)
					}
				}
				continue
			}
			if len(docs) == 0 {
				continue
			}
			if err := b.AddList(coll, int32(slot), docs, tfs); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.WriteRun(b, rg[0], rg[1]); err != nil {
			t.Fatal(err)
		}
	}
	SortDictEntries(dict)
	if err := w.Finish(dict); err != nil {
		t.Fatal(err)
	}
	return dir, terms
}

// TestMergeSelfTuningCodecs: an auto merge over long lists chooses at
// least two codecs and blocks the long lists, serves identical
// postings to a forced-varbyte merge of the same runs (which blocks
// them too), and passes Verify.
func TestMergeSelfTuningCodecs(t *testing.T) {
	dir, terms := buildBigMergedDir(t)

	// Reference: forced-varbyte merge.
	vb, err := OpenIndexWith(dir, ReaderOptions{MergeCodec: "varbyte"})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := vb.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Codecs["varbyte"] != stats.Lists || stats.Blocked == 0 {
		t.Fatalf("forced varbyte merge: codecs %v, %d blocked", stats.Codecs, stats.Blocked)
	}
	want := map[string]*postings.List{}
	for _, term := range terms {
		l, err := vb.Postings(term)
		if err != nil {
			t.Fatal(err)
		}
		want[term] = l
	}
	vb.Close()

	// Now the self-tuned re-merge.
	auto, err := OpenIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	stats, err = auto.Merge()
	if err != nil {
		t.Fatal(err)
	}
	auto.Close()
	if stats.Codecs["bitpack"] == 0 || stats.Codecs["eliasfano"] == 0 || stats.Codecs["varbyte"] == 0 {
		t.Fatalf("self-tuning merge codecs = %v, want bitpack+eliasfano+varbyte", stats.Codecs)
	}
	// The long lists cross the blocking threshold, so the merge carries
	// skip tables.
	if stats.Blocked == 0 {
		t.Fatalf("self-tuning merge wrote no blocked lists: %+v", stats)
	}

	post, err := OpenIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer post.Close()
	if !post.MergedActive() {
		t.Fatal("merged file not active")
	}
	for _, term := range terms {
		got, err := post.Postings(term)
		if err != nil {
			t.Fatal(err)
		}
		assertSameList(t, term, got, want[term])
	}
	st := post.Stats()
	if st.CodecDecodes["bitpack"] == 0 || st.CodecDecodes["eliasfano"] == 0 {
		t.Fatalf("codec decode telemetry = %v", st.CodecDecodes)
	}

	rep, err := Verify(dir)
	if err != nil {
		t.Fatalf("Verify after self-tuned merge: %v", err)
	}
	if rep.MergedCodecs["bitpack"] == 0 || rep.MergedCodecs["eliasfano"] == 0 {
		t.Fatalf("Verify merged codecs = %v", rep.MergedCodecs)
	}
}

// TestMergeCodecDeterminism: the merged bytes are identical for any
// worker count even when the selector mixes codecs.
func TestMergeCodecDeterminism(t *testing.T) {
	var want []byte
	for _, workers := range []int{1, 3, 8} {
		dir, _ := buildBigMergedDir(t)
		r, err := OpenIndexWith(dir, ReaderOptions{MergeWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Merge(); err != nil {
			t.Fatal(err)
		}
		r.Close()
		data, err := os.ReadFile(filepath.Join(dir, mergedFileName))
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = data
		} else if !bytes.Equal(want, data) {
			t.Fatalf("merged bytes differ with %d workers", workers)
		}
	}
}

// TestOpenIndexRejectsUnknownMergeCodec: a typo'd codec name fails at
// open, not at merge time.
func TestOpenIndexRejectsUnknownMergeCodec(t *testing.T) {
	dir, _ := buildMergedTestDir(t)
	if _, err := OpenIndexWith(dir, ReaderOptions{MergeCodec: "zstd"}); !errors.Is(err, encoding.ErrUnknownCodec) {
		t.Fatalf("OpenIndexWith(zstd) = %v, want ErrUnknownCodec", err)
	}
}

// TestCrc32Combine pins the GF(2) splice against the straightforward
// one-pass checksum over random split points.
func TestCrc32Combine(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	buf := make([]byte, 1<<16)
	r.Read(buf)
	want := crc32.ChecksumIEEE(buf)
	for _, split := range []int{0, 1, 7, 64, 4096, len(buf) - 1, len(buf)} {
		a, b := buf[:split], buf[split:]
		got := crc32Combine(crc32.ChecksumIEEE(a), crc32.ChecksumIEEE(b), int64(len(b)))
		if got != want {
			t.Fatalf("split %d: combine = %08x, want %08x", split, got, want)
		}
	}
}
