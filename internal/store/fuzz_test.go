package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"path/filepath"
	"slices"
	"testing"

	"fastinvert/internal/encoding"
)

// blockedRunSeed is a run holding one blocked list (600
// postings, auto-selected codec, impacts against stored lengths) and
// one short unblocked one.
func blockedRunSeed(f *testing.F) []byte {
	docs := make([]uint32, 600)
	tfs := make([]uint32, 600)
	for i := range docs {
		docs[i] = uint32(3 * i)
		tfs[i] = uint32(i%7 + 1)
	}
	lens := make([]uint32, 3*len(docs))
	for i := range lens {
		lens[i] = uint32(10 + i%50)
	}
	sel, err := encoding.SelectorFor("auto")
	if err != nil {
		f.Fatal(err)
	}
	b := NewRunBuilderCodec(sel)
	b.EnableBlocks()
	b.SetDocLens(lens)
	b.AddList(2, 0, docs, tfs)
	b.AddList(2, 1, []uint32{4, 9}, []uint32{1, 3})
	return b.Finalize(0, docs[len(docs)-1])
}

// FuzzParseRun hardens the one run-file parser — the one every
// production open goes through — against arbitrary bytes: it must
// reject typed or parse, never panic, and every entry of a parsed run
// must survive the decodes the read path runs on it (whole-list via
// ReadListCtx; skip table plus every block via BlocksCtx) without a
// panic or more postings than its table entry declares. Only the
// current format version parses: a header stamped with any other is
// rejected as ErrCorruptRun whatever follows it. And a run that opens
// holds at most one list per (collection, slot).
func FuzzParseRun(f *testing.F) {
	b := NewRunBuilder()
	b.AddList(5, 0, []uint32{1, 7}, []uint32{2, 1})
	b.AddList(17612, 3, []uint32{9}, []uint32{4})
	f.Add(b.Finalize(1, 9))
	f.Add([]byte{})
	f.Add([]byte{0x4e, 0x49, 0x52, 0x46, 1, 0, 0, 0})
	f.Add(blockedRunSeed(f))
	for _, ver := range []uint32{3, 4, 5, 7} {
		other := b.Finalize(1, 9)
		putU32At(other, 4, ver)
		f.Add(other)
	}
	b.AddList(5, 0, []uint32{11}, []uint32{1}) // a second list on (5, 0)
	f.Add(b.Finalize(1, 11))
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, data []byte) {
		// Mutated bytes almost never carry a matching checksum, which
		// would stop every input at the CRC gate; stamp the right one in
		// so the table walk and the decoders see hostile input too.
		if len(data) >= runHdrSize {
			data = append([]byte(nil), data...)
			putU32At(data, 20, crc32.ChecksumIEEE(data[runCRCFrom:]))
		}
		run, err := openRunBytes(data)
		if len(data) >= runHdrSize && binary.LittleEndian.Uint32(data[4:]) != runVersion && !errors.Is(err, ErrCorruptRun) {
			t.Fatalf("run stamped version %d: open = %v, want ErrCorruptRun", binary.LittleEndian.Uint32(data[4:]), err)
		}
		if err != nil {
			if !errors.Is(err, ErrCorruptIndex) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		keys := make(map[[2]uint32]bool, run.NumLists())
		for _, e := range run.Entries() {
			if k := [2]uint32{e.Collection, e.Slot}; keys[k] {
				t.Fatalf("opened a run holding two lists for (%d,%d)", e.Collection, e.Slot)
			} else {
				keys[k] = true
			}
			if l, err := run.ReadListCtx(ctx, e); err == nil && l.Len() > int(e.Count) {
				t.Fatalf("decoded %d postings from an entry claiming %d", l.Len(), e.Count)
			}
			bl, err := run.BlocksCtx(ctx, e)
			if err != nil || bl == nil {
				continue
			}
			total := 0
			for i := 0; i < bl.NumBlocks(); i++ {
				if ds, _, err := bl.DecodeBlock(i); err == nil {
					total += len(ds)
				}
			}
			if total > int(e.Count) {
				t.Fatalf("decoded %d block postings from an entry claiming %d", total, e.Count)
			}
		}
	})
}

// FuzzReadDictionary hardens the front-coded dictionary reader.
func FuzzReadDictionary(f *testing.F) {
	entries := []DictEntry{{"apple", 11, 0}, {"applied", 37, 1}}
	SortDictEntries(entries)
	var buf bytes.Buffer
	WriteDictionary(&buf, entries)
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadDictionary(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Parsed dictionaries round-trip through the writer when
		// already canonically ordered.
		ordered := true
		for i := 1; i < len(got); i++ {
			p, c := got[i-1], got[i]
			if c.Collection < p.Collection ||
				(c.Collection == p.Collection && c.Term < p.Term) {
				ordered = false
				break
			}
		}
		if !ordered {
			return
		}
		var out bytes.Buffer
		if err := WriteDictionary(&out, got); err != nil {
			t.Fatalf("re-encode of parsed dictionary failed: %v", err)
		}
		back, err := ReadDictionary(&out)
		if err != nil || len(back) != len(got) {
			t.Fatalf("round trip failed: %v (%d vs %d)", err, len(back), len(got))
		}
	})
}

// FuzzParseDocLens hardens the doclens.bin parser: arbitrary bytes
// must parse or fail typed, never panic or over-allocate from a
// corrupt header count.
func FuzzParseDocLens(f *testing.F) {
	valid := make([]byte, 8)
	putU32At(valid, 0, docLensMagic)
	putU32At(valid, 4, 2)
	valid = append(valid, 3, 200)
	f.Add(valid)
	f.Add([]byte{})
	huge := make([]byte, 8)
	putU32At(huge, 0, docLensMagic)
	putU32At(huge, 4, 0xFFFFFFFF)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		lens, err := parseDocLens(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptIndex) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if len(lens) > len(data) {
			t.Fatalf("%d entries parsed from %d bytes", len(lens), len(data))
		}
	})
}

// FuzzParseDocTable hardens the doctable.bin parser the same way.
func FuzzParseDocTable(f *testing.F) {
	valid := make([]byte, 12)
	putU32At(valid, 0, docTableMagic)
	putU32At(valid, 4, 1)
	putU32At(valid, 8, 1)
	valid = append(valid, 3, 'a', 'b', 'c') // one name
	valid = append(valid, 0, 0, 5)          // one (file, off, len) row
	f.Add(valid)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		names, locs, err := parseDocTable(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptIndex) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if len(names) > len(data) || len(locs) > len(data) {
			t.Fatalf("%d names / %d locs parsed from %d bytes", len(names), len(locs), len(data))
		}
		for _, l := range locs {
			if int(l.FileIdx) >= len(names) {
				t.Fatalf("loc references name %d of %d", l.FileIdx, len(names))
			}
		}
	})
}

// FuzzParseDocMap hardens docmap.json validation: parsed rows must
// never escape the index directory or carry inverted ranges.
func FuzzParseDocMap(f *testing.F) {
	f.Add([]byte(`[{"file":"run-00000.post","first_doc":0,"last_doc":9,"lists":1,"bytes":64}]`))
	f.Add([]byte(`[{"file":"../evil","first_doc":0,"last_doc":9}]`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		runs, err := parseDocMap(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptIndex) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		for _, rm := range runs {
			if rm.File == "" || rm.File != filepath.Base(rm.File) {
				t.Fatalf("unsafe run file name %q accepted", rm.File)
			}
			if rm.LastDoc < rm.FirstDoc {
				t.Fatalf("inverted doc range accepted: %+v", rm)
			}
		}
	})
}

// oneBlockBlob hand-assembles a blocked blob of a single varbyte block
// holding docs 0..n-1 at tf 1, with the skip entry claiming exactly
// that: well-formed in every respect but, for n > BlockLen, the
// block's size.
func oneBlockBlob(n int) ([]byte, RunEntry) {
	docs := make([]uint32, n)
	tfs := make([]uint32, n)
	for i := range docs {
		docs[i], tfs[i] = uint32(i), 1
	}
	body, err := encoding.VarByteCodec.Encode(nil, docs, tfs, nil)
	if err != nil {
		panic(err)
	}
	blob := encoding.PutUvarByte(nil, 1)                 // nBlocks
	blob = encoding.PutUvarByte(blob, uint64(n-1))       // lastDoc
	blob = encoding.PutUvarByte(blob, uint64(n))         // count
	blob = encoding.PutUvarByte(blob, uint64(len(body))) // byteLen
	blob = encoding.PutUvarByte(blob, 1)                 // maxTF
	blob = append(blob, 0)                               // impact
	blob = append(blob, body...)
	return blob, RunEntry{Length: uint32(len(blob)), Count: uint32(n), Flags: FlagBlocks}
}

// TestBlockedBlobRejectsOversizedBlock: a skip entry may not claim
// more postings than a block holds, however consistent the rest of
// the blob is with the claim — readers decode blocks into fixed
// BlockLen buffers, and no on-disk number may size a write past them.
func TestBlockedBlobRejectsOversizedBlock(t *testing.T) {
	blob, e := oneBlockBlob(BlockLen)
	bl, err := parseBlockedBlob(blob, e)
	if err != nil {
		t.Fatalf("a full block must parse: %v", err)
	}
	var docBuf, tfBuf [BlockLen]uint32
	docs, tfs, err := bl.DecodeBlockInto(0, docBuf[:], tfBuf[:])
	if err != nil || len(docs) != BlockLen || len(tfs) != BlockLen || docs[BlockLen-1] != BlockLen-1 {
		t.Fatalf("full block decoded to %d/%d postings, %v", len(docs), len(tfs), err)
	}
	blob, e = oneBlockBlob(BlockLen + 1)
	if _, err := parseBlockedBlob(blob, e); !errors.Is(err, ErrCorruptRun) {
		t.Fatalf("block of %d postings: parse = %v, want ErrCorruptRun", BlockLen+1, err)
	}
}

// FuzzBlockedList hardens the blocked-blob parser: arbitrary bytes
// must be rejected with the typed corruption error or parse into a
// skip table whose blocks all decode within their declared shapes —
// into BlockLen buffers, which no parsed block may outgrow — never a
// panic, never an allocation driven by unvalidated counts.
func FuzzBlockedList(f *testing.F) {
	run, err := openRunBytes(blockedRunSeed(f))
	if err != nil {
		f.Fatal(err)
	}
	e := run.Entries()[0]
	blob, err := run.readBlob(nil, e)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob, e.Count, e.Flags)
	f.Add([]byte{}, uint32(0), e.Flags)
	f.Add([]byte{1, 1, 1, 1, 1, 0, 0}, uint32(1), e.Flags)
	f.Add([]byte{1, 1, 1, 1, 1, 200, 0}, uint32(1), e.Flags)
	big, be := oneBlockBlob(BlockLen + 1)
	f.Add(big, be.Count, be.Flags)
	f.Fuzz(func(t *testing.T, data []byte, count, flags uint32) {
		fe := RunEntry{Length: uint32(len(data)), Count: count, Flags: flags | FlagBlocks}
		bl, err := parseBlockedBlob(data, fe)
		if err != nil {
			if !errors.Is(err, ErrCorruptIndex) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		total := 0
		var docBuf, tfBuf [BlockLen]uint32
		for i := 0; i < bl.NumBlocks(); i++ {
			sk := bl.Skip(i)
			ds, ts, err := bl.DecodeBlockInto(i, docBuf[:], tfBuf[:])
			ads, ats, aerr := bl.DecodeBlock(i)
			if (err != nil) != (aerr != nil) || !slices.Equal(ds, ads) || !slices.Equal(ts, ats) {
				t.Fatalf("block %d: DecodeBlockInto (%v) and DecodeBlock (%v) disagree", i, err, aerr)
			}
			if err != nil {
				if !errors.Is(err, ErrCorruptIndex) {
					t.Fatalf("untyped decode error: %v", err)
				}
				continue
			}
			if len(ds) != int(sk.Count) || len(ts) != len(ds) {
				t.Fatalf("block %d decoded %d/%d postings, skip says %d", i, len(ds), len(ts), sk.Count)
			}
			total += len(ds)
		}
		if total > int(count) {
			t.Fatalf("decoded %d postings from an entry claiming %d", total, count)
		}
	})
}
