package store

import (
	"context"
	"reflect"
	"testing"

	"fastinvert/internal/encoding"
	"fastinvert/internal/postings"
	"fastinvert/internal/telemetry"
)

// TestRunFileReadMethodsAgree drives the two read methods of the one
// reader over one file holding every shape an entry takes — a short
// unblocked list, a long blocked one, a long positional (hence
// unblocked) one — plus a key the file does not hold. For each entry
// ReadListCtx and the concatenation of BlocksCtx's decoded blocks must
// be the same list, an unblocked entry's single pseudo-block must be
// exact, and under a traced context each call must record exactly one
// pread span and move the per-codec counter by exactly one.
func TestRunFileReadMethodsAgree(t *testing.T) {
	long, longTF := bigList(600, 3, 7)
	positions := make([][]uint32, len(long))
	for i, tf := range longTF {
		for p := uint32(0); p < tf; p++ {
			positions[i] = append(positions[i], 5*p+uint32(i%3))
		}
	}
	b := NewRunBuilderCodec(encoding.AutoSelect)
	b.EnableBlocks()
	if err := b.AddList(1, 0, []uint32{4, 9}, []uint32{1, 3}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddList(1, 1, long, longTF); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPositionalList(1, 2, long, longTF, positions); err != nil {
		t.Fatal(err)
	}
	run, err := openRunBytes(b.Finalize(0, long[len(long)-1]))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := run.Find(1, 3); ok {
		t.Fatal("Find reports a list the file does not hold")
	}

	// traced runs one read method under a fresh trace and checks what it
	// recorded and counted.
	traced := func(name string, e RunEntry, read func(ctx context.Context)) {
		t.Helper()
		codec, err := encoding.Lookup(e.Codec())
		if err != nil {
			t.Fatal(err)
		}
		before := run.path.ListsByCodec()[codec.Name()]
		bytesBefore := run.path.ListBytes()
		tr := telemetry.NewRequestTrace("test")
		read(telemetry.ContextWithTrace(context.Background(), tr))
		tr.Finish(0, "")
		preads := 0
		for _, sp := range tr.Snapshot().Spans {
			if sp.Stage == telemetry.ReqStagePread {
				preads++
				if sp.Bytes != int64(e.Length) {
					t.Errorf("%s: pread span carries %d bytes, entry is %d", name, sp.Bytes, e.Length)
				}
			}
		}
		if preads != 1 {
			t.Errorf("%s: %d pread spans, want exactly 1", name, preads)
		}
		if got := run.path.ListsByCodec()[codec.Name()] - before; got != 1 {
			t.Errorf("%s: %s counter moved by %d, want 1", name, codec.Name(), got)
		}
		if got := run.path.ListBytes() - bytesBefore; got != uint64(e.Length) {
			t.Errorf("%s: bytes-read counter moved by %d, want %d", name, got, e.Length)
		}
	}

	for _, tc := range []struct {
		name       string
		slot       uint32
		codec      encoding.CodecID
		blocks     int // stored blocks; 0 means unblocked
		positional bool
	}{
		{"short unblocked", 0, encoding.CodecVarByte, 0, false},
		{"long blocked", 1, encoding.CodecBitPack, (600 + BlockLen - 1) / BlockLen, false},
		{"long positional", 2, encoding.CodecBitPack, 0, true},
	} {
		e, ok := run.Find(1, tc.slot)
		if !ok {
			t.Fatalf("%s: entry missing", tc.name)
		}
		if e.Codec() != tc.codec || (e.Flags&FlagBlocks != 0) != (tc.blocks > 0) {
			t.Fatalf("%s: stored with codec %d, flags %#x", tc.name, e.Codec(), e.Flags)
		}
		var l *postings.List
		traced(tc.name+" ReadListCtx", e, func(ctx context.Context) {
			if l, err = run.ReadListCtx(ctx, e); err != nil {
				t.Fatal(err)
			}
		})
		if l.Len() != int(e.Count) || l.Positional() != tc.positional {
			t.Fatalf("%s: read %d postings (positional %v)", tc.name, l.Len(), l.Positional())
		}
		var bl *BlockList
		traced(tc.name+" BlocksCtx", e, func(ctx context.Context) {
			if bl, err = run.BlocksCtx(ctx, e); err != nil {
				t.Fatal(err)
			}
		})
		var docs, tfs []uint32
		for i := 0; i < bl.NumBlocks(); i++ {
			d, f, err := bl.DecodeBlock(i)
			if err != nil {
				t.Fatal(err)
			}
			docs, tfs = append(docs, d...), append(tfs, f...)
		}
		if !reflect.DeepEqual(docs, l.DocIDs) || !reflect.DeepEqual(tfs, l.TFs) {
			t.Errorf("%s: blocks decode to a different list than ReadListCtx", tc.name)
		}
		if tc.blocks > 0 {
			if bl.NumBlocks() != tc.blocks {
				t.Errorf("%s: %d blocks, want %d", tc.name, bl.NumBlocks(), tc.blocks)
			}
			continue
		}
		var maxTF uint32
		for _, tf := range l.TFs {
			maxTF = max(maxTF, tf)
		}
		want := BlockSkip{LastDoc: l.DocIDs[l.Len()-1], Count: uint32(l.Len()), MaxTF: maxTF}
		if bl.NumBlocks() != 1 || bl.Skip(0) != want {
			t.Errorf("%s: pseudo-block skip = %+v over %d blocks, want exactly %+v", tc.name, bl.Skip(0), bl.NumBlocks(), want)
		}
	}
}

// TestRunBuilderForcedVarbyteIsDefault: a selector that only ever picks
// varbyte writes the bytes the selector-less builder writes.
func TestRunBuilderForcedVarbyteIsDefault(t *testing.T) {
	docs, tfs := bigList(200, 3, 1)
	plain := NewRunBuilder()
	forced := NewRunBuilderCodec(encoding.ForceSelect(encoding.VarByteCodec))
	for _, b := range []*RunBuilder{plain, forced} {
		if err := b.AddList(0, 0, docs, tfs); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(plain.Finalize(0, 1000), forced.Finalize(0, 1000)) {
		t.Fatal("forced-varbyte builder output differs from the default builder's")
	}
}
