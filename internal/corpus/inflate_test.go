package corpus

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
)

func gz(t testing.TB, plain []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(plain); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withISIZE returns a copy of a gzip file whose trailer claims size.
func withISIZE(stored []byte, size uint32) []byte {
	out := bytes.Clone(stored)
	binary.LittleEndian.PutUint32(out[len(out)-4:], size)
	return out
}

// oracle is what Decompress replaced: the stdlib reader drained by
// io.ReadAll, with no knowledge of the trailer.
func oracle(stored []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(stored))
	if err != nil {
		return nil, err
	}
	return io.ReadAll(zr)
}

// allocatedBy reports the heap bytes fn allocated.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestDecompressTrailerIsOnlyAHint(t *testing.T) {
	plain := []byte(strings.Repeat("inverted files on heterogeneous platforms ", 2000))
	stored := gz(t, plain)
	if len(stored) > 1<<10 {
		t.Fatalf("test input grew to %d stored bytes; the allocation bound below assumes ~1 KiB", len(stored))
	}

	t.Run("lies high", func(t *testing.T) {
		lying := withISIZE(stored, math.MaxUint32)
		if got, limit := PlainSize(lying, true), len(lying)*maxInflateRatio; got > limit {
			t.Errorf("PlainSize = %d, above the %d that %d stored bytes can inflate to", got, limit, len(lying))
		}
		// Bounds before alloc: a 4 GiB claim from a 1 KiB file must
		// size nothing. The stream itself is intact, so the length
		// check at EOF still rejects the file, as it always did.
		var err error
		if n := allocatedBy(func() { _, err = Decompress(lying, true) }); n > 8<<20 {
			t.Errorf("Decompress allocated %d bytes for a %d-byte input", n, len(lying))
		}
		if err == nil {
			t.Error("Decompress accepted a trailer whose length is wrong")
		}
		// A prefix stops before the trailer and is unaffected by it.
		var prefix []byte
		if n := allocatedBy(func() { prefix, _, err = DecompressPrefix(lying, true, 100) }); n > 8<<20 {
			t.Errorf("DecompressPrefix allocated %d bytes for a 100-byte prefix", n)
		}
		if err != nil || !bytes.Equal(prefix, plain[:100]) {
			t.Errorf("prefix of 100 = %d bytes, err %v", len(prefix), err)
		}
		// Asking for everything reads the trailer and must fail on it.
		if _, _, err := DecompressPrefix(lying, true, math.MaxInt); err == nil {
			t.Error("whole-file prefix accepted a trailer whose length is wrong")
		}
	})

	t.Run("lies low", func(t *testing.T) {
		// Tampered down to zero: same verdict as the oracle, an error.
		if _, err := Decompress(withISIZE(stored, 0), true); err == nil {
			t.Error("Decompress accepted a trailer whose length is wrong")
		}
		// Honestly low: a multi-member file's trailer counts only its
		// last member. The output must still be complete.
		tail := []byte("tail")
		multi := append(bytes.Clone(stored), gz(t, tail)...)
		if got := PlainSize(multi, true); got != len(tail) {
			t.Fatalf("PlainSize of multi-member file = %d, want its last member's %d", got, len(tail))
		}
		want := append(bytes.Clone(plain), tail...)
		got, err := Decompress(multi, true)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("multi-member: got %d bytes, err %v; want %d", len(got), err, len(want))
		}
		// A prefix may span the member boundary.
		prefix, whole, err := DecompressPrefix(multi, true, len(plain)+2)
		if err != nil || whole || !bytes.Equal(prefix, want[:len(plain)+2]) {
			t.Errorf("prefix across members: %d bytes, whole %v, err %v", len(prefix), whole, err)
		}
	})
}

func TestDecompressPrefixSizes(t *testing.T) {
	plain := []byte(strings.Repeat("0123456789", 500))
	for _, compressed := range []bool{false, true} {
		stored := plain
		if compressed {
			stored = gz(t, plain)
		}
		for _, tc := range []struct {
			n     int
			want  int
			whole bool
		}{
			{-1, 0, false},
			{0, 0, false},
			{1, 1, false},
			{len(plain) - 1, len(plain) - 1, false},
			{len(plain), len(plain), true},
			{len(plain) + 1, len(plain), true},
			{100 * len(plain), len(plain), true},
			{math.MaxInt, len(plain), true},
		} {
			got, whole, err := DecompressPrefix(stored, compressed, tc.n)
			if err != nil {
				t.Fatalf("compressed=%v n=%d: %v", compressed, tc.n, err)
			}
			if !bytes.Equal(got, plain[:tc.want]) || whole != tc.whole {
				t.Errorf("compressed=%v n=%d: %d bytes whole=%v, want %d bytes whole=%v",
					compressed, tc.n, len(got), whole, tc.want, tc.whole)
			}
		}
	}
	// An empty file is whole at any n, compressed or not.
	for _, compressed := range []bool{false, true} {
		stored := []byte{}
		if compressed {
			stored = gz(t, nil)
		}
		got, whole, err := DecompressPrefix(stored, compressed, 0)
		if err != nil || len(got) != 0 || !whole {
			t.Errorf("empty file, compressed=%v: %d bytes whole=%v err %v", compressed, len(got), whole, err)
		}
	}
}

func TestDecompressPrefixStopsBeforeDamage(t *testing.T) {
	g := NewGenerator(smallProfile())
	stored, _ := g.GenerateFile(0)
	plain := g.GeneratePlain(0)
	cut := stored[:len(stored)/2]
	if _, err := Decompress(cut, true); err == nil {
		t.Fatal("Decompress accepted a truncated stream")
	}
	prefix, whole, err := DecompressPrefix(cut, true, 256)
	if err != nil || whole || !bytes.Equal(prefix, plain[:256]) {
		t.Errorf("prefix ahead of the cut: %d bytes, whole %v, err %v", len(prefix), whole, err)
	}
	if _, _, err := DecompressPrefix(cut, true, len(plain)); err == nil {
		t.Error("prefix past the cut accepted a truncated stream")
	}
}

// FuzzDecompress holds Decompress and DecompressPrefix to the stdlib
// reader drained by io.ReadAll: same bytes, same verdict, whatever the
// trailer claims.
func FuzzDecompress(f *testing.F) {
	plain := []byte(strings.Repeat("the quick brown fox ", 300))
	good := gz(f, plain)
	f.Add(good, 0)
	f.Add(good, 777)
	f.Add(good, len(plain))
	f.Add(good[:len(good)/2], 64)
	f.Add(withISIZE(good, math.MaxUint32), 1<<20)
	f.Add(withISIZE(good, 0), 3)
	f.Add(append(bytes.Clone(good), gz(f, []byte("second member"))...), len(plain)+5)
	f.Add(gz(f, nil), 1)
	f.Add([]byte{}, 0)
	f.Add([]byte{0x1f, 0x8b, 8}, 10)
	f.Add([]byte("not gzip at all"), 10)

	f.Fuzz(func(t *testing.T, stored []byte, n int) {
		want, wantErr := oracle(stored)
		got, err := Decompress(stored, true)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("Decompress err %v, oracle err %v", err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("Decompress returned %d bytes, oracle %d", len(got), len(want))
		}

		if n < 0 {
			n = -(n + 1)
		}
		prefix, whole, err := DecompressPrefix(stored, true, n)
		if err != nil {
			if wantErr == nil {
				t.Fatalf("DecompressPrefix(%d) failed on a file the oracle reads: %v", n, err)
			}
			return
		}
		// On a damaged file want is what the oracle read before the
		// damage; a prefix may succeed only by stopping short of it.
		if whole && wantErr != nil {
			t.Fatalf("DecompressPrefix(%d) read a damaged file to its end: oracle err %v", n, wantErr)
		}
		if whole != (wantErr == nil && n >= len(want)) {
			t.Fatalf("DecompressPrefix(%d) whole=%v on a %d-byte file", n, whole, len(want))
		}
		if len(prefix) != min(n, len(want)) || !bytes.Equal(prefix, want[:len(prefix)]) {
			t.Fatalf("DecompressPrefix(%d) returned %d bytes of a %d-byte file", n, len(prefix), len(want))
		}
	})
}
