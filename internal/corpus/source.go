package corpus

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Source is a readable document collection: an ordered set of container
// files, possibly gzip-compressed, each holding DocDelim-separated
// documents. The pipeline's Step 1 (read, decompress, split) consumes
// exactly this interface, whether the collection is generated in
// memory or stored on disk.
type Source interface {
	// NumFiles reports the number of container files.
	NumFiles() int
	// FileName reports file i's name (diagnostics, Fig. 11 x-axis).
	FileName(i int) string
	// ReadFile returns file i's stored bytes and whether they are
	// gzip-compressed.
	ReadFile(i int) (stored []byte, compressed bool, err error)
}

// maxInflateRatio bounds how far deflate can expand its input (a
// stored run of one repeated byte approaches 1032:1), so no header
// field of an untrusted file sizes an allocation beyond what its
// length could really hold.
const maxInflateRatio = 1032

// PlainSize estimates the uncompressed size of a stored file without
// inflating it: exact for plain files, and for gzip the trailer's
// ISIZE field capped by what len(stored) could inflate to. ISIZE is
// the last member's length mod 2^32 and is not verified here, so the
// result is a budget and a capacity hint, never a length to trust.
func PlainSize(stored []byte, compressed bool) int {
	if !compressed {
		return len(stored)
	}
	if len(stored) < 4 {
		return 0
	}
	isize := uint64(binary.LittleEndian.Uint32(stored[len(stored)-4:]))
	if limit := uint64(len(stored)) * maxInflateRatio; isize > limit {
		isize = limit
	}
	return int(isize)
}

// Decompress returns the uncompressed content of a stored file. The
// output is allocated once from PlainSize and grows only when that
// hint lied low; the stream is still read to EOF, so gzip's CRC-32 and
// length check cover every byte returned.
func Decompress(stored []byte, compressed bool) ([]byte, error) {
	if !compressed {
		return stored, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(stored))
	if err != nil {
		return nil, fmt.Errorf("corpus: gzip open: %w", err)
	}
	defer zr.Close()
	out, err := readAllHint(zr, PlainSize(stored, true))
	if err != nil {
		return nil, fmt.Errorf("corpus: gzip read: %w", err)
	}
	return out, nil
}

// DecompressPrefix returns the first n bytes of a stored file's
// uncompressed content, or all of it when the file is no longer than
// n; whole reports the latter. A gzip stream is inflated only as far
// as the prefix needs, so its tail is neither read nor checksummed
// unless whole is true.
func DecompressPrefix(stored []byte, compressed bool, n int) (prefix []byte, whole bool, err error) {
	n = min(max(n, 0), math.MaxInt-1) // n+1 below must not overflow
	if !compressed {
		if n >= len(stored) {
			return stored, true, nil
		}
		return stored[:n], false, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(stored))
	if err != nil {
		return nil, false, fmt.Errorf("corpus: gzip open: %w", err)
	}
	defer zr.Close()
	// One byte past n tells a file of exactly n bytes from a longer one.
	out, err := readAllHint(io.LimitReader(zr, int64(n)+1), min(n+1, PlainSize(stored, true)))
	if err != nil {
		return nil, false, fmt.Errorf("corpus: gzip read: %w", err)
	}
	if len(out) > n {
		return out[:n], false, nil
	}
	return out, true, nil
}

// readAllHint is io.ReadAll into a buffer preallocated for hint bytes;
// the bytes.MinRead of slack lets the read that reports EOF find room
// without growing the buffer.
func readAllHint(r io.Reader, hint int) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(hint + bytes.MinRead)
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// MemSource serves a generated collection from memory: lazily,
// generating (and gzipping) a file anew on every ReadFile, until
// Materialize has run.
type MemSource struct {
	gen      *Generator
	numFiles int
	stored   [][]byte // every file's stored bytes, once materialized
}

// NewMemSource wraps a generator as an n-file source.
func NewMemSource(gen *Generator, numFiles int) *MemSource {
	return &MemSource{gen: gen, numFiles: numFiles}
}

// NumFiles implements Source.
func (s *MemSource) NumFiles() int { return s.numFiles }

// FileName implements Source.
func (s *MemSource) FileName(i int) string { return s.gen.FileName(i) }

// Materialize generates every file now and keeps the stored bytes, and
// returns s. A build reads each file once for the sample and once for
// the pipeline, and times both: over a lazy source those spans measure
// the generator.
func (s *MemSource) Materialize() *MemSource {
	if s.stored == nil {
		s.stored = make([][]byte, s.numFiles)
		for i := range s.stored {
			s.stored[i], _ = s.gen.GenerateFile(i)
		}
	}
	return s
}

// ReadFile implements Source.
func (s *MemSource) ReadFile(i int) ([]byte, bool, error) {
	if i < 0 || i >= s.numFiles {
		return nil, false, fmt.Errorf("corpus: file %d out of range", i)
	}
	var stored []byte
	if s.stored != nil {
		stored = s.stored[i]
	} else {
		stored, _ = s.gen.GenerateFile(i)
	}
	return stored, s.gen.Profile().Compressed, nil
}

// Generator returns the underlying generator.
func (s *MemSource) Generator() *Generator { return s.gen }

// DirSource serves container files from a directory (written by
// WriteDir or by any external producer). Files are ordered by name;
// names ending in .gz are treated as compressed.
type DirSource struct {
	dir   string
	names []string
}

// OpenDir scans a directory into a DirSource.
func OpenDir(dir string) (*DirSource, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(e.Name(), ".txt") || strings.HasSuffix(e.Name(), ".txt.gz") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("corpus: no .txt/.txt.gz files in %s", dir)
	}
	sort.Strings(names)
	return &DirSource{dir: dir, names: names}, nil
}

// NumFiles implements Source.
func (s *DirSource) NumFiles() int { return len(s.names) }

// FileName implements Source.
func (s *DirSource) FileName(i int) string { return s.names[i] }

// ReadFile implements Source.
func (s *DirSource) ReadFile(i int) ([]byte, bool, error) {
	b, err := os.ReadFile(filepath.Join(s.dir, s.names[i]))
	if err != nil {
		return nil, false, err
	}
	return b, strings.HasSuffix(s.names[i], ".gz"), nil
}

// WriteDir materializes numFiles of a generated collection into dir,
// creating it if needed. It returns the total stored bytes.
func WriteDir(gen *Generator, numFiles int, dir string) (int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	var total int64
	for i := 0; i < numFiles; i++ {
		stored, _ := gen.GenerateFile(i)
		if err := os.WriteFile(filepath.Join(dir, gen.FileName(i)), stored, 0o644); err != nil {
			return total, err
		}
		total += int64(len(stored))
	}
	return total, nil
}
