// Package sampling implements the paper's CPU/GPU load split (§III.E):
// a small sample of the collection is parsed to find the "popular"
// trie collections (the Zipf head, where a few common terms dominate
// and B-tree paths stay cache-resident), which go to CPU indexers in
// token-balanced sets; the remaining collections (the Zipf tail, cache
// hostile but data-parallel friendly) go to the GPUs by index modulo
// the GPU count.
package sampling

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"fastinvert/internal/corpus"
	"fastinvert/internal/parser"
	"fastinvert/internal/trie"
)

// Config tunes the sampling pass.
type Config struct {
	// Ratio is the sampled fraction of each file's uncompressed bytes,
	// taken from the head of the file in whole documents; the paper
	// samples 1 MB out of every 1 GB (0.001). Synthetic corpora are
	// small, so the default is 0.02, and every file that holds a
	// document contributes at least one.
	Ratio float64

	// PopularCount is the number of popular collections; the paper
	// reports "around one hundred".
	PopularCount int
}

// DefaultConfig mirrors the paper's choices at synthetic scale.
func DefaultConfig() Config { return Config{Ratio: 0.02, PopularCount: 100} }

// Counts holds per-trie-collection token counts from the sample.
type Counts struct {
	Tokens    [trie.NumCollections]int64
	Total     int64
	DocsSeen  int64
	FilesSeen int
	// Bytes is the uncompressed bytes inflated (or sliced, for plain
	// files) to obtain the sample, regrown prefixes included.
	Bytes int64
}

// Sample parses the head of every file of src with p — the parser the
// indexers will be fed by, so the counts weigh collections the way the
// build will — and returns the per-collection token counts (the
// paper's "several tests on the sample to determine membership"). Only
// a Ratio-sized prefix of each file is decompressed; a corrupt tail is
// the pipeline's to report, not the sampler's.
func Sample(src corpus.Source, p *parser.Parser, cfg Config) (*Counts, error) {
	if cfg.Ratio <= 0 {
		cfg.Ratio = DefaultConfig().Ratio
	}
	var c Counts
	blk := parser.NewBlock(0)
	for i := 0; i < src.NumFiles(); i++ {
		stored, compressed, err := src.ReadFile(i)
		if err != nil {
			return nil, fmt.Errorf("sampling: %w", err)
		}
		budget := int(math.Ceil(cfg.Ratio * float64(corpus.PlainSize(stored, compressed))))
		docs, inflated, err := headDocs(stored, compressed, budget)
		if err != nil {
			return nil, fmt.Errorf("sampling: %s: %w", src.FileName(i), err)
		}
		for d, doc := range docs {
			p.ParseDoc(uint32(d), doc, blk)
		}
		c.DocsSeen += int64(len(docs))
		c.Bytes += inflated
		c.FilesSeen++
		for idx, g := range blk.Groups {
			c.Tokens[idx] += int64(g.Tokens)
			c.Total += int64(g.Tokens)
		}
		blk.Reset()
	}
	return &c, nil
}

// minPrefix is the smallest prefix worth inflating: a budget rounded
// down to a few bytes would only buy a second, larger attempt.
const minPrefix = 4 << 10

// headDocs returns the whole documents at the head of a stored file
// that end within its first max(budget, minPrefix) uncompressed bytes
// — the first document regardless of its length, none when the file
// holds none — and the number of bytes it inflated to find them.
func headDocs(stored []byte, compressed bool, budget int) ([][]byte, int64, error) {
	var inflated int64
	for n := max(budget, minPrefix); ; n *= 2 {
		prefix, whole, err := corpus.DecompressPrefix(stored, compressed, n)
		if err != nil {
			return nil, inflated, err
		}
		inflated += int64(len(prefix))
		docs, offsets := corpus.SplitDocsOffsets(prefix)
		// A document running to the end of a cut prefix may continue
		// past it.
		if last := len(docs) - 1; !whole && last >= 0 && offsets[last]+len(docs[last]) == len(prefix) {
			docs = docs[:last]
		}
		if len(docs) > 0 || whole {
			return docs, inflated, nil
		}
	}
}

// Kind identifies the indexer class owning a collection.
type Kind uint8

// Owner kinds.
const (
	KindCPU Kind = iota
	KindGPU
)

// Assignment maps every trie collection to exactly one indexer
// (§III.E: "once a trie collection is assigned to a particular
// indexer, it is bound with this indexer through the program
// lifetime").
type Assignment struct {
	// Popular lists the popular collections, descending by sampled
	// token count.
	Popular []int

	// CPUSets[i] is CPU indexer i's exclusive collection set.
	CPUSets [][]int

	NumCPU int
	NumGPU int

	owner []ownerRec // indexed by collection
}

type ownerRec struct {
	kind Kind
	idx  int16
}

// Assign builds the paper's partition: the PopularCount collections
// with the highest sampled token counts are split into NumCPU sets of
// near-equal token mass (greedy longest-processing-time); every other
// collection goes to GPU (i mod NumGPU), or round-robin over the CPU
// indexers when no GPUs are configured.
func Assign(c *Counts, nCPU, nGPU, popularCount int) (*Assignment, error) {
	if nCPU < 0 || nGPU < 0 || nCPU+nGPU == 0 {
		return nil, fmt.Errorf("sampling: need at least one indexer (cpu=%d gpu=%d)", nCPU, nGPU)
	}
	if nCPU == 0 {
		// GPU-only configuration (Table IV scenario i): every
		// collection, popular or not, goes to a GPU by i mod N.
		a := &Assignment{NumCPU: 0, NumGPU: nGPU, owner: make([]ownerRec, trie.NumCollections)}
		for idx := range a.owner {
			a.owner[idx] = ownerRec{KindGPU, int16(idx % nGPU)}
		}
		return a, nil
	}
	if popularCount <= 0 {
		popularCount = DefaultConfig().PopularCount
	}
	a := &Assignment{
		NumCPU:  nCPU,
		NumGPU:  nGPU,
		CPUSets: make([][]int, nCPU),
		owner:   make([]ownerRec, trie.NumCollections),
	}

	// Rank collections by sampled token count; only collections seen
	// in the sample can be popular.
	type cc struct {
		idx    int
		tokens int64
	}
	ranked := make([]cc, 0, 1024)
	for idx, n := range c.Tokens {
		if n > 0 {
			ranked = append(ranked, cc{idx, n})
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].tokens != ranked[j].tokens {
			return ranked[i].tokens > ranked[j].tokens
		}
		return ranked[i].idx < ranked[j].idx
	})
	if popularCount > len(ranked) {
		popularCount = len(ranked)
	}

	isPopular := make(map[int]bool, popularCount)
	load := make([]int64, nCPU)
	for _, r := range ranked[:popularCount] {
		a.Popular = append(a.Popular, r.idx)
		isPopular[r.idx] = true
		// LPT: ranked is descending, so placing each next collection
		// on the least-loaded indexer balances token mass.
		minI := 0
		for i := 1; i < nCPU; i++ {
			if load[i] < load[minI] {
				minI = i
			}
		}
		load[minI] += r.tokens
		a.CPUSets[minI] = append(a.CPUSets[minI], r.idx)
		a.owner[r.idx] = ownerRec{KindCPU, int16(minI)}
	}

	// Everything else: unpopular.
	for idx := 0; idx < trie.NumCollections; idx++ {
		if isPopular[idx] {
			continue
		}
		if nGPU > 0 {
			a.owner[idx] = ownerRec{KindGPU, int16(idx % nGPU)}
		} else {
			a.owner[idx] = ownerRec{KindCPU, int16(idx % nCPU)}
		}
	}
	return a, nil
}

// AssignRandom is the ablation counterpart of Assign: the "popular"
// set handed to the CPU indexers is chosen uniformly at random from
// the collections seen in the sample instead of by token mass, so the
// cache-affinity argument of §III.E is deliberately broken while
// everything else (set sizes, mod-N GPU split) stays identical.
func AssignRandom(c *Counts, nCPU, nGPU, popularCount int, seed int64) (*Assignment, error) {
	if nCPU <= 0 {
		return Assign(c, nCPU, nGPU, popularCount)
	}
	if popularCount <= 0 {
		popularCount = DefaultConfig().PopularCount
	}
	seen := make([]int, 0, 1024)
	for idx, n := range c.Tokens {
		if n > 0 {
			seen = append(seen, idx)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(seen), func(i, j int) { seen[i], seen[j] = seen[j], seen[i] })
	if popularCount > len(seen) {
		popularCount = len(seen)
	}
	a := &Assignment{
		NumCPU:  nCPU,
		NumGPU:  nGPU,
		CPUSets: make([][]int, nCPU),
		owner:   make([]ownerRec, trie.NumCollections),
	}
	isPopular := make(map[int]bool, popularCount)
	load := make([]int64, nCPU)
	for _, idx := range seen[:popularCount] {
		a.Popular = append(a.Popular, idx)
		isPopular[idx] = true
		minI := 0
		for i := 1; i < nCPU; i++ {
			if load[i] < load[minI] {
				minI = i
			}
		}
		load[minI] += c.Tokens[idx]
		a.CPUSets[minI] = append(a.CPUSets[minI], idx)
		a.owner[idx] = ownerRec{KindCPU, int16(minI)}
	}
	for idx := 0; idx < trie.NumCollections; idx++ {
		if isPopular[idx] {
			continue
		}
		if nGPU > 0 {
			a.owner[idx] = ownerRec{KindGPU, int16(idx % nGPU)}
		} else {
			a.owner[idx] = ownerRec{KindCPU, int16(idx % nCPU)}
		}
	}
	return a, nil
}

// Owner reports which indexer owns a collection.
func (a *Assignment) Owner(coll int) (Kind, int) {
	r := a.owner[coll]
	return r.kind, int(r.idx)
}

// CPULoadBalance reports max/min sampled-token load across CPU sets
// given the counts used for assignment (1.0 = perfect balance; only
// meaningful when popular collections exist).
func CPULoadBalance(a *Assignment, c *Counts) float64 {
	if len(a.Popular) == 0 {
		return 1
	}
	loads := make([]int64, a.NumCPU)
	for i, set := range a.CPUSets {
		for _, coll := range set {
			loads[i] += c.Tokens[coll]
		}
	}
	minL, maxL := loads[0], loads[0]
	for _, l := range loads[1:] {
		if l < minL {
			minL = l
		}
		if l > maxL {
			maxL = l
		}
	}
	if minL == 0 {
		return float64(maxL)
	}
	return float64(maxL) / float64(minL)
}
