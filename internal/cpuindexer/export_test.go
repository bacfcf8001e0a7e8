package cpuindexer

// NewWithHashBits is New with term hashes cut to their low n bits, so
// a test can make distinct terms of one group share a hash — the same
// home slot in the memo and the same tag in its entries — and prove
// that only the term bytes decide a match.
func NewWithHashBits(n int) *Indexer {
	ix := New()
	ix.hashMask = 1<<n - 1
	return ix
}
