package parser

import "fastinvert/internal/stopwords"

// NewWithCacheSlots is New with a token cache of n slots (a power of
// two) in place of the production geometry, so a test can force words
// to share slots and evict each other.
func NewWithCacheSlots(stop *stopwords.Set, n int) *Parser {
	p := New(stop)
	p.cache = make([]tokenEntry, n)
	return p
}

// TokenKeyLen is the longest token the cache holds.
const TokenKeyLen = tokenKeyLen
