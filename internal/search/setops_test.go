package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"fastinvert/internal/postings"
)

// mapIntersect and mapUnion are the set operations as a map computes
// them (OrCtx's implementation until it became a merge): the reference
// the merges are held to.
func mapIntersect(a, b []uint32) []uint32 {
	in := map[uint32]struct{}{}
	for _, d := range a {
		in[d] = struct{}{}
	}
	out := []uint32{}
	for _, d := range b {
		if _, ok := in[d]; ok {
			out = append(out, d)
		}
	}
	return out
}

func mapUnion(a, b []uint32) []uint32 {
	seen := map[uint32]struct{}{}
	for _, d := range a {
		seen[d] = struct{}{}
	}
	for _, d := range b {
		seen[d] = struct{}{}
	}
	out := make([]uint32, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ascending draws n distinct docIDs below limit, sorted.
func ascending(rng *rand.Rand, n int, limit uint32) []uint32 {
	seen := make(map[uint32]struct{}, n)
	out := make([]uint32, 0, n)
	for len(out) < n {
		d := uint32(rng.Int63n(int64(limit)))
		if _, dup := seen[d]; !dup {
			seen[d] = struct{}{}
			out = append(out, d)
		}
	}
	slices.Sort(out)
	return out
}

// setOpCases is pairs of strictly ascending lists at the length ratios
// on both sides of gallopRatio and far beyond it, at several overlap
// densities, plus the shapes a merge gets wrong first: empty, equal,
// nested, disjoint (interleaved and end to end), and lists that meet
// only in one element at either end of the docID range.
func setOpCases() map[string][2][]uint32 {
	rng := rand.New(rand.NewSource(24))
	cases := map[string][2][]uint32{}
	for _, short := range []int{1, 3, 64} {
		for _, ratio := range []int{1, gallopRatio - 1, gallopRatio, gallopRatio + 1, 15, 16, 17, 10_000} {
			if short*ratio > 200_000 {
				continue
			}
			for _, spread := range []uint32{2, 50} { // dense: most candidates hit; sparse: most miss
				limit := uint32(short*ratio) * spread
				cases[fmt.Sprintf("%d:%d/spread%d", short, short*ratio, spread)] = [2][]uint32{
					ascending(rng, short, limit), ascending(rng, short*ratio, limit),
				}
			}
		}
	}
	base := ascending(rng, 2000, 1<<20)
	var evens, odds, every7th []uint32
	for i, d := range base {
		if i%2 == 0 {
			evens = append(evens, d)
		} else {
			odds = append(odds, d)
		}
		if i%7 == 0 {
			every7th = append(every7th, d)
		}
	}
	cases["empty/empty"] = [2][]uint32{{}, {}}
	cases["nil/list"] = [2][]uint32{nil, base}
	cases["equal"] = [2][]uint32{base, slices.Clone(base)}
	cases["nested"] = [2][]uint32{every7th, base}
	cases["nested/first-and-last"] = [2][]uint32{{base[0], base[len(base)-1]}, base}
	cases["disjoint/interleaved"] = [2][]uint32{evens, odds}
	cases["disjoint/end-to-end"] = [2][]uint32{base[:100], base[100:]}
	cases["disjoint/one-before-all"] = [2][]uint32{{0}, ascending(rng, 500, 1<<20)[1:]}
	cases["meet-at-0"] = [2][]uint32{{0}, append([]uint32{0}, evens...)}
	cases["meet-at-max"] = [2][]uint32{{math.MaxUint32}, append(slices.Clone(odds), math.MaxUint32)}
	cases["meet-at-joint"] = [2][]uint32{base[:101], base[100:]}
	cases["one/one-same"] = [2][]uint32{{math.MaxUint32}, {math.MaxUint32}}
	cases["one/one-differ"] = [2][]uint32{{0}, {math.MaxUint32}}
	return cases
}

// TestIntersectAndUnionAgainstMap runs every case in both argument
// orders and checks, besides the answer, that intersect wrote only into
// its first argument and union into neither.
func TestIntersectAndUnionAgainstMap(t *testing.T) {
	for name, c := range setOpCases() {
		for _, order := range [][2]int{{0, 1}, {1, 0}} {
			a, b := c[order[0]], c[order[1]]
			label := fmt.Sprintf("%s (%d vs %d)", name, len(a), len(b))

			acc, other := slices.Clone(a), slices.Clone(b)
			got := intersect(acc, other)
			if want := mapIntersect(b, a); !slices.Equal(got, want) {
				t.Errorf("intersect %s: %d docs, want %d", label, len(got), len(want))
			}
			if len(got) > 0 && &got[0] != &acc[0] {
				t.Errorf("intersect %s: the answer is not the front of its first argument", label)
			}
			if !slices.Equal(other, b) {
				t.Errorf("intersect %s wrote into its second argument", label)
			}

			ua, ub := slices.Clone(a), slices.Clone(b)
			u := union(ua, ub)
			if want := mapUnion(a, b); !slices.Equal(u, want) {
				t.Errorf("union %s: %d docs, want %d", label, len(u), len(want))
			}
			if !slices.Equal(ua, a) || !slices.Equal(ub, b) {
				t.Errorf("union %s wrote into an argument", label)
			}
		}
	}
}

// TestGallop checks the skip primitive at every starting point of a
// short list: first index at or after from holding at least target.
func TestGallop(t *testing.T) {
	l := []uint32{2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, math.MaxUint32}
	for from := 0; from <= len(l); from++ {
		for _, target := range []uint32{0, 2, 4, 5, 20, 21, 22, 377, 378, math.MaxUint32} {
			want := from
			for want < len(l) && l[want] < target {
				want++
			}
			if got := gallop(l, from, target); got != want {
				t.Errorf("gallop(from %d, target %d) = %d, want %d", from, target, got, want)
			}
		}
	}
}

// TestAndLeavesSourceListsIntact is the aliasing guard: the lists a
// Source hands out are shared (serve's cache hands every query the
// same ones), so no Boolean query, in any argument order, may write
// into them — or hand back a slice that is one of them.
func TestAndLeavesSourceListsIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := &stubSource{lists: map[string]*postings.List{}, numDocs: 1 << 20}
	s := NewWithSource(src)
	words := []string{"short", "middling", "lengthy", "solitary"}
	pristine := map[string][]uint32{}
	for i, n := range []int{40, 700, 40 * gallopRatio * 4, 1} {
		term, stop := s.Normalize(words[i])
		if stop || term == "" {
			t.Fatalf("%q is not a usable word", words[i])
		}
		docs := ascending(rng, n, 1<<16) // dense enough that ANDs have answers
		src.lists[term] = &postings.List{DocIDs: docs, TFs: make([]uint32, n)}
		pristine[term] = slices.Clone(docs)
	}

	ctx := context.Background()
	var orders [][]string
	for _, a := range words {
		orders = append(orders, []string{a}, []string{a, a})
		for _, b := range words {
			if b == a {
				continue
			}
			orders = append(orders, []string{a, b})
			for _, c := range words {
				if c != a && c != b {
					orders = append(orders, []string{a, b, c})
				}
			}
		}
	}
	answers := 0
	for _, q := range orders {
		for name, run := range map[string]func(context.Context, ...string) ([]uint32, error){"AndCtx": s.AndCtx, "OrCtx": s.OrCtx} {
			got, err := run(ctx, q...)
			if err != nil {
				t.Fatalf("%s%v: %v", name, q, err)
			}
			answers += len(got)
			// The answer is the caller's: overwrite it, then look at the
			// source's lists.
			for i := range got {
				got[i] = math.MaxUint32
			}
			for term, want := range pristine {
				if !slices.Equal(src.lists[term].DocIDs, want) {
					t.Fatalf("%s%v wrote into the source's list of %q", name, q, term)
				}
			}
		}
	}
	if answers == 0 {
		t.Fatal("no query matched anything; the guard saw no writes to look for")
	}
}
