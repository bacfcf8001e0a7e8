package encoding

import (
	"math/rand"
	"testing"
)

// BenchmarkCodecDecode times every codec's two decode entry points —
// Decode, which allocates its results, and DecodeInto, which fills the
// caller's — on a block-sized body (128 postings, what the ranked
// path's cursors decode) and a whole list (3,000, what term lookups
// and Boolean queries decode), dense and sparse. It reports ns per
// posting and asserts no time.
func BenchmarkCodecDecode(b *testing.B) {
	r := rand.New(rand.NewSource(11))
	for _, shape := range []struct {
		name   string
		n      int
		maxGap int
	}{{"block-dense", 128, 3}, {"block-sparse", 128, 400}, {"list-dense", 3000, 3}, {"list-sparse", 3000, 400}} {
		docs := make([]uint32, shape.n)
		tfs := make([]uint32, shape.n)
		d := uint32(0)
		for i := range docs {
			d += 1 + uint32(r.Intn(shape.maxGap))
			docs[i], tfs[i] = d, 1+uint32(r.Intn(5))
		}
		for _, c := range Codecs() {
			enc, err := c.Encode(nil, docs, tfs, nil)
			if err != nil {
				b.Fatal(err)
			}
			perPosting := func(b *testing.B) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(shape.n), "ns/posting")
			}
			b.Run(shape.name+"/"+c.Name()+"/Decode", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, _, err := c.Decode(enc, shape.n, false); err != nil {
						b.Fatal(err)
					}
				}
				perPosting(b)
			})
			b.Run(shape.name+"/"+c.Name()+"/DecodeInto", func(b *testing.B) {
				intoDocs, intoTFs := make([]uint32, shape.n), make([]uint32, shape.n)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := c.DecodeInto(enc, intoDocs, intoTFs); err != nil {
						b.Fatal(err)
					}
				}
				perPosting(b)
			})
		}
	}
}
