package postings

import (
	"testing"
	"testing/quick"
)

func TestListAddAggregatesTF(t *testing.T) {
	var l List
	for _, doc := range []uint32{1, 1, 1, 2, 5, 5} {
		if err := l.Add(doc); err != nil {
			t.Fatal(err)
		}
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
	wantDocs := []uint32{1, 2, 5}
	wantTFs := []uint32{3, 1, 2}
	for i := range wantDocs {
		if l.DocIDs[i] != wantDocs[i] || l.TFs[i] != wantTFs[i] {
			t.Errorf("posting %d = (%d,%d), want (%d,%d)",
				i, l.DocIDs[i], l.TFs[i], wantDocs[i], wantTFs[i])
		}
	}
	if l.TotalTF() != 6 {
		t.Errorf("TotalTF = %d, want 6", l.TotalTF())
	}
}

func TestListRejectsOutOfOrder(t *testing.T) {
	var l List
	l.Add(5)
	if err := l.Add(3); err == nil {
		t.Error("descending docID must be rejected")
	}
	if err := l.Add(5); err != nil {
		t.Errorf("same docID should aggregate, got %v", err)
	}
}

func TestStoreGrowsDense(t *testing.T) {
	s := NewStore()
	if err := s.Add(10, 1); err != nil {
		t.Fatal(err)
	}
	if s.NumSlots() != 11 {
		t.Fatalf("NumSlots = %d, want 11", s.NumSlots())
	}
	if s.List(10).Len() != 1 || s.List(3).Len() != 0 {
		t.Error("unexpected list contents")
	}
	if s.List(-1) != nil || s.List(99) != nil {
		t.Error("out-of-range slots must return nil")
	}
	if err := s.Add(-1, 1); err == nil {
		t.Error("negative slot must error")
	}
}

func TestStoreResetRunKeepsSlots(t *testing.T) {
	s := NewStore()
	s.Add(0, 1)
	s.Add(1, 1)
	s.Add(1, 2)
	if s.Postings() != 3 {
		t.Fatalf("Postings = %d, want 3", s.Postings())
	}
	s.ResetRun()
	if s.NumSlots() != 2 {
		t.Errorf("slots lost on reset: %d", s.NumSlots())
	}
	if s.Postings() != 0 {
		t.Errorf("postings remain after reset: %d", s.Postings())
	}
	// Next run may start at a lower docID because lists are per run.
	if err := s.Add(1, 1); err != nil {
		t.Errorf("add after reset: %v", err)
	}
	if s.Tokens() != 4 {
		t.Errorf("Tokens = %d, want 4 (cumulative)", s.Tokens())
	}
}

func TestConcatValidates(t *testing.T) {
	a := &List{DocIDs: []uint32{1, 5}, TFs: []uint32{1, 2}}
	b := &List{DocIDs: []uint32{6, 9}, TFs: []uint32{1, 1}}
	if err := Concat(a, b, nil); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 4 || a.DocIDs[3] != 9 {
		t.Error("concat result wrong")
	}
	overlap := &List{DocIDs: []uint32{9}, TFs: []uint32{1}}
	if err := Concat(a, overlap, nil); err == nil {
		t.Error("overlapping concat must fail")
	}
	unsorted := &List{DocIDs: []uint32{100, 50}, TFs: []uint32{1, 1}}
	if err := Concat(a, unsorted, nil); err == nil {
		t.Error("unsorted partial must fail")
	}
	if err := Concat(a, &List{}, nil); err != nil {
		t.Errorf("empty partial should be a no-op, got %v", err)
	}
	// A drop filter leaves out the documents it names and keeps the
	// parallel slices (positions included) aligned.
	pos := &List{}
	tail := &List{
		DocIDs:    []uint32{10, 11, 12},
		TFs:       []uint32{1, 2, 1},
		Positions: [][]uint32{{0}, {3, 4}, {7}},
	}
	if err := Concat(pos, tail, func(doc uint32) bool { return doc == 11 }); err != nil {
		t.Fatal(err)
	}
	if pos.Len() != 2 || pos.DocIDs[1] != 12 || pos.TFs[1] != 1 || pos.Positions[1][0] != 7 {
		t.Errorf("filtered concat = %+v", pos)
	}
}

func TestStoreQuickInvariant(t *testing.T) {
	// Property: after any sequence of in-order adds, every list is
	// strictly sorted and token count equals total TF.
	f := func(events []uint16) bool {
		s := NewStore()
		doc := uint32(0)
		for _, e := range events {
			slot := int32(e % 50)
			if e%7 == 0 {
				doc++ // advance document
			}
			if err := s.Add(slot, doc); err != nil {
				return false
			}
		}
		var totalTF uint64
		for i := 0; i < s.NumSlots(); i++ {
			l := s.List(int32(i))
			for j := 1; j < l.Len(); j++ {
				if l.DocIDs[j] <= l.DocIDs[j-1] {
					return false
				}
			}
			totalTF += l.TotalTF()
		}
		return totalTF == uint64(len(events)) && s.Tokens() == uint64(len(events))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkStoreAdd(b *testing.B) {
	s := NewStore()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Add(int32(i%1000), uint32(i/7))
	}
}
