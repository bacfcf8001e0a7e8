// Package stem implements the Porter stemming algorithm (M.F. Porter,
// "An algorithm for suffix stripping", Program 14(3), 1980), which the
// paper's parser applies as Step 3 of every parse (Fig. 3).
//
// The implementation follows the original paper's five steps and
// operates in place on lowercase ASCII byte slices; non-alphabetic
// input is returned unchanged. It allocates nothing.
package stem

// Stem reduces word to its Porter stem in place and returns the
// (possibly shorter) slice. The input must already be lowercase;
// words shorter than 3 bytes or containing non a-z bytes are returned
// unchanged, matching the classical implementation's guard.
func Stem(word []byte) []byte {
	if len(word) <= 2 {
		return word
	}
	for _, c := range word {
		if c < 'a' || c > 'z' {
			return word
		}
	}
	s := stemmer{b: word, k: len(word) - 1}
	s.step1ab()
	s.step1c()
	s.step2()
	s.step3()
	s.step4()
	s.step5()
	return s.b[:s.k+1]
}

// StemString is a convenience wrapper for tests and tools; the library
// hot path uses Stem on reused buffers.
func StemString(word string) string {
	buf := []byte(word)
	return string(Stem(buf))
}

// Normalize applies the indexing pipeline's term normalization to a
// query word — ASCII lowercase, then Stem — into a fresh buffer, so
// lookups match what was indexed.
func Normalize(word string) []byte {
	b := make([]byte, len(word))
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		b[i] = c
	}
	return Stem(b)
}

// stemmer holds the in-progress word: b[0..k] is the live region,
// b[0..j] the stem candidate during suffix checks.
type stemmer struct {
	b []byte
	k int
	j int
}

// cons reports whether b[i] is a consonant, with the Porter rule that
// 'y' is a consonant when it follows a vowel position.
func (s *stemmer) cons(i int) bool {
	switch s.b[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !s.cons(i - 1)
	}
	return true
}

// m measures the number of consonant-vowel sequences in b[0..j]:
// [C](VC)^m[V] per the paper.
func (s *stemmer) m() int {
	n, i := 0, 0
	for {
		if i > s.j {
			return n
		}
		if !s.cons(i) {
			break
		}
		i++
	}
	i++
	for {
		for {
			if i > s.j {
				return n
			}
			if s.cons(i) {
				break
			}
			i++
		}
		i++
		n++
		for {
			if i > s.j {
				return n
			}
			if !s.cons(i) {
				break
			}
			i++
		}
		i++
	}
}

// vowelInStem reports whether b[0..j] contains a vowel.
func (s *stemmer) vowelInStem() bool {
	for i := 0; i <= s.j; i++ {
		if !s.cons(i) {
			return true
		}
	}
	return false
}

// doubleC reports whether b[i-1..i] is a double consonant.
func (s *stemmer) doubleC(i int) bool {
	if i < 1 {
		return false
	}
	return s.b[i] == s.b[i-1] && s.cons(i)
}

// cvc reports whether b[i-2..i] is consonant-vowel-consonant with the
// final consonant not w, x or y — the "add an e" condition.
func (s *stemmer) cvc(i int) bool {
	if i < 2 || !s.cons(i) || s.cons(i-1) || !s.cons(i-2) {
		return false
	}
	switch s.b[i] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

// ends reports whether b[0..k] ends with suffix; when it does, j is set
// to the byte before the suffix.
func (s *stemmer) ends(suffix string) bool {
	l := len(suffix)
	if l > s.k+1 {
		return false
	}
	off := s.k - l + 1
	for i := 0; i < l; i++ {
		if s.b[off+i] != suffix[i] {
			return false
		}
	}
	s.j = s.k - l
	return true
}

// setTo replaces the suffix after j with repl and adjusts k.
func (s *stemmer) setTo(repl string) {
	for i := 0; i < len(repl); i++ {
		s.b[s.j+1+i] = repl[i]
	}
	s.k = s.j + len(repl)
}

// r replaces the suffix with repl when the stem measure is positive.
func (s *stemmer) r(repl string) {
	if s.m() > 0 {
		s.setTo(repl)
	}
}

// step1ab removes plurals and -ed / -ing.
func (s *stemmer) step1ab() {
	if s.b[s.k] == 's' {
		switch {
		case s.ends("sses"):
			s.k -= 2
		case s.ends("ies"):
			s.setTo("i")
		case s.b[s.k-1] != 's':
			s.k--
		}
	}
	if s.ends("eed") {
		if s.m() > 0 {
			s.k--
		}
	} else if (s.ends("ed") || s.ends("ing")) && s.vowelInStem() {
		s.k = s.j
		switch {
		case s.ends("at"):
			s.setTo("ate")
		case s.ends("bl"):
			s.setTo("ble")
		case s.ends("iz"):
			s.setTo("ize")
		case s.doubleC(s.k):
			c := s.b[s.k]
			if c != 'l' && c != 's' && c != 'z' {
				s.k--
			}
		default:
			if s.m() == 1 && s.cvc(s.k) {
				s.j = s.k
				s.setTo("e")
			}
		}
	}
}

// step1c turns terminal y to i when there is another vowel in the stem.
func (s *stemmer) step1c() {
	if s.ends("y") && s.vowelInStem() {
		s.b[s.k] = 'i'
	}
}

// step2 maps double suffixes to single ones when m > 0.
func (s *stemmer) step2() {
	if s.k < 1 {
		return
	}
	switch s.b[s.k-1] {
	case 'a':
		if s.ends("ational") {
			s.r("ate")
		} else if s.ends("tional") {
			s.r("tion")
		}
	case 'c':
		if s.ends("enci") {
			s.r("ence")
		} else if s.ends("anci") {
			s.r("ance")
		}
	case 'e':
		if s.ends("izer") {
			s.r("ize")
		}
	case 'l':
		if s.ends("bli") {
			s.r("ble")
		} else if s.ends("alli") {
			s.r("al")
		} else if s.ends("entli") {
			s.r("ent")
		} else if s.ends("eli") {
			s.r("e")
		} else if s.ends("ousli") {
			s.r("ous")
		}
	case 'o':
		if s.ends("ization") {
			s.r("ize")
		} else if s.ends("ation") {
			s.r("ate")
		} else if s.ends("ator") {
			s.r("ate")
		}
	case 's':
		if s.ends("alism") {
			s.r("al")
		} else if s.ends("iveness") {
			s.r("ive")
		} else if s.ends("fulness") {
			s.r("ful")
		} else if s.ends("ousness") {
			s.r("ous")
		}
	case 't':
		if s.ends("aliti") {
			s.r("al")
		} else if s.ends("iviti") {
			s.r("ive")
		} else if s.ends("biliti") {
			s.r("ble")
		}
	case 'g':
		if s.ends("logi") {
			s.r("log")
		}
	}
}

// step3 handles -ic-, -full, -ness etc.
func (s *stemmer) step3() {
	switch s.b[s.k] {
	case 'e':
		if s.ends("icate") {
			s.r("ic")
		} else if s.ends("ative") {
			s.r("")
		} else if s.ends("alize") {
			s.r("al")
		}
	case 'i':
		if s.ends("iciti") {
			s.r("ic")
		}
	case 'l':
		if s.ends("ical") {
			s.r("ic")
		} else if s.ends("ful") {
			s.r("")
		}
	case 's':
		if s.ends("ness") {
			s.r("")
		}
	}
}

// step4 removes -ant, -ence etc. when m > 1.
func (s *stemmer) step4() {
	if s.k < 1 {
		return
	}
	switch s.b[s.k-1] {
	case 'a':
		if !s.ends("al") {
			return
		}
	case 'c':
		if !s.ends("ance") && !s.ends("ence") {
			return
		}
	case 'e':
		if !s.ends("er") {
			return
		}
	case 'i':
		if !s.ends("ic") {
			return
		}
	case 'l':
		if !s.ends("able") && !s.ends("ible") {
			return
		}
	case 'n':
		if !s.ends("ant") && !s.ends("ement") && !s.ends("ment") && !s.ends("ent") {
			return
		}
	case 'o':
		if s.ends("ion") {
			if s.j < 0 || (s.b[s.j] != 's' && s.b[s.j] != 't') {
				return
			}
		} else if !s.ends("ou") {
			return
		}
	case 's':
		if !s.ends("ism") {
			return
		}
	case 't':
		if !s.ends("ate") && !s.ends("iti") {
			return
		}
	case 'u':
		if !s.ends("ous") {
			return
		}
	case 'v':
		if !s.ends("ive") {
			return
		}
	case 'z':
		if !s.ends("ize") {
			return
		}
	default:
		return
	}
	if s.m() > 1 {
		s.k = s.j
	}
}

// step5 removes a final -e and reduces -ll when m > 1.
func (s *stemmer) step5() {
	s.j = s.k
	if s.b[s.k] == 'e' {
		a := s.m()
		if a > 1 || a == 1 && !s.cvc(s.k-1) {
			s.k--
		}
	}
	if s.b[s.k] == 'l' && s.doubleC(s.k) && s.m() > 1 {
		s.k--
	}
}
