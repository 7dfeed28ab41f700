package text

import (
	"fmt"
	"strconv"
	"strings"
)

// Span is a byte range [Start, End) of one document. Spans are the values
// that IE predicates extract and that assignments encode. The zero Span is
// invalid (it has no document).
type Span struct {
	doc   *Document
	start int
	end   int
}

// Doc returns the document the span belongs to.
func (s Span) Doc() *Document { return s.doc }

// Start returns the span's starting byte offset (inclusive).
func (s Span) Start() int { return s.start }

// End returns the span's ending byte offset (exclusive).
func (s Span) End() int { return s.end }

// Len returns the span's length in bytes.
func (s Span) Len() int { return s.end - s.start }

// Text returns the raw text covered by the span.
func (s Span) Text() string { return s.doc.content().text[s.start:s.end] }

// NormText returns the span text with whitespace runs collapsed and trimmed.
func (s Span) NormText() string { return NormalizeSpace(s.Text()) }

// String formats the span for debugging: doc id, range and text.
func (s Span) String() string {
	if s.doc == nil {
		return "<nil span>"
	}
	return fmt.Sprintf("%s[%d:%d]%q", s.doc.id, s.start, s.end, s.Text())
}

// Valid reports whether the span refers to a document.
func (s Span) Valid() bool { return s.doc != nil }

// Equal reports whether two spans denote the same range of the same document.
func (s Span) Equal(o Span) bool {
	return s.doc == o.doc && s.start == o.start && s.end == o.end
}

// Contains reports whether o lies entirely within s (same document).
func (s Span) Contains(o Span) bool {
	return s.doc == o.doc && s.start <= o.start && o.end <= s.end
}

// Overlaps reports whether s and o share at least one byte (same document).
func (s Span) Overlaps(o Span) bool {
	return s.doc == o.doc && s.start < o.end && o.start < s.end
}

// Sub returns the sub-span [start, end) in document coordinates.
// It panics if the range is not inside s.
func (s Span) Sub(start, end int) Span {
	if start < s.start || end > s.end || start > end {
		panic(fmt.Sprintf("text: sub-span [%d,%d) outside %v", start, end, s))
	}
	return Span{doc: s.doc, start: start, end: end}
}

// TokenBounds returns the indices [lo, hi) of document tokens fully
// contained in the span.
func (s Span) TokenBounds() (lo, hi int) { return s.doc.tokenRange(s.start, s.end) }

// NumTokens returns how many whole tokens the span covers.
func (s Span) NumTokens() int {
	lo, hi := s.TokenBounds()
	return hi - lo
}

// TokenSpan returns the span covering document tokens [i, j) of the tokens
// inside s, where i and j index into the token range returned by
// TokenBounds. It panics if the range is empty or out of bounds.
func (s Span) TokenSpan(i, j int) Span {
	lo, hi := s.TokenBounds()
	if i < 0 || lo+j > hi || i >= j {
		panic(fmt.Sprintf("text: token span [%d,%d) outside token range of %v", i, j, s))
	}
	toks := s.doc.content().tokens
	return Span{doc: s.doc, start: toks[lo+i].Start, end: toks[lo+j-1].End}
}

// Shrink returns the span trimmed to whole tokens: it starts at the first
// token boundary >= Start and ends at the last token boundary <= End.
// If the span covers no whole token, ok is false.
func (s Span) Shrink() (Span, bool) {
	lo, hi := s.TokenBounds()
	if lo >= hi {
		return Span{}, false
	}
	toks := s.doc.content().tokens
	return Span{doc: s.doc, start: toks[lo].Start, end: toks[hi-1].End}, true
}

// SubSpans enumerates every token-aligned sub-span of s (all contiguous
// token sequences), calling fn for each. Enumeration stops early if fn
// returns false. The count of token-aligned sub-spans of a span with t
// tokens is t*(t+1)/2.
func (s Span) SubSpans(fn func(Span) bool) {
	lo, hi := s.TokenBounds()
	toks := s.doc.content().tokens
	for i := lo; i < hi; i++ {
		for j := i; j < hi; j++ {
			if !fn(Span{doc: s.doc, start: toks[i].Start, end: toks[j].End}) {
				return
			}
		}
	}
}

// NumSubSpans returns the number of token-aligned sub-spans of s.
func (s Span) NumSubSpans() int {
	n := s.NumTokens()
	return n * (n + 1) / 2
}

// Numeric parses the span text as a number, tolerating a leading currency
// symbol and thousands separators ("$1,234.50" -> 1234.5). ok is false when
// the (trimmed) text is not a single numeric token.
func (s Span) Numeric() (float64, bool) {
	return ParseNumeric(s.Text())
}

// ParseNumeric parses a string as a tolerant number: optional leading '$',
// optional sign, digits with ',' thousands separators and at most one '.'.
//
// Text that cannot be a number is rejected before any copy or
// strconv.ParseFloat call, so the common non-numeric value costs no
// allocation. The rule looks at the first byte after the trim, the '$'
// and one optional sign: strconv.ParseFloat accepts at most one sign,
// then either a digit, a '.', or the words "inf"/"infinity"/"nan" in any
// case; ',' is kept because the separators are removed before parsing
// (",5" parses as 5). Any string ParseFloat accepts therefore starts with
// one of 0-9 . , i I n N after its sign, and the rule never rejects one.
func ParseNumeric(raw string) (float64, bool) {
	t := strings.TrimSpace(raw)
	t = strings.TrimPrefix(t, "$")
	if !numericStart(t) {
		return 0, false
	}
	t = strings.ReplaceAll(t, ",", "")
	v, err := strconv.ParseFloat(t, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// numericStart reports whether t, after one optional sign, begins with a
// byte a number accepted by ParseNumeric can begin with.
func numericStart(t string) bool {
	if t != "" && (t[0] == '+' || t[0] == '-') {
		t = t[1:]
	}
	if t == "" {
		return false
	}
	switch c := t[0]; {
	case c >= '0' && c <= '9', c == '.', c == ',', c == 'i', c == 'I', c == 'n', c == 'N':
		return true
	}
	return false
}

// CompareSpans orders spans by document id, then start, then end.
// It returns -1, 0, or +1.
func CompareSpans(a, b Span) int {
	switch {
	case a.doc == b.doc:
		// fall through to offsets
	case a.doc == nil:
		return -1
	case b.doc == nil:
		return 1
	case a.doc.id != b.doc.id:
		if a.doc.id < b.doc.id {
			return -1
		}
		return 1
	}
	if a.start != b.start {
		if a.start < b.start {
			return -1
		}
		return 1
	}
	if a.end != b.end {
		if a.end < b.end {
			return -1
		}
		return 1
	}
	return 0
}
