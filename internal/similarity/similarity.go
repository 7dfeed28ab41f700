// Package similarity implements the approximate string matching used by
// the paper's p-functions approxMatch and similar: token Jaccard overlap
// and TF/IDF cosine similarity, built from scratch on a simple
// punctuation-stripping tokenizer.
package similarity

import (
	"math"
	"sort"
	"strings"
)

// Tokens lower-cases s, strips punctuation, and splits into tokens.
// Leading articles ("the", "a", "an") are kept; callers that want
// article-insensitive matching use Normalize. The implementation is
// byte-wise (non-ASCII bytes separate tokens, exactly as the rune-wise
// mapping did) because tokenisation dominates similarity-join profiles.
func Tokens(s string) []string {
	var out []string
	buf := make([]byte, 0, 16)
	flush := func() {
		if len(buf) > 0 {
			out = append(out, string(buf))
			buf = buf[:0]
		}
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			buf = append(buf, c)
		case c >= 'A' && c <= 'Z':
			buf = append(buf, c+('a'-'A'))
		default:
			flush()
		}
	}
	flush()
	return out
}

// Normalize returns a canonical form: lower-cased, punctuation-stripped
// tokens with leading articles removed, joined by single spaces.
// "The Godfather" and "Godfather, The" normalise to the same string only
// modulo token order, so Normalize also handles the trailing-article comma
// style by moving a trailing article to the front before stripping.
func Normalize(s string) string {
	return strings.Join(normTokens(s), " ")
}

// Jaccard returns |A∩B| / |A∪B| over the token sets of a and b.
// Two empty strings have similarity 0.
func Jaccard(a, b string) float64 { return jaccardTokens(Tokens(a), Tokens(b)) }

// TFIDF holds document frequencies learned from a corpus of strings and
// scores pairs with cosine similarity of TF/IDF vectors.
type TFIDF struct {
	df map[string]int
	n  int
}

// NewTFIDF builds document-frequency statistics from the corpus.
func NewTFIDF(corpus []string) *TFIDF {
	t := &TFIDF{df: make(map[string]int), n: len(corpus)}
	for _, doc := range corpus {
		seen := map[string]bool{}
		for _, tok := range Tokens(doc) {
			if !seen[tok] {
				seen[tok] = true
				t.df[tok]++
			}
		}
	}
	return t
}

// idf returns the smoothed inverse document frequency of a token.
func (t *TFIDF) idf(tok string) float64 {
	return math.Log(1 + float64(t.n+1)/float64(t.df[tok]+1))
}

// vector builds the TF/IDF vector of s.
func (t *TFIDF) vector(s string) map[string]float64 {
	tf := map[string]float64{}
	for _, tok := range Tokens(s) {
		tf[tok]++
	}
	for tok := range tf {
		tf[tok] *= t.idf(tok)
	}
	return tf
}

// Cosine returns the TF/IDF cosine similarity of a and b in [0, 1].
func (t *TFIDF) Cosine(a, b string) float64 {
	va, vb := t.vector(a), t.vector(b)
	var dot, na, nb float64
	for tok, w := range va {
		na += w * w
		if w2, ok := vb[tok]; ok {
			dot += w * w2
		}
	}
	for _, w := range vb {
		nb += w * w
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// DefaultThreshold is the Jaccard score at or above which Similar matches.
const DefaultThreshold = 0.6

// Similar is the default implementation of the paper's similar /
// approxMatch p-function: true when the normalised strings are equal, one
// contains the other as a token prefix ("Basktall" vs "Basktall HS"), or
// their Jaccard similarity reaches DefaultThreshold. Each side is
// tokenised exactly once.
func Similar(a, b string) bool {
	ta, tb := normTokens(a), normTokens(b)
	return SimilarTokens(ta, tb)
}

// SimilarTokens is Similar over pre-normalised token slices (see
// NormalizedTokens); it lets joins tokenise each value once.
func SimilarTokens(ta, tb []string) bool {
	if len(ta) == 0 || len(tb) == 0 {
		return false
	}
	if tokenPrefix(ta, tb) || tokenPrefix(tb, ta) {
		return true
	}
	return jaccardTokens(ta, tb) >= DefaultThreshold
}

// NormalizedTokens returns the Normalize-equivalent token slice of s.
func NormalizedTokens(s string) []string { return normTokens(s) }

// normTokens tokenises and applies Normalize's article handling.
func normTokens(s string) []string {
	toks := Tokens(s)
	if len(toks) > 1 {
		switch toks[len(toks)-1] {
		case "the", "a", "an":
			toks = append([]string{toks[len(toks)-1]}, toks[:len(toks)-1]...)
		}
	}
	if len(toks) > 1 {
		switch toks[0] {
		case "the", "a", "an":
			toks = toks[1:]
		}
	}
	return toks
}

// jaccardScanMax bounds the combined slice length that jaccardTokens
// counts by nested scan, whose cost grows with the square of the length;
// longer inputs, such as whole-page token lists, use a map. Extracted
// values are a handful of words and stay on the scan.
const jaccardScanMax = 64

// jaccardTokens computes Jaccard overlap over token slices: the number of
// distinct tokens in both over the number of distinct tokens in either.
// Short inputs are counted by nested scan with in-slice deduplication
// (a token counts once, at its first occurrence), so the kernel allocates
// nothing; the map path counts the same two integers. Either way the
// result is the same float64(inter)/float64(union) division, so threshold
// decisions such as SimilarTokens' >= DefaultThreshold are identical.
func jaccardTokens(as, bs []string) float64 {
	if len(as) == 0 || len(bs) == 0 {
		return 0
	}
	var inter, union int
	if len(as)+len(bs) <= jaccardScanMax {
		inter, union = scanOverlap(as, bs)
	} else {
		inter, union = mapOverlap(as, bs)
	}
	return float64(inter) / float64(union)
}

// scanOverlap counts |A∩B| and |A∪B| of two token slices without
// allocating.
func scanOverlap(as, bs []string) (inter, union int) {
	for i, t := range as {
		if !contains(as[:i], t) {
			union++
		}
	}
	for j, t := range bs {
		if contains(bs[:j], t) {
			continue
		}
		if contains(as, t) {
			inter++
		} else {
			union++
		}
	}
	return inter, union
}

// mapOverlap counts |A∩B| and |A∪B| of two token slices with a set.
func mapOverlap(as, bs []string) (inter, union int) {
	set := make(map[string]uint8, len(as)+len(bs))
	for _, t := range as {
		set[t] |= 1
	}
	for _, t := range bs {
		set[t] |= 2
	}
	for _, m := range set {
		union++
		if m == 3 {
			inter++
		}
	}
	return inter, union
}

// contains reports whether toks holds t.
func contains(toks []string, t string) bool {
	for _, x := range toks {
		if x == t {
			return true
		}
	}
	return false
}

// tokenPrefix reports whether token slice a is a prefix of token slice b.
// Equal slices count as prefixes, covering the equality case.
func tokenPrefix(at, bt []string) bool {
	if len(at) == 0 || len(at) > len(bt) {
		return false
	}
	for i, t := range at {
		if bt[i] != t {
			return false
		}
	}
	return true
}

// TopMatches returns the indices of the k best candidates for query under
// Jaccard similarity, best first; ties break by index. Utility for
// examples and debugging.
func TopMatches(query string, candidates []string, k int) []int {
	type scored struct {
		idx   int
		score float64
	}
	ss := make([]scored, len(candidates))
	for i, c := range candidates {
		ss[i] = scored{i, Jaccard(query, c)}
	}
	sort.SliceStable(ss, func(i, j int) bool { return ss[i].score > ss[j].score })
	if k > len(ss) {
		k = len(ss)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = ss[i].idx
	}
	return out
}
