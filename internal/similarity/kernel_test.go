package similarity

import (
	"strings"
	"testing"
)

// refJaccardTokens is the map-based kernel jaccardTokens replaced; the
// differential target holds the scan kernel to it exactly.
func refJaccardTokens(as, bs []string) float64 {
	if len(as) == 0 || len(bs) == 0 {
		return 0
	}
	set := make(map[string]uint8, len(as)+len(bs))
	for _, t := range as {
		set[t] |= 1
	}
	for _, t := range bs {
		set[t] |= 2
	}
	inter, union := 0, 0
	for _, m := range set {
		union++
		if m == 3 {
			inter++
		}
	}
	return float64(inter) / float64(union)
}

// refSimilarTokens is SimilarTokens over the map-based kernel.
func refSimilarTokens(ta, tb []string) bool {
	if len(ta) == 0 || len(tb) == 0 {
		return false
	}
	if tokenPrefix(ta, tb) || tokenPrefix(tb, ta) {
		return true
	}
	return refJaccardTokens(ta, tb) >= DefaultThreshold
}

// longTokens is a token list past jaccardScanMax, so the map path runs.
var longTokens = strings.Repeat("alpha beta gamma delta ", 20)

func FuzzJaccardTokens(f *testing.F) {
	seeds := [][2]string{
		{"a b c", "b c d"},
		{"a a a b", "b b a"},
		{"x x x x", "x"},
		{"the godfather", "godfather, the"},
		{"", "a"},
		{" \t\n", "a a"},
		{"inf NaN 1_000", "-Infinity ,5 -,5 0x1p-2"},
		{"café bar\u0085baz qux", "bar qux baz"},
		{longTokens, "alpha beta"},
		{longTokens, longTokens + " epsilon"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		// Raw whitespace fields keep repeats and any byte; normalized
		// tokens are what the join passes in.
		pairs := [][2][]string{
			{strings.Fields(a), strings.Fields(b)},
			{NormalizedTokens(a), NormalizedTokens(b)},
		}
		for _, p := range pairs {
			if got, want := jaccardTokens(p[0], p[1]), refJaccardTokens(p[0], p[1]); got != want {
				t.Fatalf("jaccardTokens(%q, %q) = %v, want %v", p[0], p[1], got, want)
			}
			if got, want := SimilarTokens(p[0], p[1]), refSimilarTokens(p[0], p[1]); got != want {
				t.Fatalf("SimilarTokens(%q, %q) = %v, want %v", p[0], p[1], got, want)
			}
		}
		if got, want := Jaccard(a, b), refJaccardTokens(Tokens(a), Tokens(b)); got != want {
			t.Fatalf("Jaccard(%q, %q) = %v, want %v", a, b, got, want)
		}
	})
}

// kernelPairs are token slices of at most 16 tokens, repeats included —
// the similarity join's inputs.
var kernelPairs = [][2][]string{
	{strings.Fields("the quick brown fox"), strings.Fields("quick brown fox jumps")},
	{strings.Fields("a a a b b c"), strings.Fields("c c b a")},
	{strings.Fields("one two three four five six seven eight nine ten eleven twelve thirteen fourteen fifteen sixteen"),
		strings.Fields("sixteen one one two two three three four four five five six six seven seven eight")},
	{strings.Fields("database systems"), strings.Fields("systems database concepts")},
}

// sinkBool keeps measured calls from being optimized away.
var sinkBool bool

func TestSimilarTokensNoAlloc(t *testing.T) {
	for _, p := range kernelPairs {
		if n := testing.AllocsPerRun(100, func() { sinkBool = SimilarTokens(p[0], p[1]) }); n != 0 {
			t.Errorf("SimilarTokens(%q, %q): %v allocs per call, want 0", p[0], p[1], n)
		}
	}
}

func BenchmarkSimilarTokens(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := kernelPairs[i%len(kernelPairs)]
		sinkBool = SimilarTokens(p[0], p[1])
	}
}
