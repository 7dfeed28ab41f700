package text

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// refParseNumeric is ParseNumeric before its first-byte reject: every
// string goes through strconv.ParseFloat.
func refParseNumeric(raw string) (float64, bool) {
	t := strings.TrimSpace(raw)
	t = strings.TrimPrefix(t, "$")
	if t == "" {
		return 0, false
	}
	t = strings.ReplaceAll(t, ",", "")
	v, err := strconv.ParseFloat(t, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// refNormalizeSpace is NormalizeSpace without its fast path.
func refNormalizeSpace(s string) string { return strings.Join(strings.Fields(s), " ") }

// kernelSeeds are the edge cases of both kernels: ParseFloat's special
// words and hex/underscore forms, separators before digits, and the
// non-ASCII spaces strings.Fields splits on.
var kernelSeeds = []string{
	"inf", "-Infinity", "+INF", "NaN", "nan", "-nan", ",5", "-,5", "$,5", "$-,5",
	"0x1p-2", "-0X1P+2", "1_000", "0x_1p0", "_1", "1e5", ".5", "-.5e-3", "$1,234.50",
	"+", "-", "$", "$$5", "+-5", "-,-5", "12a", "abc", "  619000 ", "\u00a05",
	"", " ", "   ", "\t\n\v\f\r", "\u00a0", "\u0085", "\u2003",
	"a b", "a\u0085b", "a\u00a0b", "a\u2003b", " a", "a ", "a  b", "a\tb",
	"the the the", "x x", "\xff", "a\xffb",
}

func FuzzParseNumeric(f *testing.F) {
	for _, s := range kernelSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, gok := ParseNumeric(s)
		want, wok := refParseNumeric(s)
		same := got == want || math.IsNaN(got) && math.IsNaN(want)
		if gok != wok || !same {
			t.Fatalf("ParseNumeric(%q) = %v, %v; want %v, %v", s, got, gok, want, wok)
		}
	})
}

func FuzzNormalizeSpace(f *testing.F) {
	for _, s := range kernelSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want := refNormalizeSpace(s)
		if got := NormalizeSpace(s); got != want {
			t.Fatalf("NormalizeSpace(%q) = %q, want %q", s, got, want)
		}
		if got := IsBlank(s); got != (want == "") {
			t.Fatalf("IsBlank(%q) = %v, want %v", s, got, want == "")
		}
	})
}

func TestParseNumericKeepsSpecialForms(t *testing.T) {
	for _, s := range []string{"inf", "-Infinity", "NaN", ",5", "-,5", "0x1p-2"} {
		if _, ok := ParseNumeric(s); !ok {
			t.Errorf("ParseNumeric(%q) rejected a number", s)
		}
	}
}

// nonNumeric are values the comparison residual meets most: words,
// names and blank text.
var nonNumeric = []string{"hello", "The Godfather", "  world  ", "$abc", "-x", "", "   ", "été"}

// Sinks keep measured calls from being optimized away.
var (
	sinkNum  float64
	sinkOK   bool
	sinkText string
)

func TestParseNumericNoAlloc(t *testing.T) {
	for _, s := range nonNumeric {
		if n := testing.AllocsPerRun(100, func() { sinkNum, sinkOK = ParseNumeric(s) }); n != 0 {
			t.Errorf("ParseNumeric(%q): %v allocs per call, want 0", s, n)
		}
	}
}

func TestNormTextNoAlloc(t *testing.T) {
	d := NewDocument("d", "Data on the Web and Stream Systems", nil)
	for _, sp := range []Span{d.WholeSpan(), d.Span(0, 4), d.Span(5, 7), d.Span(0, 0)} {
		if n := testing.AllocsPerRun(100, func() { sinkText = sp.NormText() }); n != 0 {
			t.Errorf("NormText(%q): %v allocs per call, want 0", sp.Text(), n)
		}
	}
}

func TestIsBlankNoAlloc(t *testing.T) {
	for _, s := range []string{"", "   ", "\t  ", "x"} {
		if n := testing.AllocsPerRun(100, func() { sinkOK = IsBlank(s) }); n != 0 {
			t.Errorf("IsBlank(%q): %v allocs per call, want 0", s, n)
		}
	}
}

func BenchmarkParseNumericNonNumeric(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkNum, sinkOK = ParseNumeric(nonNumeric[i%len(nonNumeric)])
	}
}

func BenchmarkNormTextNormal(b *testing.B) {
	d := NewDocument("d", "Data on the Web and Stream Systems", nil)
	sp := d.WholeSpan()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkText = sp.NormText()
	}
}
