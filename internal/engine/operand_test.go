package engine

import (
	"strconv"
	"strings"
	"testing"

	"iflex/internal/alog"
	"iflex/internal/text"
)

// refOperand and its functions are the comparison operands before they
// became lazy: every value is parsed and whitespace-normalized up front.
type refOperand struct {
	isNum  bool
	num    float64
	str    string
	isNull bool
}

func refSpanOperand(s text.Span) refOperand {
	t := strings.TrimPrefix(strings.TrimSpace(s.Text()), "$")
	if t != "" {
		if v, err := strconv.ParseFloat(strings.ReplaceAll(t, ",", ""), 64); err == nil {
			return refOperand{isNum: true, num: v}
		}
	}
	norm := strings.Join(strings.Fields(s.Text()), " ")
	if norm == "" {
		return refOperand{isNull: true}
	}
	return refOperand{str: norm}
}

func refCompareAt(op alog.CompareOp, offset float64, a, b refOperand) bool {
	if offset != 0 {
		if !b.isNum {
			return false
		}
		b.num += offset
	}
	if a.isNull || b.isNull {
		eq := a.isNull && b.isNull
		switch op {
		case alog.OpEQ:
			return eq
		case alog.OpNE:
			return !eq
		}
		return false
	}
	var c int
	switch {
	case a.isNum && b.isNum:
		switch {
		case a.num < b.num:
			c = -1
		case a.num > b.num:
			c = 1
		}
	case !a.isNum && !b.isNum:
		c = strings.Compare(a.str, b.str)
	default:
		return op == alog.OpNE
	}
	switch op {
	case alog.OpLT:
		return c < 0
	case alog.OpLE:
		return c <= 0
	case alog.OpGT:
		return c > 0
	case alog.OpGE:
		return c >= 0
	case alog.OpEQ:
		return c == 0
	}
	return c != 0
}

var allCompareOps = []alog.CompareOp{alog.OpLT, alog.OpLE, alog.OpGT, alog.OpGE, alog.OpEQ, alog.OpNE}

// FuzzCompareOperand holds the lazy operands to the eager ones over every
// operator, with and without a right offset, for span-span and
// span-constant comparisons. The same operand pair is compared under all
// six operators in turn, so the normalized string cached by the first
// string comparison is what the later ones read.
func FuzzCompareOperand(f *testing.F) {
	seeds := [][2]string{
		{"42", "$1,234.50"}, {"inf", "-Infinity"}, {"NaN", "NaN"}, {",5", "-,5"},
		{"0x1p-2", "1_000"}, {"", "   "}, {" ", "\u0085"}, {" x", "x"},
		{"hello  world", " hello world "}, {"a\tb", "a b"}, {"abc", "abd"}, {"7", "seven"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1], 2.5)
		f.Add(s[1], s[0], -1.0)
	}
	f.Fuzz(func(t *testing.T, a, b string, off float64) {
		la := text.NewDocument("a", a, nil).WholeSpan()
		rb := text.NewDocument("b", b, nil).WholeSpan()
		ra, rr := refSpanOperand(la), refSpanOperand(rb)
		for _, offset := range []float64{0, off} {
			l, r := spanOperand(la), spanOperand(rb)
			c := constTerm(alog.Term{Kind: alog.TermStr, Str: b})
			for _, op := range allCompareOps {
				got, err := compareAt(op, offset, &l, &r)
				if want := refCompareAt(op, offset, ra, rr); err != nil || got != want {
					t.Fatalf("%q %s %q (offset %v) = %v, %v; want %v", a, op, b, offset, got, err, want)
				}
				got, err = compareAt(op, offset, &l, &c)
				if want := refCompareAt(op, offset, ra, refOperand{str: b}); err != nil || got != want {
					t.Fatalf("%q %s const %q (offset %v) = %v, %v; want %v", a, op, b, offset, got, err, want)
				}
			}
		}
	})
}

// TestSpanOperandNoAlloc guards the lazy path: classifying a value —
// number, NULL or not-yet-normalized string — allocates nothing, and
// neither does comparing numbers or a number with a string.
// sinkOperand keeps measured calls from being optimized away.
var (
	sinkOperand operand
	sinkCmp     bool
)

func TestSpanOperandNoAlloc(t *testing.T) {
	d := text.NewDocument("d", "619000 The  Godfather \t ", nil)
	spans := map[string]text.Span{
		"number": d.Span(0, 6),
		"string": d.Span(7, 21),
		"blank":  d.Span(21, 24),
		"empty":  d.Span(6, 6),
	}
	for name, sp := range spans {
		if n := testing.AllocsPerRun(100, func() { sinkOperand = spanOperand(sp) }); n != 0 {
			t.Errorf("spanOperand(%s): %v allocs per call, want 0", name, n)
		}
	}
	num, str := spanOperand(spans["number"]), spanOperand(spans["string"])
	for _, op := range allCompareOps {
		if n := testing.AllocsPerRun(100, func() {
			a, _ := compareAt(op, 0, &num, &num)
			b, _ := compareAt(op, 5, &str, &num)
			c, _ := compareAt(op, 0, &num, &str)
			sinkCmp = a && b && c
		}); n != 0 {
			t.Errorf("compare %s: %v allocs per call, want 0", op, n)
		}
	}
	if !str.raw {
		t.Error("number/string comparisons normalized the string operand")
	}
}

func BenchmarkSpanOperand(b *testing.B) {
	d := text.NewDocument("d", "619000 The  Godfather \t ", nil)
	spans := []text.Span{d.Span(0, 6), d.Span(7, 21), d.Span(21, 24)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkOperand = spanOperand(spans[i%len(spans)])
	}
}
