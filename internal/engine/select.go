package engine

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"iflex/internal/alog"
	"iflex/internal/compact"
	"iflex/internal/similarity"
	"iflex/internal/text"
)

// valuePred is a predicate over one concrete value per involved column.
type valuePred func(vals []text.Span) (bool, error)

// colPred is a single-column conjunct: it tests one value of one involved
// column in isolation.
type colPred func(v text.Span) (bool, error)

// idxPred tests one valuation, identified by the value index chosen for
// each involved column (idx[i] indexes the column's enumerated values).
type idxPred func(idx []int) (bool, error)

// factoredPred is a conjunctive tuple predicate factored by column: a
// valuation satisfies it iff every per-column conjunct accepts its value
// AND the residual (when present) accepts the combination.
//
//   - cols[i], when non-nil, is evaluated once per value of involved
//     column i — O(Σ|vals|) work instead of a factor of the cross product.
//   - prepare, when non-nil, builds the residual predicate after
//     precomputing whatever per-value state it needs (parsed operands,
//     normalised token slices); the returned idxPred then runs only over
//     combinations of values that passed their conjuncts.
//
// The residual counts its own predicate evaluations into the batch given
// to prepare (conjunct evaluations are counted by filterTupleF), so a
// residual that rejects a combination with a cheap necessary-condition
// check — the filter step of filter-and-verify — does not inflate
// FuncCalls with evaluations that never ran.
//
// A predicate with no residual never enumerates the cross product at all.
type factoredPred struct {
	cols    []colPred
	prepare func(vals [][]text.Span, batch *statBatch) (idxPred, error)
}

// genericPred lifts an opaque valuePred into a residual-only factoredPred
// (no per-column decomposition), preserving the classic full-odometer
// behaviour for callers that cannot factor their condition.
func genericPred(pred valuePred, arity int) factoredPred {
	return factoredPred{
		cols: make([]colPred, arity),
		prepare: func(vals [][]text.Span, batch *statBatch) (idxPred, error) {
			cur := make([]text.Span, len(vals))
			return func(idx []int) (bool, error) {
				for i, j := range idx {
					cur[i] = vals[i][j]
				}
				batch.funcCalls++
				return pred(cur)
			}, nil
		},
	}
}

// filterOutcome is the result of applying a predicate to one compact tuple
// with superset semantics.
type filterOutcome struct {
	keep     bool
	sure     bool                 // every valuation satisfies, precisely
	repl     map[int]compact.Cell // replacement cells for filtered expansion columns
	fallback bool                 // kept conservatively: enumeration exceeded Limits
}

// filterScratch pools the per-call working set of filterTupleF: the value
// lists, per-value conjunct verdicts, satisfied flags, and odometer
// positions. One scratch serves one call at a time (callers never hold it
// across predicate evaluations of other tuples).
type filterScratch struct {
	vals [][]text.Span
	pass [][]bool
	sat  [][]bool
	keep [][]int
	idx  []int
	cur  []int
}

var scratchPool = sync.Pool{New: func() any { return &filterScratch{} }}

// grow resizes the scratch for n involved columns, reusing inner slices.
func (sc *filterScratch) grow(n int) {
	for len(sc.vals) < n {
		sc.vals = append(sc.vals, nil)
		sc.pass = append(sc.pass, nil)
		sc.sat = append(sc.sat, nil)
		sc.keep = append(sc.keep, nil)
	}
	if cap(sc.idx) < n {
		sc.idx = make([]int, n)
		sc.cur = make([]int, n)
	}
}

// boolRow returns dst resized to n entries, all false.
func boolRow(dst []bool, n int) []bool {
	if cap(dst) < n {
		return make([]bool, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = false
	}
	return dst
}

// filterTuple evaluates an opaque predicate over every valuation of the
// involved columns — the unfactored entry point kept for predicates with
// no per-column structure (and for tests exercising the odometer).
func filterTuple(tp compact.Tuple, involved []int, pred valuePred, lim Limits, stats *Stats) (filterOutcome, error) {
	var batch statBatch
	res, err := filterTupleF(tp, involved, genericPred(pred, len(involved)), lim, &batch)
	if stats != nil {
		batch.flushTo(stats)
	}
	return res, err
}

// filterTupleF evaluates a factored predicate over one compact tuple
// (Section 4.1) with superset semantics:
//
//   - keep the tuple if any valuation satisfies; mark it maybe unless all do
//   - expansion cells stand for one tuple per value, so their values are
//     filtered down to those participating in a satisfying valuation
//   - when value enumeration exceeds the limits, fall back to keeping the
//     tuple as maybe — conservative but superset-safe; per-column conjunct
//     verdicts already decided are still applied (dropping a value whose
//     conjunct failed can never drop a satisfying valuation)
//
// The residual odometer runs only over values that passed their conjuncts
// and short-circuits once the keep/maybe verdict is decided and every
// expansion column's satisfied-set is saturated. Conjunct evaluations are
// counted into batch (FuncCalls) here; residual evaluations count
// themselves (see factoredPred).
func filterTupleF(tp compact.Tuple, involved []int, fp factoredPred, lim Limits, batch *statBatch) (filterOutcome, error) {
	sc := scratchPool.Get().(*filterScratch)
	defer scratchPool.Put(sc)
	sc.grow(len(involved))
	conservative := filterOutcome{keep: true, fallback: true}

	// Enumerate the value list of each involved cell, bailing out to the
	// fully conservative outcome when any single cell is too large.
	vals := sc.vals[:len(involved)]
	for i, ci := range involved {
		cell := tp.Cells[ci]
		if cell.NumValues() > lim.MaxCellValues {
			return conservative, nil
		}
		vs := vals[i][:0]
		cell.Values(func(s text.Span) bool {
			vs = append(vs, s)
			return true
		})
		if len(vs) == 0 {
			return filterOutcome{keep: false}, nil
		}
		vals[i] = vs
	}

	// Per-column conjunct passes: pass[i][j] records whether value j of
	// column i satisfies its conjunct; keep[i] lists the passing indices.
	// A column with no passing value kills the tuple outright (the overall
	// predicate is a conjunction).
	anyColFailed := false
	for i := range involved {
		n := len(vals[i])
		pass := boolRow(sc.pass[i], n)
		kp := sc.keep[i][:0]
		cp := fp.cols[i]
		if cp == nil {
			for j := 0; j < n; j++ {
				pass[j] = true
				kp = append(kp, j)
			}
		} else {
			for j := 0; j < n; j++ {
				batch.funcCalls++
				ok, err := cp(vals[i][j])
				if err != nil {
					return filterOutcome{}, err
				}
				pass[j] = ok
				if ok {
					kp = append(kp, j)
				} else {
					anyColFailed = true
				}
			}
			if len(kp) == 0 {
				return filterOutcome{keep: false}, nil
			}
		}
		sc.pass[i], sc.keep[i] = pass, kp
	}

	// Fully factored predicate: the conjunct verdicts decide everything —
	// a value participates in a satisfying valuation iff it passed (every
	// other column has at least one passing value).
	if fp.prepare == nil {
		if !anyColFailed {
			return filterOutcome{keep: true, sure: true}, nil
		}
		out := filterOutcome{keep: true}
		return finishRepl(out, tp, involved, sc.pass)
	}

	// Residual odometer over passing values only. The combination count is
	// checked against the restricted product, so conjuncts shrink the
	// valuation space before the limit applies.
	combos := 1
	for i := range involved {
		combos *= len(sc.keep[i])
		if combos > lim.MaxValuations {
			// Conservative keep, but per-column verdicts already decided
			// still filter the expansion cells (superset-safe: a value whose
			// conjunct failed satisfies no valuation).
			if !anyColFailed {
				return conservative, nil
			}
			out, err := finishRepl(filterOutcome{keep: true, fallback: true}, tp, involved, sc.pass)
			out.fallback = true
			return out, err
		}
	}
	res, err := fp.prepare(vals, batch)
	if err != nil {
		return filterOutcome{}, err
	}

	// satNeeded marks expansion columns: only their satisfied-sets matter
	// for output filtering, so saturation is tracked on them alone.
	satRemaining := 0
	for i, ci := range involved {
		if tp.Cells[ci].Expand {
			sc.sat[i] = boolRow(sc.sat[i], len(vals[i]))
			satRemaining += len(sc.keep[i])
		} else {
			sc.sat[i] = nil
		}
	}

	idx := sc.idx[:len(involved)]
	cur := sc.cur[:len(involved)]
	for i := range idx {
		idx[i] = 0
	}
	anySat, allSat := false, true
	for {
		for i, p := range idx {
			cur[i] = sc.keep[i][p]
		}
		ok, err := res(cur)
		if err != nil {
			return filterOutcome{}, err
		}
		if ok {
			anySat = true
			for i := range idx {
				if sc.sat[i] != nil && !sc.sat[i][cur[i]] {
					sc.sat[i][cur[i]] = true
					satRemaining--
				}
			}
		} else {
			allSat = false
		}
		// Short-circuit: once some valuation satisfies, some fails (here or
		// in a conjunct), and every expansion value's fate is decided,
		// remaining combinations cannot change the outcome.
		if anySat && (anyColFailed || !allSat) && satRemaining == 0 {
			break
		}
		// advance the odometer
		k := len(idx) - 1
		for k >= 0 {
			idx[k]++
			if idx[k] < len(sc.keep[k]) {
				break
			}
			idx[k] = 0
			k--
		}
		if k < 0 {
			break
		}
	}
	if !anySat {
		return filterOutcome{keep: false}, nil
	}
	if allSat && !anyColFailed {
		return filterOutcome{keep: true, sure: true}, nil
	}
	// A value participates in a satisfying valuation iff the residual
	// marked it; merge that into pass[i] for expansion columns.
	for i := range involved {
		if sc.sat[i] != nil {
			sc.pass[i] = sc.sat[i]
		}
	}
	return finishRepl(filterOutcome{keep: true}, tp, involved, sc.pass)
}

// finishRepl rebuilds filtered expansion cells: values with no satisfying
// valuation (pass[i][j] == false) denote expanded tuples that certainly
// fail, so they are dropped. Non-expansion cells are left untouched.
func finishRepl(out filterOutcome, tp compact.Tuple, involved []int, pass [][]bool) (filterOutcome, error) {
	for i, ci := range involved {
		cell := tp.Cells[ci]
		if !cell.Expand {
			continue
		}
		var kept []text.Assignment
		j := 0
		changed := false
		for _, a := range cell.Assigns {
			n := a.NumValues()
			allKept, noneKept := true, true
			for v := 0; v < n; v++ {
				if pass[i][j+v] {
					noneKept = false
				} else {
					allKept = false
				}
			}
			if allKept {
				kept = append(kept, a)
			} else {
				changed = true
				if !noneKept {
					v := 0
					row := pass[i]
					base := j
					a.Values(func(s text.Span) bool {
						if row[base+v] {
							kept = append(kept, text.ExactOf(s))
						}
						v++
						return true
					})
				}
			}
			j += n
		}
		if len(kept) == 0 {
			return filterOutcome{keep: false}, nil
		}
		if changed {
			if out.repl == nil {
				out.repl = map[int]compact.Cell{}
			}
			out.repl[ci] = compact.Cell{Assigns: kept, Expand: true}
		}
	}
	return out, nil
}

// applyFilter runs filterTupleF over a whole table, producing the selected
// table with maybe flags and expansion-cell filtering applied. Tuples are
// independent, so the loop is partitioned across the context's worker
// pool; per-index result slots keep the output order serial-identical.
// The predicate must therefore be safe for concurrent calls (the built-in
// p-functions and comparison operands are pure). Stat deltas batch per
// chunk and flush once, so hot loops pay no per-call atomics. With a
// delta prior attached (dx), structurally unchanged input tuples replay
// their memoised outcome — including the valuation-cap fallback charge —
// without re-running the predicate.
func applyFilter(ctx *Context, ev *EvalTrace, dx *deltaState, in *compact.Table, involved []int, fp factoredPred) (*compact.Table, error) {
	lim := ctx.Env.Limits
	out := compact.NewTable(in.Cols...)
	// The memo is keyed on the involved columns alone and stores the
	// filter's outcome (keep/sure/replacements), not the built tuple:
	// replay rebuilds the output from the current tuple, so refinements of
	// uninvolved columns — and maybe-flag changes, reapplied here — do not
	// invalidate it.
	prior, fps := dx.prep(in, involved, nil, 0)
	var fbs []int32
	var outs []*filterOutcome
	if fps != nil {
		fbs = make([]int32, len(in.Tuples))
		outs = make([]*filterOutcome, len(in.Tuples))
	}
	rows := make([]*compact.Tuple, len(in.Tuples))
	// nq counts tuples dropped by quarantine, ncut the chunks cut short by
	// a best-effort cancellation; either way the pass's delta memo is
	// abandoned (it would have holes) and quarantine additionally discards
	// the output via the restart sentinel.
	var nq, ncut atomic.Int64
	err := ctx.parallelChunksSized(len(in.Tuples), minChunkFilter, func(start, end int) error {
		var batch statBatch
		defer batch.flush(ctx)
		reused := 0
		for i := start; i < end; i++ {
			if cut, cerr := ctx.cutCheck(); cerr != nil {
				return cerr
			} else if cut {
				ctx.noteUnprocessed(in.Tuples[i:end])
				ncut.Add(1)
				break
			}
			tp := in.Tuples[i]
			if fps != nil {
				fps[i] = dx.aux.fpOf(tp)
				if old, ok := prior.lookup(fps[i], tp); ok {
					fo := old.filt
					if fo.keep {
						nt := tp.Copy()
						for ci, cell := range fo.repl {
							nt.Cells[ci] = cell
						}
						if !fo.sure {
							nt.Maybe = true
						}
						rows[i] = &nt
					}
					outs[i] = fo
					fbs[i] = old.fallbacks
					ev.fallback(ctx, int(old.fallbacks))
					reused++
					continue
				}
			}
			batch.tuplesRecomputed++
			var res filterOutcome
			qed, err := ctx.guard(ev, "pfunc", func() []string { return tupleDocs(tp, involved) }, func() error {
				var ferr error
				res, ferr = filterTupleF(tp, involved, fp, lim, &batch)
				return ferr
			})
			if err != nil {
				return err
			}
			if qed {
				nq.Add(1)
				continue
			}
			if outs != nil {
				ro := res
				outs[i] = &ro
			}
			if res.fallback {
				ev.fallback(ctx, 1)
				if fbs != nil {
					fbs[i] = 1
				}
			}
			if !res.keep {
				continue
			}
			nt := tp.Copy()
			for ci, cell := range res.repl {
				nt.Cells[ci] = cell
			}
			if !res.sure {
				nt.Maybe = true
			}
			rows[i] = &nt
		}
		dx.noteReused(&batch, reused)
		ev.recompute(batch.tuplesRecomputed)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if n := nq.Load(); n > 0 {
		return nil, quarantineErr("pfunc", n)
	}
	for _, nt := range rows {
		if nt != nil {
			out.Tuples = append(out.Tuples, *nt)
		}
	}
	if ncut.Load() == 0 {
		dx.finish(in, func(i int) deltaOut {
			o := deltaOut{filt: outs[i]}
			if fbs != nil {
				o.fallbacks = fbs[i]
			}
			return o
		})
	}
	return out, nil
}

// compareNode is a selection with a comparison condition, e.g. p > 500000.
type compareNode struct {
	nodeSig
	parent Node
	cmp    alog.Compare
}

func newCompareNode(parent Node, cmp alog.Compare) *compareNode {
	return &compareNode{
		nodeSig: sigOf(fmt.Sprintf("select[%s](%s)", cmp, parent.Signature())),
		parent:  parent, cmp: cmp,
	}
}

func (n *compareNode) Columns() []string { return n.parent.Columns() }
func (n *compareNode) Children() []Node  { return []Node{n.parent} }

// constTerm resolves a non-variable comparison term to its operand.
func constTerm(t alog.Term) operand {
	switch t.Kind {
	case alog.TermNum:
		return operand{isNum: true, num: t.Num}
	case alog.TermStr:
		return operand{str: t.Str}
	}
	return operand{isNull: true}
}

func (n *compareNode) eval(ctx *Context, ev *EvalTrace, dx *deltaState) (*compact.Table, error) {
	in, err := Eval(ctx, n.parent)
	if err != nil {
		return nil, err
	}
	op := n.cmp.Op
	offset := n.cmp.ROffset
	compare := func(l, r *operand) (bool, error) { return compareAt(op, offset, l, r) }
	lVar, rVar := n.cmp.L.Kind == alog.TermVar, n.cmp.R.Kind == alog.TermVar
	switch {
	case lVar && rVar:
		// var ⋈ var: precompute both columns' operands once per value, then
		// run the cheap residual over the (early-terminated) cross product.
		involved := []int{colIndex(in.Cols, n.cmp.L.Var), colIndex(in.Cols, n.cmp.R.Var)}
		fp := factoredPred{
			cols: make([]colPred, 2),
			prepare: func(vals [][]text.Span, batch *statBatch) (idxPred, error) {
				lops := make([]operand, len(vals[0]))
				for j, v := range vals[0] {
					lops[j] = spanOperand(v)
				}
				rops := make([]operand, len(vals[1]))
				for j, v := range vals[1] {
					rops[j] = spanOperand(v)
				}
				return func(idx []int) (bool, error) {
					batch.funcCalls++
					return compare(&lops[idx[0]], &rops[idx[1]])
				}, nil
			},
		}
		return applyFilter(ctx, ev, dx, in, involved, fp)
	case lVar:
		// var ⋈ const: a pure single-column conjunct — O(|vals|) per tuple.
		involved := []int{colIndex(in.Cols, n.cmp.L.Var)}
		r := constTerm(n.cmp.R)
		fp := factoredPred{cols: []colPred{func(v text.Span) (bool, error) {
			l, r := spanOperand(v), r
			return compare(&l, &r)
		}}}
		return applyFilter(ctx, ev, dx, in, involved, fp)
	case rVar:
		involved := []int{colIndex(in.Cols, n.cmp.R.Var)}
		l := constTerm(n.cmp.L)
		fp := factoredPred{cols: []colPred{func(v text.Span) (bool, error) {
			l, r := l, spanOperand(v)
			return compare(&l, &r)
		}}}
		return applyFilter(ctx, ev, dx, in, involved, fp)
	default:
		// const ⋈ const: one evaluation decides every tuple.
		l, r := constTerm(n.cmp.L), constTerm(n.cmp.R)
		ok, err := compare(&l, &r)
		if err != nil {
			return nil, err
		}
		out := compact.NewTable(in.Cols...)
		if ok {
			out.Tuples = append(out.Tuples, in.Tuples...)
		}
		return out, nil
	}
}

// operand is one side of a comparison at valuation time. A value that is
// neither a number nor NULL keeps its raw text and is whitespace-normalized
// on its first string-to-string comparison (see norm), so values compared
// only as numbers, against NULL or across types are never normalized, and
// a prepared operand is normalized at most once.
type operand struct {
	isNum  bool
	num    float64
	str    string
	isNull bool
	raw    bool // str is the value's text, not yet whitespace-normalized
}

// norm returns the operand's comparison string, normalizing a value's raw
// text in place on first use. An operand is owned by one evaluation at a
// time (prepared per tuple, or built per call), so the write needs no lock.
func (o *operand) norm() string {
	if o.raw {
		o.str, o.raw = text.NormalizeSpace(o.str), false
	}
	return o.str
}

// spanOperand converts a value span: numeric when it parses, NULL when
// its normalized text would be empty, string otherwise. Neither test
// allocates: ParseNumeric rejects non-numbers before parsing, and a value
// is NULL exactly when every rune is whitespace (text.IsBlank), which is
// when NormalizeSpace would return "". The string is left raw for norm.
func spanOperand(s text.Span) operand {
	t := s.Text()
	if n, ok := text.ParseNumeric(t); ok {
		return operand{isNum: true, num: n}
	}
	if text.IsBlank(t) {
		return operand{isNull: true}
	}
	return operand{str: t, raw: true}
}

// compareAt compares l and r after applying a rule's numeric offset to the
// right operand; an offset only applies to a numeric right side, and any
// other right side fails the comparison.
func compareAt(op alog.CompareOp, offset float64, l, r *operand) (bool, error) {
	if offset != 0 {
		if !r.isNum {
			return false, nil
		}
		shifted := operand{isNum: true, num: r.num + offset}
		r = &shifted
	}
	return compareOperands(op, l, r)
}

// compareOperands implements the comparison semantics: NULL equals only
// NULL and is ordered below everything; numbers compare numerically;
// otherwise strings compare lexically.
func compareOperands(op alog.CompareOp, a, b *operand) (bool, error) {
	if a.isNull || b.isNull {
		eq := a.isNull && b.isNull
		switch op {
		case alog.OpEQ:
			return eq, nil
		case alog.OpNE:
			return !eq, nil
		default:
			return false, nil // ordering with NULL never holds
		}
	}
	var c int
	if a.isNum && b.isNum {
		switch {
		case a.num < b.num:
			c = -1
		case a.num > b.num:
			c = 1
		}
	} else if !a.isNum && !b.isNum {
		c = strings.Compare(a.norm(), b.norm())
	} else {
		// Mixed number/string never compares equal and has no order.
		if op == alog.OpNE {
			return true, nil
		}
		return false, nil
	}
	switch op {
	case alog.OpLT:
		return c < 0, nil
	case alog.OpLE:
		return c <= 0, nil
	case alog.OpGT:
		return c > 0, nil
	case alog.OpGE:
		return c >= 0, nil
	case alog.OpEQ:
		return c == 0, nil
	case alog.OpNE:
		return c != 0, nil
	}
	return false, fmt.Errorf("engine: unknown comparison operator %q", op)
}

// funcNode is a selection with a boolean p-function condition, e.g.
// approxMatch(h, s).
type funcNode struct {
	nodeSig
	parent Node
	fname  string
	args   []alog.Term
}

func newFuncNode(parent Node, fname string, args []alog.Term) *funcNode {
	strs := make([]string, len(args))
	for i, a := range args {
		strs[i] = a.String()
	}
	return &funcNode{
		nodeSig: sigOf(fmt.Sprintf("pfunc[%s(%s)](%s)", fname, strings.Join(strs, ","), parent.Signature())),
		parent:  parent, fname: fname, args: args,
	}
}

func (n *funcNode) Columns() []string { return n.parent.Columns() }
func (n *funcNode) Children() []Node  { return []Node{n.parent} }

func (n *funcNode) eval(ctx *Context, ev *EvalTrace, dx *deltaState) (*compact.Table, error) {
	fn, ok := ctx.Env.Funcs[n.fname]
	if !ok {
		return nil, fmt.Errorf("engine: p-function %q not bound", n.fname)
	}
	in, err := Eval(ctx, n.parent)
	if err != nil {
		return nil, err
	}
	var involved []int
	for _, a := range n.args {
		if a.Kind != alog.TermVar {
			return nil, fmt.Errorf("engine: p-function %s: only variable arguments are supported, got %s", n.fname, a)
		}
		involved = append(involved, colIndex(in.Cols, a.Var))
	}
	// Token fast path: a binary p-function with a token-slice twin (similar,
	// approxMatch) compares pre-normalised token slices, tokenising each
	// value once per tuple instead of once per valuation.
	if tokenFn := ctx.Env.TokenSimilar[n.fname]; tokenFn != nil && len(involved) == 2 {
		fp := factoredPred{
			cols: make([]colPred, 2),
			prepare: func(vals [][]text.Span, batch *statBatch) (idxPred, error) {
				ltoks := tokenizeValues(ctx, vals[0])
				rtoks := tokenizeValues(ctx, vals[1])
				return tokenResidual(tokenFn, ltoks, rtoks, batch), nil
			},
		}
		return applyFilter(ctx, ev, dx, in, involved, fp)
	}
	fp := factoredPred{
		cols: make([]colPred, len(involved)),
		prepare: func(vals [][]text.Span, batch *statBatch) (idxPred, error) {
			args := make([]text.Span, len(vals))
			return func(idx []int) (bool, error) {
				for i, j := range idx {
					args[i] = vals[i][j]
				}
				batch.funcCalls++
				return fn(args)
			}, nil
		},
	}
	return applyFilter(ctx, ev, dx, in, involved, fp)
}

// tokenizeValues normalises and tokenises each value span once. A
// whole-document span is answered from the document index when one is
// attached — the stored sequence equals NormalizedTokens(span.NormText())
// for the whole page, so no page text is touched. (An empty stored list
// stays as-is: the shared-token residual treats empty and nil alike.)
func tokenizeValues(ctx *Context, vals []text.Span) [][]string {
	out := make([][]string, len(vals))
	di := ctx.Env.DocIndex
	for i, v := range vals {
		if di != nil {
			if d := v.Doc(); d != nil && v.Start() == 0 && v.End() == d.Len() {
				if toks, ok := di.NormTokens(d); ok && toks != nil {
					statAdd(&ctx.Stats.IndexTokenHits, 1)
					out[i] = toks
					continue
				}
			}
		}
		out[i] = similarity.NormalizedTokens(v.NormText())
	}
	return out
}

// sharesToken reports whether the two token slices have a token in
// common. Token lists are short (a handful of words per value), so the
// nested scan beats building a set.
func sharesToken(a, b []string) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// tokenResidual builds the residual for a token-similarity predicate
// using filter-and-verify: every built-in token similarity (normalised
// equality, token-prefix containment, Jaccard >= 0.6) requires at least
// one shared token — the same guarantee the join blocking rests on — so
// a cheap shared-token check rejects most pairs before the full
// similarity computation runs (and is counted). Both steps are
// allocation-free over the prepared token slices: the prefilter is a
// nested scan, and the built-in verify step counts the Jaccard overlap by
// scan too, dividing the same two integers the set-based count did, so
// every keep/reject decision and every counted call is unchanged.
func tokenResidual(tokenFn func(a, b []string) bool, ltoks, rtoks [][]string, batch *statBatch) idxPred {
	return func(idx []int) (bool, error) {
		l, r := ltoks[idx[0]], rtoks[idx[1]]
		if !sharesToken(l, r) {
			return false, nil
		}
		batch.funcCalls++
		return tokenFn(l, r), nil
	}
}
