package engine

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"iflex/internal/compact"
	"iflex/internal/similarity"
	"iflex/internal/text"
)

// simJoinNode is the fused approximate string join: cross(left, right)
// followed by a similar/approxMatch filter, evaluated with token blocking
// instead of the full Cartesian product. The paper defers approximate
// string joins to the full technical report [20]; the blocking relies on
// the p-function's guarantee that matching values share at least one
// token, which holds for the default similar/approxMatch (normalised
// equality, token-prefix containment, Jaccard >= 0.6 all require a shared
// token). Pairs whose join cells are too large to enumerate are kept
// conservatively, exactly like crossNode + funcNode would.
type simJoinNode struct {
	nodeSig
	left, right Node
	fname       string
	leftVar     string
	rightVar    string
	cols        []string
}

func newSimJoinNode(left, right Node, fname, leftVar, rightVar string) *simJoinNode {
	n := &simJoinNode{left: left, right: right, fname: fname, leftVar: leftVar, rightVar: rightVar}
	n.cols = append(append([]string(nil), left.Columns()...), right.Columns()...)
	n.nodeSig = sigOf(fmt.Sprintf("simjoin[%s(%s,%s)](%s)(%s)", fname, leftVar, rightVar, left.Signature(), right.Signature()))
	return n
}

func (n *simJoinNode) Columns() []string { return n.cols }
func (n *simJoinNode) Children() []Node  { return []Node{n.left, n.right} }

// wholeDocExact reports whether the cell is a single exact assignment
// covering an entire document, returning that document. Those cells —
// whole pages flowing out of a scan — are the shape the persistent token
// index has precomputed answers for. The check never pages text in
// (Document.Len is metadata).
func wholeDocExact(c compact.Cell) (*text.Document, bool) {
	if len(c.Assigns) != 1 {
		return nil, false
	}
	a := c.Assigns[0]
	d := a.Span.Doc()
	if a.Mode != text.Exact || d == nil || a.Span.Start() != 0 || a.Span.End() != d.Len() {
		return nil, false
	}
	return d, true
}

// blockTokens returns the distinct lower-cased tokens over all value
// regions of a cell, or nil when the cell is too large to enumerate
// (callers treat nil as "matches anything"). With a document index
// attached, a single exact whole-document cell is answered from the
// stored token set — exactly the distinct sorted similarity.Tokens of the
// page text, so the result is identical to tokenizing live but touches no
// page content.
func blockTokens(ctx *Context, c compact.Cell) map[string]bool {
	if c.NumValues() > ctx.Env.Limits.MaxCellValues {
		return nil
	}
	if di := ctx.Env.DocIndex; di != nil {
		if d, ok := wholeDocExact(c); ok {
			if toks, ok := di.BlockTokens(d); ok {
				statAdd(&ctx.Stats.IndexTokenHits, 1)
				out := make(map[string]bool, len(toks))
				for _, tok := range toks {
					out[tok] = true
				}
				return out
			}
		}
	}
	out := map[string]bool{}
	// Tokens of each assignment's span cover the tokens of every encoded
	// value (values are sub-spans).
	for _, a := range c.Assigns {
		for _, tok := range similarity.Tokens(a.Span.Text()) {
			out[tok] = true
		}
	}
	return out
}

// blockIndex serves candidate right-tuple indices by block token for one
// evaluated side of a similarity join; always lists tuples whose cells
// were too large to enumerate. It has two backings: an explicit
// token->tuples map built by tokenizing every right cell, or — when every
// right tuple is a distinct whole document known to the persistent
// inverted index — the postings lists themselves, decoded lazily per
// probed token and translated through tupOf.
type blockIndex struct {
	byToken map[string][]int
	always  []int

	post  PostingsIndex
	tupOf []int32 // doc ordinal -> right tuple index, -1 when absent
	nTup  int

	pmu    sync.RWMutex
	pcache map[string][]int // token -> translated candidates
}

// candidates returns the right-tuple indices whose block-token set may
// contain tok. Order is unspecified; the probe loop dedups and sorts the
// merged candidate set. On the postings backing, a token the index cannot
// answer falls back to every tuple (a superset is always safe — dropping
// candidates would silently under-approximate the join).
func (idx *blockIndex) candidates(tok string) []int {
	if idx.post == nil {
		return idx.byToken[tok]
	}
	idx.pmu.RLock()
	c, ok := idx.pcache[tok]
	idx.pmu.RUnlock()
	if ok {
		return c
	}
	ords, aok := idx.post.TokenPostings(tok)
	var out []int
	if !aok {
		out = allRows(idx.nTup)
	} else {
		for _, o := range ords {
			if o >= 0 && o < len(idx.tupOf) && idx.tupOf[o] >= 0 {
				out = append(out, int(idx.tupOf[o]))
			}
		}
	}
	idx.pmu.Lock()
	if prev, ok := idx.pcache[tok]; ok {
		out = prev
	} else {
		idx.pcache[tok] = out
	}
	idx.pmu.Unlock()
	return out
}

// memBytes approximates the index's resident size for cache accounting.
// The postings translation cache grows as tokens are probed; its eventual
// size is bounded by the probed vocabulary and is not re-accounted.
func (idx *blockIndex) memBytes() int64 {
	b := int64(48)
	for tok, ids := range idx.byToken {
		b += int64(len(tok)) + 40 + 8*int64(len(ids))
	}
	b += 8 * int64(len(idx.always))
	b += 4 * int64(len(idx.tupOf))
	return b
}

// postingsBlockIndex tries to back the blocking index directly by the
// persistent inverted token index. Valid only when every right tuple's
// join cell is a single exact whole-document assignment over a document
// with a distinct ordinal in the index — the shape a scan of a stored
// corpus produces. Returns nil when any tuple doesn't qualify; the caller
// then builds the per-tuple map.
func postingsBlockIndex(pi PostingsIndex, rt *compact.Table, ri int) *blockIndex {
	if pi == nil || len(rt.Tuples) == 0 {
		return nil
	}
	tupOf := make([]int32, pi.NumDocs())
	for i := range tupOf {
		tupOf[i] = -1
	}
	for j, rtp := range rt.Tuples {
		d, ok := wholeDocExact(rtp.Cells[ri])
		if !ok {
			return nil
		}
		ord, ok := pi.DocOrdinal(d)
		if !ok || ord < 0 || ord >= len(tupOf) || tupOf[ord] != -1 {
			return nil
		}
		tupOf[ord] = int32(j)
	}
	return &blockIndex{post: pi, tupOf: tupOf, nTup: len(rt.Tuples), pcache: map[string][]int{}}
}

// cellDocs is the quarantine attribution list for a fault inside a
// single-cell operation (index build, token precompute).
func cellDocs(c compact.Cell) func() []string {
	return func() []string {
		return tupleDocs(compact.Tuple{Cells: []compact.Cell{c}}, nil)
	}
}

// rightIndex builds (or fetches from the context cache) the blocking index
// of the join's right side. The cache entry is keyed by the subset and the
// right child's signature plus the join variable, so an index is shared
// only with executions that see the identical table; it lives in the same
// LRU as the result tables and counts against CacheBudget. Concurrent
// builders may race to construct the same index; the build is
// deterministic, so whichever lands in the cache is interchangeable.
//
// When the right side is a stored corpus scan, the persistent inverted
// index backs the blocking directly (no per-run tokenization). Otherwise
// each right cell tokenizes under a quarantine guard: a page that faults
// while being indexed is quarantined and the whole pass restarts, so the
// survivors' subset gets a cleanly rebuilt index (a partial index is never
// cached).
func (n *simJoinNode) rightIndex(ctx *Context, ev *EvalTrace, rt *compact.Table, ri int) (*blockIndex, error) {
	subsetHash, marker := ctx.subsetKey()
	key := entryKey{subset: subsetHash, sig: n.right.sigHash(), aux: n.rightVar}
	sig := n.right.Signature()
	ctx.mu.Lock()
	if e := ctx.lookupLocked(key, marker, sig); e != nil && e.idx != nil {
		ctx.touchLocked(e)
		ctx.mu.Unlock()
		return e.idx, nil
	}
	ctx.mu.Unlock()
	idx := postingsBlockIndex(ctx.Env.Postings, rt, ri)
	if idx != nil {
		statAdd(&ctx.Stats.BlockIdxPostings, 1)
	} else {
		var err error
		if idx, err = tokenBlockIndex(ctx, ev, rt, ri, allRows(len(rt.Tuples))); err != nil {
			return nil, err
		}
	}
	ctx.mu.Lock()
	if e := ctx.lookupLocked(key, marker, sig); e != nil && e.idx != nil {
		idx = e.idx
		ctx.touchLocked(e)
	} else {
		ctx.storeLocked(&cacheEntry{key: key, marker: marker, sig: sig, idx: idx, bytes: idx.memBytes()})
	}
	ctx.mu.Unlock()
	return idx, nil
}

// tokenBlockIndex builds the token->tuples blocking index over the join
// cells of the right tuples listed in rows. Each cell tokenizes under a
// quarantine guard: a page that faults while being indexed is quarantined
// and the build fails with a quarantine error, so the pass restarts over
// the survivors and a partial index is never used.
func tokenBlockIndex(ctx *Context, ev *EvalTrace, rt *compact.Table, ri int, rows []int) (*blockIndex, error) {
	idx := &blockIndex{byToken: map[string][]int{}}
	var qn int64
	for _, j := range rows {
		cell := rt.Tuples[j].Cells[ri]
		var toks map[string]bool
		qed, gerr := ctx.guard(ev, "blockindex", cellDocs(cell), func() error {
			toks = blockTokens(ctx, cell)
			return nil
		})
		if gerr != nil {
			return nil, gerr
		}
		if qed {
			qn++
			continue
		}
		if toks == nil {
			idx.always = append(idx.always, j)
			continue
		}
		for tok := range toks {
			idx.byToken[tok] = append(idx.byToken[tok], j)
		}
	}
	if qn > 0 {
		return nil, quarantineErr("blockindex", qn)
	}
	return idx, nil
}

// allRows lists the tuple indices 0..n-1.
func allRows(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// probeCandidates merges the candidates of every block token of a left
// cell with the index's always-candidates, deduplicated through the
// caller's seen map under generation gen, in ascending right-tuple order
// (the token set is a map, so sorting also fixes the output order).
func probeCandidates(idx *blockIndex, ltoks map[string]bool, seen map[int]int, gen int) []int {
	var cands []int
	add := func(js []int) {
		for _, j := range js {
			if seen[j] != gen {
				seen[j] = gen
				cands = append(cands, j)
			}
		}
	}
	for tok := range ltoks {
		add(idx.candidates(tok))
	}
	add(idx.always)
	sort.Ints(cands)
	return cands
}

func (n *simJoinNode) eval(ctx *Context, ev *EvalTrace, dx *deltaState) (*compact.Table, error) {
	fn, ok := ctx.Env.Funcs[n.fname]
	if !ok {
		return nil, fmt.Errorf("engine: p-function %q not bound", n.fname)
	}
	lt, rt, err := evalPair(ctx, n.left, n.right)
	if err != nil {
		return nil, err
	}
	lim := ctx.Env.Limits
	li := colIndex(lt.Cols, n.leftVar)
	ri := colIndex(rt.Cols, n.rightVar)

	// Index right tuples by block token; oversized cells go on the
	// always-candidate list. The index is cached per (subset, right side).
	idx, err := n.rightIndex(ctx, ev, rt, ri)
	if err != nil {
		return nil, err
	}

	// Fast path for pinned cells: compare pre-normalised token slices when
	// the p-function has a token implementation with identical semantics.
	// A whole-document singleton is answered from the document index when
	// one is attached: the stored sequence is exactly
	// NormalizedTokens(span.NormText()) for the whole page. A stored empty
	// sequence maps to nil because live tokenization of an empty page
	// yields nil ("not pinned") — the indexed run must take the same code
	// path.
	tokenFn := ctx.Env.TokenSimilar[n.fname]
	singletonTokens := func(c compact.Cell) []string {
		if tokenFn == nil {
			return nil
		}
		if di := ctx.Env.DocIndex; di != nil {
			if d, ok := wholeDocExact(c); ok {
				if toks, ok := di.NormTokens(d); ok {
					statAdd(&ctx.Stats.IndexTokenHits, 1)
					if len(toks) == 0 {
						return nil
					}
					return toks
				}
			}
		}
		if v, ok := c.Singleton(); ok {
			return similarity.NormalizedTokens(v.NormText())
		}
		return nil
	}
	// leftTokens tokenizes a left join cell for probing: its blocking set
	// and its pinned token slice. Tokenizing can page the document in; a
	// load fault quarantines the cell's documents (qed) and the caller
	// drops the tuple, like a faulting candidate pair. Site "blockindex"
	// (single-document attribution), never "pfunc".
	leftTokens := func(lcell compact.Cell) (ltoks map[string]bool, lpinned []string, qed bool, err error) {
		qed, err = ctx.guard(ev, "blockindex", cellDocs(lcell), func() error {
			ltoks = blockTokens(ctx, lcell)
			lpinned = singletonTokens(lcell)
			return nil
		})
		return ltoks, lpinned, qed, err
	}
	// Tokenizing a right cell can page its document in and fault; guard
	// each so a corrupt page quarantines (restarting the pass without it)
	// instead of crashing the evaluation. The guard site is "blockindex",
	// not "pfunc": a fault here is attributable to the one document being
	// tokenized, and p-function fault rules must keep injecting at pair
	// granularity exactly as before.
	rtoks := make([][]string, len(rt.Tuples))
	var rqn int64
	for j, rtp := range rt.Tuples {
		j, cell := j, rtp.Cells[ri]
		qed, gerr := ctx.guard(ev, "blockindex", cellDocs(cell), func() error {
			rtoks[j] = singletonTokens(cell)
			return nil
		})
		if gerr != nil {
			return nil, gerr
		}
		if qed {
			rqn++
		}
	}
	if rqn > 0 {
		return nil, quarantineErr("blockindex", rqn)
	}
	out := compact.NewTable(n.cols...)
	// join assembles the output tuple for one matching pair with shallow
	// cell copies (cells are immutable once built); only kept pairs
	// allocate anything at all.
	join := func(ltp, rtp compact.Tuple, maybe bool, repl map[int]compact.Cell) compact.Tuple {
		cells := make([]compact.Cell, 0, len(ltp.Cells)+len(rtp.Cells))
		cells = append(cells, ltp.Cells...)
		cells = append(cells, rtp.Cells...)
		if c, ok := repl[0]; ok {
			cells[li] = c
		}
		if c, ok := repl[1]; ok {
			cells[len(lt.Cols)+ri] = c
		}
		return compact.Tuple{Cells: cells, Maybe: maybe}
	}
	pairInvolved := []int{0, 1}
	// Partition the probe loop over left tuples; each chunk keeps its own
	// seen-generation map and writes matches into its tuples' result slots,
	// so the merged output is identical to a serial probe. Candidates are
	// probed in ascending right-tuple order (the token index enumerates a
	// map), which also makes the output order deterministic run to run.
	// The delta memo is per left tuple and depends only on the left join
	// cell; the right side is pinned by a content fingerprint of its join
	// column, so the memo survives re-evaluations of either side that leave
	// the join-relevant cells intact. Replay rebuilds each output row from
	// the *current* pair of tuples, carrying refreshed non-join cells.
	var rdep uint64
	if dx != nil {
		rdep = rt.ColsFingerprint([]int{ri})
	}
	prior, fps := dx.prep(lt, []int{li}, rt, rdep)
	// Corpus-mode reconciliation: after ApplyCorpusDelta the displaced
	// memo's right table was rebuilt by this same re-evaluation, so prep's
	// pointer/fingerprint pinning rejects it even though almost every
	// right tuple is unchanged. Align the two right tables structurally
	// (span identity — only tuples from unchanged documents can align) and
	// block the unmatched "fresh" right tuples separately: a memo-hit left
	// tuple then replays its surviving matches remapped to current indices
	// and probes only the fresh tuples, instead of the whole right side.
	var rec *simRecon
	var freshIdx *blockIndex
	if prior == nil && fps != nil {
		if cp := dx.corpusSimPrior([]int{li}); cp != nil {
			if rec = buildSimRecon(cp.right, rt); rec != nil {
				prior = cp
				if freshIdx, err = tokenBlockIndex(ctx, ev, rt, ri, rec.fresh); err != nil {
					return nil, err
				}
			}
		}
	}
	var fbs []int32
	var matches [][]joinMatch
	if fps != nil {
		fbs = make([]int32, len(lt.Tuples))
		matches = make([][]joinMatch, len(lt.Tuples))
	}
	rows := make([][]compact.Tuple, len(lt.Tuples))
	// nq counts candidate pairs dropped by quarantine (both pair documents
	// are attributed — the guard cannot tell which side faulted); ncut the
	// chunks cut short by a best-effort cancellation.
	var nq, ncut atomic.Int64
	probe := func(start, end int) error {
		var batch statBatch
		defer batch.flush(ctx)
		reused := 0
		seen := make(map[int]int) // right idx -> generation marker
		gen := 0
		// Chunk-local span-token memo: a right cell's values tokenise once
		// per chunk, not once per candidate pair it appears in.
		type spanKey struct {
			doc        *text.Document
			start, end int
		}
		tokMemo := map[spanKey][]string{}
		tokensOf := func(s text.Span) []string {
			k := spanKey{s.Doc(), s.Start(), s.End()}
			if t, ok := tokMemo[k]; ok {
				return t
			}
			var t []string
			if di := ctx.Env.DocIndex; di != nil {
				if d := s.Doc(); d != nil && s.Start() == 0 && s.End() == d.Len() {
					if toks, ok := di.NormTokens(d); ok && toks != nil {
						statAdd(&ctx.Stats.IndexTokenHits, 1)
						t = toks
					}
				}
			}
			if t == nil {
				t = similarity.NormalizedTokens(s.NormText())
			}
			if t == nil {
				t = []string{}
			}
			tokMemo[k] = t
			return t
		}
		// The pair predicate, factored for the odometer: token-slice
		// comparison when the p-function has a token twin, the opaque
		// function otherwise.
		fp := factoredPred{
			cols: make([]colPred, 2),
			prepare: func(vals [][]text.Span, batch *statBatch) (idxPred, error) {
				if tokenFn == nil {
					args := make([]text.Span, 2)
					return func(idx []int) (bool, error) {
						args[0], args[1] = vals[0][idx[0]], vals[1][idx[1]]
						batch.funcCalls++
						return fn(args)
					}, nil
				}
				ltoks := make([][]string, len(vals[0]))
				for j, v := range vals[0] {
					ltoks[j] = tokensOf(v)
				}
				rtoks := make([][]string, len(vals[1]))
				for j, v := range vals[1] {
					rtoks[j] = tokensOf(v)
				}
				return tokenResidual(tokenFn, ltoks, rtoks, batch), nil
			},
		}
		// evalPairAt decides one candidate pair for the current left tuple:
		// the pinned token fast path when both values are pinned, the
		// factored filter otherwise. qed means the pair faulted and was
		// quarantined (the caller drops it); fbp reports a charged
		// valuation-limit fallback.
		evalPairAt := func(ltp compact.Tuple, lpinned []string, j int) (m joinMatch, keep, fbp, qed bool, err error) {
			rtp := rt.Tuples[j]
			pairDocs := func() []string {
				return tupleDocs(compact.Tuple{Cells: []compact.Cell{ltp.Cells[li], rtp.Cells[ri]}}, nil)
			}
			if lpinned != nil && rtoks[j] != nil {
				matched := false
				qed, err = ctx.guard(ev, "pfunc", pairDocs, func() error {
					batch.funcCalls++
					matched = tokenFn(lpinned, rtoks[j])
					return nil
				})
				if err != nil || qed || !matched {
					return joinMatch{}, false, false, qed, err
				}
				return joinMatch{j: j, sure: true}, true, false, false, nil
			}
			// Filter over the two join cells alone — no tuple is built
			// (let alone cloned) unless the pair survives.
			pair := compact.Tuple{Cells: []compact.Cell{ltp.Cells[li], rtp.Cells[ri]}}
			var res filterOutcome
			qed, err = ctx.guard(ev, "pfunc", pairDocs, func() error {
				var ferr error
				res, ferr = filterTupleF(pair, pairInvolved, fp, lim, &batch)
				return ferr
			})
			if err != nil || qed {
				return joinMatch{}, false, false, qed, err
			}
			return joinMatch{j: j, sure: res.sure, repl: res.repl}, res.keep, res.fallback, false, nil
		}
		for i := start; i < end; i++ {
			if cut, cerr := ctx.cutCheck(); cerr != nil {
				return cerr
			} else if cut {
				ctx.noteUnprocessed(lt.Tuples[i:end])
				ncut.Add(1)
				break
			}
			ltp := lt.Tuples[i]
			if fps != nil {
				fps[i] = dx.aux.fpOf(ltp)
				if old, ok := prior.lookup(fps[i], ltp); ok {
					if rec == nil {
						for _, m := range old.sim {
							rtp := rt.Tuples[m.j]
							maybe := ltp.Maybe || rtp.Maybe || !m.sure
							rows[i] = append(rows[i], join(ltp, rtp, maybe, m.repl))
						}
						matches[i] = old.sim
						fbs[i] = old.fallbacks
						ev.fallback(ctx, int(old.fallbacks))
						reused++
						continue
					}
					// Corpus replay: remap the matches whose right tuple
					// survived the mutation, probe only the fresh right
					// tuples, and merge in ascending right-index order — the
					// order a full probe over the identical candidate set
					// would have produced, so the output is byte-identical.
					kept := make([]joinMatch, 0, len(old.sim))
					for _, m := range old.sim {
						if nj := rec.newJ[m.j]; nj >= 0 {
							kept = append(kept, joinMatch{j: nj, sure: m.sure, repl: m.repl})
						}
					}
					fb := old.fallbacks
					ltoks, lpinned, qed, gerr := leftTokens(ltp.Cells[li])
					if gerr != nil {
						return gerr
					}
					if qed {
						nq.Add(1)
						continue
					}
					gen++
					// An oversized left cell (nil ltoks) takes every fresh
					// right tuple; the replayed fallback count already
					// charged the oversize from the prior evaluation.
					cands := rec.fresh
					if ltoks != nil {
						cands = probeCandidates(freshIdx, ltoks, seen, gen)
					}
					for _, j := range cands {
						m, keep, fbp, qed, gerr := evalPairAt(ltp, lpinned, j)
						if gerr != nil {
							return gerr
						}
						if qed {
							nq.Add(1)
							continue
						}
						if fbp {
							fb++
						}
						if keep {
							kept = append(kept, m)
						}
					}
					sort.Slice(kept, func(a, b int) bool { return kept[a].j < kept[b].j })
					for _, m := range kept {
						rtp := rt.Tuples[m.j]
						maybe := ltp.Maybe || rtp.Maybe || !m.sure
						rows[i] = append(rows[i], join(ltp, rtp, maybe, m.repl))
					}
					matches[i] = kept
					fbs[i] = fb
					ev.fallback(ctx, int(fb))
					reused++
					continue
				}
			}
			batch.tuplesRecomputed++
			var fb int32
			gen++
			ltoks, lpinned, qed, gerr := leftTokens(ltp.Cells[li])
			if gerr != nil {
				return gerr
			}
			if qed {
				nq.Add(1)
				continue
			}
			var cands []int
			if ltoks == nil {
				// Oversized left cell: every right tuple is a candidate.
				// (Counted as a fallback only on the probe side — the index
				// side is built by whichever goroutine wins a benign race,
				// so counting there would vary with the worker count.)
				fb++
				cands = allRows(len(rt.Tuples))
			} else {
				cands = probeCandidates(idx, ltoks, seen, gen)
			}
			for _, j := range cands {
				m, keep, fbp, qed, gerr := evalPairAt(ltp, lpinned, j)
				if gerr != nil {
					return gerr
				}
				if qed {
					nq.Add(1)
					continue
				}
				if fbp {
					fb++
				}
				if !keep {
					continue
				}
				rtp := rt.Tuples[j]
				maybe := ltp.Maybe || rtp.Maybe || !m.sure
				rows[i] = append(rows[i], join(ltp, rtp, maybe, m.repl))
				if matches != nil {
					matches[i] = append(matches[i], m)
				}
			}
			if fb > 0 {
				ev.fallback(ctx, int(fb))
			}
			if fbs != nil {
				fbs[i] = fb
			}
		}
		dx.noteReused(&batch, reused)
		ev.recompute(batch.tuplesRecomputed)
		return nil
	}
	if err := ctx.parallelChunksSized(len(lt.Tuples), minChunkProbe, probe); err != nil {
		return nil, err
	}
	if n := nq.Load(); n > 0 {
		return nil, quarantineErr("pfunc", n)
	}
	for _, r := range rows {
		out.Tuples = append(out.Tuples, r...)
	}
	if ncut.Load() == 0 {
		dx.finish(lt, func(i int) deltaOut {
			o := deltaOut{sim: matches[i]}
			if fbs != nil {
				o.fallbacks = fbs[i]
			}
			return o
		})
	}
	return out, nil
}

// simRecon aligns the right table a displaced memo was built against
// with the current right table after a corpus re-evaluation. Alignment
// is whole-tuple structural identity — spans compare by document
// pointer, and unchanged documents keep their handles across a store
// mutation, so exactly the tuples sourced from unchanged documents
// align (updated documents get fresh handles and read as fresh tuples).
// Both views preserve relative document order, so the mapping is
// monotonic; the probe loop still sorts merged matches for safety.
type simRecon struct {
	// newJ maps an old right index to its current one, -1 when the tuple
	// is gone (its document was updated or removed).
	newJ []int
	// fresh lists current right indices with no aligned predecessor
	// (added or updated documents), ascending.
	fresh []int
}

// buildSimRecon pairs old and new right tuples greedily in order within
// fingerprint buckets (duplicates pair first-to-first; any consistent
// pairing is valid — aligned tuples are structurally interchangeable).
// Returns nil when the tables cannot correspond.
func buildSimRecon(oldRt, newRt *compact.Table) *simRecon {
	if oldRt == nil || len(oldRt.Cols) != len(newRt.Cols) {
		return nil
	}
	rec := &simRecon{newJ: make([]int, len(oldRt.Tuples))}
	buckets := make(map[uint64][]int, len(oldRt.Tuples))
	for j, tp := range oldRt.Tuples {
		rec.newJ[j] = -1
		h := tp.Fingerprint()
		buckets[h] = append(buckets[h], j)
	}
	for j, tp := range newRt.Tuples {
		h := tp.Fingerprint()
		aligned := false
		bs := buckets[h]
		for k, oj := range bs {
			if oldRt.Tuples[oj].StructuralEq(tp) {
				rec.newJ[oj] = j
				buckets[h] = append(bs[:k:k], bs[k+1:]...)
				aligned = true
				break
			}
		}
		if !aligned {
			rec.fresh = append(rec.fresh, j)
		}
	}
	return rec
}
