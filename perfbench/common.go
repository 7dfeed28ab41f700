package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"time"

	"iflex/internal/alog"
	"iflex/internal/assistant"
	"iflex/internal/compact"
	"iflex/internal/corpus"
	"iflex/internal/engine"
	"iflex/internal/text"
)

// maxSteps bounds a session's dialogue; hitting it is a failure.
const maxSteps = 300

// converge steps sess until the assistant has no more questions,
// answering from oracle, and returns the latency of the first step and
// of each later one. A degraded step is a failed operation; a session
// still asking after maxSteps fails the run's checks.
func converge(sess *assistant.Session, oracle assistant.Oracle, tr *tracer, rep *report) (time.Duration, []time.Duration, error) {
	var first time.Duration
	var steps []time.Duration
	var answers []assistant.Answer
	for n := 0; ; n++ {
		if n == maxSteps {
			return 0, nil, checkFailed("session did not converge in %d steps", maxSteps)
		}
		end := tr.begin("assistant.step")
		t := time.Now()
		r, err := sess.Step(answers)
		d := time.Since(t)
		end()
		if err != nil {
			return 0, nil, fmt.Errorf("step %d: %w", n, err)
		}
		rep.op(r.Degraded != nil)
		if n == 0 {
			first = d
		} else {
			steps = append(steps, d)
		}
		if r.Done {
			return first, steps, nil
		}
		answers = answers[:0]
		for _, q := range r.Questions {
			answers = append(answers, oracle.Answer(q))
		}
	}
}

// scratchFinal runs prog from scratch over env, asking nothing, and
// returns its final table: the reference a refreshed result must equal.
func scratchFinal(env *engine.Env, prog *alog.Program, workers int) (*compact.Table, error) {
	sess := assistant.NewSession(env, prog, assistant.NewMapOracle(nil),
		assistant.Config{Strategy: assistant.Sequential{}, Workers: workers})
	defer sess.Close()
	res, err := sess.Finalize(0)
	if err != nil {
		return nil, fmt.Errorf("from-scratch run: %w", err)
	}
	return res.Final, nil
}

// mutatePct is the share of pages, in percent, each refresh replaces.
const mutatePct = 1

// page is one generated record page: its markup and parsed document.
type page struct {
	raw string
	doc *text.Document
}

// corpusPages indexes a generated corpus's pages by document id.
func corpusPages(c *corpus.Corpus) map[string]page {
	out := map[string]page{}
	for _, t := range c.Tables {
		for i, d := range t.Docs {
			out[d.ID()] = page{raw: t.Raw[i], doc: d}
		}
	}
	return out
}

// sortedIDs returns a corpus's document ids in table-name then record
// order, the order pages are ingested in.
func sortedIDs(c *corpus.Corpus) []string {
	names := make([]string, 0, len(c.Tables))
	for name := range c.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	var ids []string
	for _, name := range names {
		for _, d := range c.Tables[name].Docs {
			ids = append(ids, d.ID())
		}
	}
	return ids
}

// pickPages draws mutatePct% of ids (at least one) by a seeded hash;
// the same seed draws the same pages.
func pickPages(ids []string, seed int64) []string {
	type keyed struct {
		h  uint64
		id string
	}
	ks := make([]keyed, len(ids))
	for i, id := range ids {
		h := fnv.New64a()
		h.Write([]byte(id))
		ks[i] = keyed{h.Sum64() ^ splitmix(seed, 0), id}
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].h != ks[j].h {
			return ks[i].h < ks[j].h
		}
		return ks[i].id < ks[j].id
	})
	k := (len(ids)*mutatePct + 99) / 100
	out := make([]string, k)
	for i := range out {
		out[i] = ks[i].id
	}
	sort.Strings(out)
	return out
}

// memCounters is the part of runtime.MemStats the runtime.* metrics use.
type memCounters struct {
	totalAlloc, numGC, pauseNs uint64
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{ms.TotalAlloc, uint64(ms.NumGC), ms.PauseTotalNs}
}

// addSince adds the allocation and GC work between a and b to m.
func (m *memCounters) addSince(a, b memCounters) {
	m.totalAlloc += b.totalAlloc - a.totalAlloc
	m.numGC += b.numGC - a.numGC
	m.pauseNs += b.pauseNs - a.pauseNs
}

// setRuntimeMetrics reports the allocation and GC work between a and b
// per unit of work.
func setRuntimeMetrics(rep *report, a, b memCounters, units int) {
	if units < 1 {
		units = 1
	}
	u := float64(units)
	rep.layer["runtime.alloc_mb"] = float64(b.totalAlloc-a.totalAlloc) / (1 << 20) / u
	rep.layer["runtime.gc_cycles"] = float64(b.numGC-a.numGC) / u
	rep.layer["runtime.gc_pause_s"] = float64(b.pauseNs-a.pauseNs) / 1e9 / u
}

// setTraceMetrics writes the span file and reports the tracing
// overhead: traced minus untraced wall time per unit of work.
func setTraceMetrics(cfg config, rep *report, tr *tracer, name string, traced, untraced float64) error {
	path := fmt.Sprintf("%s/spans-%s-seed%d.jsonl", cfg.work, name, cfg.seed)
	n, err := tr.write(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	tr.printSelf(cfg.out)
	rep.layer["trace.spans"] = float64(n)
	rep.layer["trace.overhead_s"] = traced - untraced
	fmt.Fprintf(cfg.out, "spans: %d written to %s; tracing overhead %.4fs per unit (traced %.4fs, untraced %.4fs)\n",
		n, path, traced-untraced, traced, untraced)
	return nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// engineTotals sums the engine counters the per-layer metrics use.
type engineTotals struct {
	built, fallbacks, nodes, hits         int64
	reused, recomputed, priorHits         int64
	memoHits, memoMisses, granted, denied int64
	cacheBytes                            int64 // a gauge: summed, then averaged
}

// add adds sign × the snapshot's counters.
func (t *engineTotals) add(s engine.StatsSnapshot, sign int64) {
	t.built += sign * s.TuplesBuilt
	t.fallbacks += sign * s.LimitFallbacks
	t.nodes += sign * s.NodesEvaluated
	t.hits += sign * s.CacheHits
	t.reused += sign * s.TuplesReused
	t.recomputed += sign * s.TuplesRecomputed
	t.priorHits += sign * s.CorpusPriorHits
	t.memoHits += sign * s.FeatureMemoHits
	t.memoMisses += sign * s.FeatureMemoMiss
	t.granted += sign * s.PoolSlotsGranted
	t.denied += sign * s.PoolSlotsDenied
	t.cacheBytes += sign * s.CacheBytes
}

// set reports the totals per unit (n units; the cache-size gauge was
// summed over gauges samples), with the rates computed as
// engine.Stats.Snapshot computes them.
func (t *engineTotals) set(rep *report, n float64, gauges int) {
	rep.layer["engine.tuples_built"] = float64(t.built) / n
	rep.layer["engine.limit_fallbacks"] = float64(t.fallbacks) / n
	rep.layer["engine.nodes_evaluated"] = float64(t.nodes) / n
	rep.layer["engine.tuples_recomputed"] = float64(t.recomputed) / n
	rep.layer["engine.corpus_prior_hits"] = float64(t.priorHits) / n
	rep.layer["engine.cache_hit_rate"] = ratio(float64(t.hits), float64(t.nodes+t.hits))
	rep.layer["engine.pool_utilization"] = ratio(float64(t.granted), float64(t.granted+t.denied))
	rep.layer["engine.delta_reuse_rate"] = ratio(float64(t.reused), float64(t.reused+t.recomputed))
	rep.layer["feature.memo_hit_rate"] = ratio(float64(t.memoHits), float64(t.memoHits+t.memoMisses))
	rep.layer["engine.cache_bytes"] = ratio(float64(t.cacheBytes), float64(gauges))
}
