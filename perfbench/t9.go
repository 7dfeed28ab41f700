package main

import (
	"fmt"
	"runtime"
	"time"

	"iflex/internal/alog"
	"iflex/internal/assistant"
	"iflex/internal/corpus"
	"iflex/internal/engine"
	"iflex/internal/text"
)

// The t9-assist workload: one client runs library-path Simulation
// sessions on T9 (the approximate title join Amazon × Barnes) back to
// back, with Workers = GOMAXPROCS. Session k runs over seeded in-memory
// Books corpus k mod t9Corpora, generated afresh, so each corpus's
// session repeats every t9Corpora sessions and the latencies are the
// least of its repeats (bestOf). After each converged session the
// client replaces 1% of the pages in memory t9Refreshes times,
// re-evaluating after each (the in-memory twin of live-books'
// store-backed refresh).

const (
	t9Records = 500 // records per table
	// t9Corpora is how many corpora the sessions cycle through. Every
	// corpus runs at least once, even past the time limit; the per-seed
	// output counts (result_tuples, questions) come from them. A 30 s
	// run repeats each about three times.
	t9Corpora = 4
	// t9Refreshes is the number of in-memory refreshes after each
	// session. A few refreshes in a session cost two to three times the
	// rest, at the same places in every repeat; with ten a session
	// refresh_p90_s sat on the edge between the two groups and jumped
	// from seed to seed. Twenty give 80 operations, 8 beyond the p90.
	t9Refreshes = 20
)

// t9Result is one t9-assist session.
type t9Result struct {
	corpus                        int // index of the session's corpus
	gen, first, session, finalize time.Duration
	steps, refreshes              []time.Duration
	tuples, questions, iterations int
	truth                         int
	// final holds the engine counters when the session finalized (the
	// exact-repeat counts); stats holds them after the refreshes.
	final, stats engine.StatsSnapshot
	// check, set on session 0, compares its refreshed result with a
	// from-scratch run. It runs after the timed loop, once the measured
	// session is closed and the peak memory read.
	check func() error
}

func runT9Assist(cfg config, rep *report) error {
	task, err := corpus.TaskByID("T9")
	if err != nil {
		return err
	}
	if !cfg.trace {
		beforeTiming()
		outs, err := t9Loop(cfg, task, nil, cfg.seconds, t9Corpora, rep)
		if err != nil {
			return err
		}
		rep.e2e["peak_rss_mb"] = peakRSSMB()
		if err := outs[0].check(); err != nil {
			return err
		}
		setT9EndToEnd(cfg, rep, outs)
		return nil
	}
	// Traced run: an untraced pass and a traced pass over the same
	// sessions, half the time each; their difference is the overhead.
	m0 := readMem()
	base, err := t9Loop(cfg, task, nil, cfg.seconds/2, 1, rep)
	if err != nil {
		return err
	}
	setRuntimeMetrics(rep, m0, readMem(), len(base))
	if err := base[0].check(); err != nil {
		return err
	}
	tr := newTracer()
	outs, err := t9Loop(cfg, task, tr, cfg.seconds/2, 1, rep)
	if err != nil {
		return err
	}
	setT9Layers(rep, tr, outs)
	n := min(len(base), len(outs))
	var traced, untraced time.Duration
	for i := 0; i < n; i++ {
		traced += outs[i].session
		untraced += base[i].session
	}
	return setTraceMetrics(cfg, rep, tr, "t9-assist", traced.Seconds()/float64(n), untraced.Seconds()/float64(n))
}

// t9Loop runs sessions 0, 1, ... until budget has passed and at least
// minSessions have completed.
func t9Loop(cfg config, task *corpus.Task, tr *tracer, budget time.Duration, minSessions int, rep *report) ([]*t9Result, error) {
	var outs []*t9Result
	start := time.Now()
	for k := 0; k < minSessions || time.Since(start) < budget; k++ {
		var simBefore int64
		if tr != nil {
			simBefore = tr.call("similarity.call").Count
		}
		out, err := t9Session(task, cfg.seed, k, tr, rep)
		if err != nil {
			return nil, err
		}
		outs = append(outs, out)
		pre := "t9/" + fmt.Sprint(out.corpus)
		rep.count(pre, "result_tuples", int64(out.tuples))
		rep.count(pre, "questions", int64(out.questions))
		rep.count(pre, "engine.tuples_built", out.final.TuplesBuilt)
		rep.count(pre, "engine.func_calls", out.final.FuncCalls)
		rep.count(pre, "engine.verify_calls", out.final.VerifyCalls)
		rep.count(pre, "engine.refine_calls", out.final.RefineCalls)
		if tr != nil {
			rep.count(pre, "similarity.calls", tr.call("similarity.call").Count-simBefore)
		}
	}
	return outs, nil
}

// t9Session runs session k: generate its corpus, step it to convergence
// answering from the task oracle, finalize, check the result covers the
// ground truth, then refresh it t9Refreshes times.
func t9Session(task *corpus.Task, seed int64, k int, tr *tracer, rep *report) (*t9Result, error) {
	out := &t9Result{corpus: k % t9Corpora}
	sseed := subSeed(seed, uint64(out.corpus))
	t0 := time.Now()
	c := task.Generate(t9Records, sseed)
	out.gen = time.Since(t0)
	truth := task.Truth(c)
	env := task.Env(c)
	if tr != nil {
		tr.instrumentEnv(env)
	}
	prog, err := alog.Parse(task.Program)
	if err != nil {
		return nil, err
	}
	oracle := task.Oracle()
	workers := runtime.GOMAXPROCS(0)

	// Each repeat starts from a collected heap, so its garbage
	// collections fall at the same points of its work.
	runtime.GC()
	start := time.Now()
	sess := assistant.NewSession(env, prog, oracle, assistant.Config{
		Strategy:   assistant.Simulation{},
		SubsetSeed: uint64(sseed),
		Workers:    workers,
	})
	defer sess.Close()
	out.first, out.steps, err = converge(sess, oracle, tr, rep)
	if err != nil {
		return nil, fmt.Errorf("t9 session %d: %w", k, err)
	}
	end := tr.begin("assistant.finalize")
	t := time.Now()
	res, err := sess.Finalize(0)
	out.finalize = time.Since(t)
	end()
	if err != nil {
		return nil, fmt.Errorf("t9 session %d finalize: %w", k, err)
	}
	out.session = time.Since(start)
	rep.op(res.Degraded != nil)
	if miss := corpus.UncoveredTruth(res.Final, truth); len(miss) > 0 {
		return nil, checkFailed("t9 session %d: %d ground-truth tuples missing from the result, e.g. %q", k, len(miss), miss[0])
	}
	out.final = sess.StatsSnapshot()
	out.tuples, out.questions = res.FinalTuples, res.QuestionsAsked
	out.iterations, out.truth = len(res.Iterations), len(truth)

	// In-memory refreshes: replace 1% of the pages with pages of the
	// same ids from a corpus regenerated at a derived seed.
	ids := sortedIDs(c)
	cur := map[string]*text.Document{}
	for id, p := range corpusPages(c) {
		cur[id] = p.doc
	}
	bind := func(env *engine.Env) {
		for _, name := range task.Tables {
			docs := make([]*text.Document, 0, len(c.Tables[name].Docs))
			for _, d := range c.Tables[name].Docs {
				docs = append(docs, cur[d.ID()])
			}
			env.AddDocTable(name, "x", docs)
		}
	}
	var last *assistant.LiveUpdate
	runtime.GC()
	for j := 0; j < t9Refreshes; j++ {
		rseed := subSeed(sseed, uint64(j+1))
		regen := corpusPages(task.Generate(t9Records, rseed))
		picked := pickPages(ids, rseed)
		for _, id := range picked {
			cur[id] = regen[id].doc
		}
		endR := tr.begin("refresh")
		t := time.Now()
		endA := tr.begin("assistant.apply_delta")
		sess.ApplyCorpusDelta(&engine.CorpusDelta{Updated: picked}, bind)
		endA()
		endE := tr.begin("assistant.reevaluate")
		up, err := sess.Reevaluate(0)
		endE()
		d := time.Since(t)
		endR()
		if err != nil {
			return nil, fmt.Errorf("t9 session %d refresh %d: %w", k, j, err)
		}
		rep.op(up.Final.Degraded != nil)
		out.refreshes = append(out.refreshes, d)
		last = up
	}
	out.stats = sess.StatsSnapshot()
	if k == 0 {
		refined, want := sess.Program().Clone(), last.Final.Canonical()
		out.check = func() error {
			env := engine.NewEnv()
			bind(env)
			got, err := scratchFinal(env, refined, workers)
			if err != nil {
				return fmt.Errorf("t9 session %d: %w", k, err)
			}
			if got.Canonical() != want {
				return checkFailed("t9 session %d: refreshed result differs from a from-scratch run", k)
			}
			return nil
		}
	}
	return out, nil
}

func setT9EndToEnd(cfg config, rep *report, outs []*t9Result) {
	var gen []float64
	var first, step, sess, refresh bestOf
	var tuples, questions []float64
	for _, o := range outs {
		c := fmt.Sprint(o.corpus)
		gen = append(gen, o.gen.Seconds())
		first.add(c, o.first)
		sess.add(c, o.session)
		for i, d := range o.steps {
			step.add(fmt.Sprintf("%s/%d", c, i), d)
		}
		for j, d := range o.refreshes {
			refresh.add(fmt.Sprintf("%s/%d", c, j), d)
		}
		if o == outs[o.corpus] {
			tuples = append(tuples, float64(o.tuples))
			questions = append(questions, float64(o.questions))
		}
	}
	ls := []latencies{
		{name: "setup (corpus generation)", xs: gen},
		first.latencies("first result"),
		step.latencies("step"),
		sess.latencies("session"),
		refresh.latencies("refresh"),
	}
	for _, l := range ls {
		fmt.Fprintf(cfg.out, "  %s\n", l.describe())
	}
	fmt.Fprintf(cfg.out, "  %d sessions over %d corpora; every result covers its ground truth\n", len(outs), len(tuples))
	rep.e2e["setup_s"] = median(gen)
	rep.e2e["first_result_s"] = median(ls[1].xs)
	rep.e2e["step_p50_s"] = quantile(ls[2].xs, 0.5)
	rep.e2e["step_p90_s"] = quantile(ls[2].xs, 0.9)
	rep.e2e["session_s"] = median(ls[3].xs)
	rep.e2e["sessions_per_s"] = 1 / mean(ls[3].xs)
	rep.e2e["refresh_p50_s"] = quantile(ls[4].xs, 0.5)
	rep.e2e["refresh_p90_s"] = quantile(ls[4].xs, 0.9)
	rep.e2e["result_tuples"] = mean(tuples)
	rep.e2e["questions"] = mean(questions)
	rep.e2e["success_rate"] = 1 - ratio(float64(rep.failed), float64(rep.attempted))
}

// setT9Layers reports the per-layer metrics of a traced t9-assist pass.
func setT9Layers(rep *report, tr *tracer, outs []*t9Result) {
	n := float64(len(outs))
	var steps int
	var stepT, finT, iters, tuples, truth float64
	var et engineTotals
	for _, o := range outs {
		steps += len(o.steps) + 1
		stepT += o.first.Seconds()
		for _, d := range o.steps {
			stepT += d.Seconds()
		}
		finT += o.finalize.Seconds()
		iters += float64(o.iterations)
		tuples += float64(o.tuples)
		truth += float64(o.truth)
		et.add(o.stats, 1)
	}
	setLibraryLayers(rep, tr, n)
	et.set(rep, n, len(outs))
	rep.layer["assistant.step_s"] = stepT / float64(steps)
	rep.layer["assistant.iterations"] = iters / n
	rep.layer["assistant.finalize_s"] = finT / n
	rep.layer["compact.superset_ratio"] = ratio(tuples, truth)
}

// setLibraryLayers reports the metrics the Env wrappers and the
// library-call spans give, per unit of n.
func setLibraryLayers(rep *report, tr *tracer, n float64) {
	self, _ := tr.self("assistant.step", "assistant.finalize", "assistant.apply_delta", "assistant.reevaluate")
	rep.layer["engine.self_s"] = self / n
	rep.layer["assistant.apply_delta_s"] = spanMean(tr, "assistant.apply_delta")
	rep.layer["assistant.reevaluate_s"] = spanMean(tr, "assistant.reevaluate")
	v, r, sim := tr.call("feature.verify"), tr.call("feature.refine"), tr.call("similarity.call")
	rep.layer["feature.verify_s"] = float64(v.Ns) / 1e9 / n
	rep.layer["feature.refine_s"] = float64(r.Ns) / 1e9 / n
	rep.layer["feature.verify_calls"] = float64(v.Count) / n
	rep.layer["feature.refine_calls"] = float64(r.Count) / n
	rep.layer["similarity.calls"] = float64(sim.Count) / n
	rep.layer["similarity.busy_s"] = float64(sim.Ns) / 1e9 / n
	rep.layer["similarity.match_rate"] = ratio(float64(tr.simTrue.Load()), float64(sim.Count))
	idx, post := tr.call("store.index"), tr.call("store.postings")
	rep.layer["store.index_calls"] = float64(idx.Count) / n
	rep.layer["store.index_s"] = float64(idx.Ns) / 1e9 / n
	rep.layer["store.postings_calls"] = float64(post.Count) / n
	rep.layer["store.postings_s"] = float64(post.Ns) / 1e9 / n
}

// spanMean is the mean duration in seconds of the closed spans named name.
func spanMean(tr *tracer, name string) float64 {
	var xs []float64
	for _, s := range tr.spansNamed(name) {
		xs = append(xs, float64(s.End-s.Start)/1e9)
	}
	return mean(xs)
}
