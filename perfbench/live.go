package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"iflex/internal/alog"
	"iflex/internal/assistant"
	"iflex/internal/corpus"
	"iflex/internal/engine"
	"iflex/internal/markup"
	"iflex/internal/store"
	"iflex/internal/text"
)

// The live-books workload: T9 over an on-disk DiskStore of 1000 Books
// pages, ingested in set-up and opened with a resident budget of a
// quarter of the corpus's resident estimate, so pages are released and
// reloaded. One Sequential session converges in set-up. The timed loop
// then repeats: put 1% of the pages with regenerated content, commit
// durably (every fsync on), fold the delta into the session and
// re-evaluate. A run does this liveSetups times, each with a quarter of
// the time, cycling through liveCorpora corpora, so that every figure,
// not only set-up's, averages over several corpora, and every store's
// refreshed result is checked. A corpus's later set-ups repeat its first
// one operation for operation (the same dialogues and page changes, as
// many of them), and each operation's latency is the least of its
// repeats (bestOf).

const (
	liveRecords = 500 // records per table: 1000 pages
	// liveSetups is how many times set-up runs; setup_s is their
	// median, and session_s and the output counts come from their
	// converging sessions.
	liveSetups = 4
	// liveCorpora is how many corpora the set-ups cycle through.
	liveCorpora = 2
	// liveDialogueShare is the share of the run spent on more question
	// dialogues (steps without the final full run), which sample
	// first-result and step latency. The four set-up sessions alone
	// give about 24 steps a run, and their first_result_s and
	// step_p90_s spread by 0.51 and 0.54 over five seeds; with a 35%
	// share, by at most 0.09 and 0.06 in two five-seed probes, while
	// refresh_p50_s spread about as much as with the whole run (0.13
	// against 0.11).
	liveDialogueShare = 0.35
)

// liveEnv is one set-up: the store, its session and what it measured.
type liveEnv struct {
	dir   string
	st    *store.DiskStore
	sess  *assistant.Session
	task  *corpus.Task
	ids   []string
	pages map[string]string // live page markup by id
	seed  uint64            // corpus and subset seed

	ingest, first, session   time.Duration
	steps                    []time.Duration
	tuples, questions, truth int
	built                    int64

	// commits counts the acknowledged commits; last is the latest
	// refreshed result.
	commits int
	last    *assistant.LiveUpdate
}

// bindStore rebuilds the task's tables from the store's live view;
// document ids carry the table prefix.
func bindStore(st *store.DiskStore) func(*engine.Env) {
	return func(env *engine.Env) {
		var am, bn []*text.Document
		for _, d := range st.Docs() {
			if strings.HasPrefix(d.ID(), "amazon") {
				am = append(am, d)
			} else {
				bn = append(bn, d)
			}
		}
		env.AddDocTable("Amazon", "x", am)
		env.AddDocTable("Barnes", "x", bn)
	}
}

// storeEnv is an Env over the store with its index seams bound.
func storeEnv(st *store.DiskStore) *engine.Env {
	env := engine.NewEnv()
	bindStore(st)(env)
	env.DocIndex = st
	env.Postings = st
	return env
}

// setupLive generates set-up k's corpus, ingests it into a fresh store
// under dir, opens it under the resident budget, and converges a
// Sequential session over it.
func setupLive(cfg config, dir string, k int, tr *tracer, rep *report) (*liveEnv, error) {
	task, err := corpus.TaskByID("T9")
	if err != nil {
		return nil, err
	}
	seed := subSeed(cfg.seed, uint64(300+k%liveCorpora))
	e := &liveEnv{dir: dir, task: task, pages: map[string]string{}, seed: uint64(seed)}
	c := task.Generate(liveRecords, seed)
	e.ids = sortedIDs(c)
	pages := corpusPages(c)
	for id, p := range pages {
		e.pages[id] = p.raw
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	t := time.Now()
	if err := ingest(dir, e.ids, pages, true); err != nil {
		return nil, err
	}
	e.ingest = time.Since(t)

	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	budget := (man.TextBytes*14 + 512*int64(man.Docs)) / 4
	if e.st, err = openStore(dir, budget, tr); err != nil {
		return nil, err
	}

	env := storeEnv(e.st)
	if tr != nil {
		tr.instrumentEnv(env)
	}
	oracle := task.Oracle()
	runtime.GC() // as in t9Session
	start := time.Now()
	e.sess = assistant.NewSession(env, alog.MustParse(task.Program), oracle, assistant.Config{
		Strategy:   assistant.Sequential{},
		SubsetSeed: e.seed,
		Workers:    runtime.GOMAXPROCS(0),
	})
	e.first, e.steps, err = converge(e.sess, oracle, nil, rep)
	if err != nil {
		e.close()
		return nil, fmt.Errorf("live-books converge: %w", err)
	}
	res, err := e.sess.Finalize(0)
	if err != nil {
		return nil, fmt.Errorf("live-books converge finalize: %w", err)
	}
	e.session = time.Since(start)
	rep.op(res.Degraded != nil)
	truth := task.Truth(c)
	if miss := corpus.UncoveredTruth(res.Final, truth); len(miss) > 0 {
		return nil, checkFailed("live-books: %d ground-truth tuples missing from the converged result", len(miss))
	}
	e.tuples, e.questions, e.truth = res.FinalTuples, res.QuestionsAsked, len(truth)
	e.built = e.sess.StatsSnapshot().TuplesBuilt
	return e, nil
}

func readManifest(dir string) (store.Manifest, error) {
	st, err := store.Open(dir, store.OpenOptions{})
	if err != nil {
		return store.Manifest{}, err
	}
	defer st.Close()
	return st.Manifest(), nil
}

// openStore opens the store with every fsync on; a traced run routes
// the store's writes through the timing FS.
func openStore(dir string, budget int64, tr *tracer) (*store.DiskStore, error) {
	opts := store.OpenOptions{ResidentBudget: budget}
	if tr != nil {
		opts.FS = timedFS{FS: store.RealFS(true), t: tr}
	}
	return store.Open(dir, opts)
}

func (e *liveEnv) close() {
	if e.sess != nil {
		e.sess.Close()
	}
	_ = e.st.Close()
	_ = os.RemoveAll(e.dir)
}

// liveCycles is what passes of refresh cycles measured, summed over
// the set-ups they ran on.
type liveCycles struct {
	refresh     bestOf // keyed by corpus and cycle
	commits     int
	putBytes    int64
	loads, rels int64
	// engine sums the sessions' engine counters over the passes; its
	// cache size sums each session's value at the end of its pass.
	engine engineTotals
	passes int
}

// liveLoop runs refresh cycles first, first+1, ... on set-up k until
// budget has passed (at least one), or, with n > 0, runs n of them,
// adding what it measured to lc. It returns how many it ran.
func liveLoop(e *liveEnv, k int, tr *tracer, first, n int, budget time.Duration, rep *report, lc *liveCycles) (int, error) {
	bind := bindStore(e.st)
	loads0, rels0 := e.st.Loads(), e.st.Releases()
	before := e.sess.StatsSnapshot()
	start := time.Now()
	j := first
	for ; j == first || (n > 0 && j < first+n) || (n == 0 && time.Since(start) < budget); j++ {
		rseed := subSeed(int64(e.seed), uint64(400+j))
		regen := corpusPages(e.task.Generate(liveRecords, rseed))
		picked := pickPages(e.ids, rseed)

		var fsyncs int64
		if tr != nil {
			fsyncs = tr.call("store.fsync").Count + tr.call("store.syncdir").Count
		}
		endR := tr.begin("refresh")
		t := time.Now()
		m, err := e.st.BeginMutation()
		if err != nil {
			return 0, err
		}
		for _, id := range picked {
			if err := m.Put(id, regen[id].raw); err != nil {
				return 0, err
			}
		}
		endC := tr.begin("store.commit")
		delta, err := m.Commit()
		endC()
		rep.op(err != nil)
		if err != nil {
			return 0, fmt.Errorf("commit %d: %w", j, err)
		}
		e.commits++
		lc.commits++
		endA := tr.begin("assistant.apply_delta")
		e.sess.ApplyCorpusDelta(&engine.CorpusDelta{Added: delta.Added, Updated: delta.Updated, Removed: delta.Removed}, bind)
		endA()
		endE := tr.begin("assistant.reevaluate")
		up, err := e.sess.Reevaluate(0)
		endE()
		d := time.Since(t)
		endR()
		if err != nil {
			return 0, fmt.Errorf("refresh %d: %w", j, err)
		}
		rep.op(up.Final.Degraded != nil)
		lc.refresh.add(fmt.Sprintf("%d/%d", k%liveCorpora, j), d)
		e.last = up
		for _, id := range picked {
			e.pages[id] = regen[id].raw
			lc.putBytes += int64(len(regen[id].raw))
		}
		pre := fmt.Sprintf("live/%d/%d", k%liveCorpora, j)
		rep.count(pre, "result_tuples", int64(up.FinalTuples))
		rep.count(pre, "engine.tuples_recomputed", up.TuplesRecomputed)
		if tr != nil {
			rep.count(pre, "store.fsyncs", tr.call("store.fsync").Count+tr.call("store.syncdir").Count-fsyncs)
		}
	}
	after := e.sess.StatsSnapshot()
	cache := lc.engine.cacheBytes + after.CacheBytes
	lc.engine.add(before, -1)
	lc.engine.add(after, 1)
	lc.engine.cacheBytes = cache
	lc.passes++
	e.st.TrimWait()
	lc.loads += e.st.Loads() - loads0
	lc.rels += e.st.Releases() - rels0
	return j - first, nil
}

// checkLive closes the measured session and compares its last
// incremental result with a from-scratch run of the refined program over
// the final store, then reopens the store and checks every acknowledged
// commit is there: the generation equals the commits made and the live
// pages are the ones last put. It returns the reopen time.
func checkLive(e *liveEnv) (time.Duration, error) {
	refined, want := e.sess.Program().Clone(), e.last.Final.Canonical()
	e.sess.Close()
	e.sess = nil
	got, err := scratchFinal(storeEnv(e.st), refined, runtime.GOMAXPROCS(0))
	if err != nil {
		return 0, err
	}
	if got.Canonical() != want {
		return 0, checkFailed("incremental result differs from a from-scratch run over the final store")
	}
	if err := e.st.Close(); err != nil {
		return 0, err
	}
	t := time.Now()
	st, err := store.Open(e.dir, store.OpenOptions{})
	open := time.Since(t)
	if err != nil {
		return 0, checkFailed("reopening the store: %v", err)
	}
	e.st = st
	if st.Generation() != e.commits {
		return 0, checkFailed("reopened store is at generation %d after %d commits", st.Generation(), e.commits)
	}
	if st.Len() != len(e.pages) {
		return 0, checkFailed("reopened store has %d live pages, want %d", st.Len(), len(e.pages))
	}
	for _, d := range st.Docs() {
		raw, ok := e.pages[d.ID()]
		if !ok {
			return 0, checkFailed("reopened store has unexpected page %q", d.ID())
		}
		doc, err := markup.Parse(d.ID(), raw)
		if err != nil {
			return 0, err
		}
		if d.Text() != doc.Text() {
			return 0, checkFailed("page %q after reopen is not the content last committed", d.ID())
		}
	}
	return open, nil
}

// liveRun is what a live-books run measured over its set-ups.
type liveRun struct {
	setups, ingests, reopens, spaceAmps []float64
	conv                                liveConverge
	// lc holds the measured refresh cycles: untraced in an untraced run,
	// traced in a traced one, whose untraced cycles are in base.
	lc, base liveCycles
	mem      memCounters // allocation over the base passes
	peak     float64     // highest resident peak of a refresh loop, MiB
	// dialogues and cycles hold, by corpus, how many dialogues and
	// refresh cycles its first set-up ran; its later ones repeat them.
	dialogues, cycles [liveCorpora]int
}

func runLiveBooks(cfg config, rep *report) error {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		tr.on.Store(false)
	}
	r := &liveRun{}
	for k := 0; k < liveSetups; k++ {
		if err := r.setup(cfg, k, tr, rep); err != nil {
			return err
		}
	}
	fmt.Fprintf(cfg.out, "  %d durable commits over %d stores; every incremental result matches a from-scratch run; every reopened store holds its commits\n",
		r.lc.commits+r.base.commits, liveSetups)
	if !cfg.trace {
		setLiveEndToEnd(cfg, rep, r)
		return nil
	}
	setRuntimeMetrics(rep, memCounters{}, r.mem, r.base.refresh.n)
	setLiveLayers(rep, tr, r)
	return setTraceMetrics(cfg, rep, tr, "live-books", mean(r.lc.refresh.seconds()), mean(r.base.refresh.seconds()))
}

// setup runs set-up k (timed), then its share of the run: dialogues and
// refresh cycles untraced, or an untraced and a traced pass of refresh
// cycles; then checks its outputs and removes its store.
func (r *liveRun) setup(cfg config, k int, tr *tracer, rep *report) error {
	c := k % liveCorpora
	start := time.Now()
	e, err := setupLive(cfg, filepath.Join(cfg.work, fmt.Sprintf("live-store-%d", k)), k, tr, rep)
	if err != nil {
		return err
	}
	r.setups = append(r.setups, time.Since(start).Seconds())
	defer e.close()
	r.ingests = append(r.ingests, e.ingest.Seconds())
	r.conv.add(e, c, k < liveCorpora)
	unit := fmt.Sprintf("live/corpus%d", c)
	rep.count(unit, "result_tuples", int64(e.tuples))
	rep.count(unit, "questions", int64(e.questions))
	rep.count(unit, "engine.tuples_built", e.built)

	share := time.Duration(float64(cfg.seconds) / liveSetups)
	if !cfg.trace {
		dialogues := time.Duration(float64(share) * liveDialogueShare)
		n, err := liveDialogues(cfg, e, c, r.dialogues[c], dialogues, &r.conv, rep)
		if err != nil {
			return err
		}
		r.dialogues[c] = n
		beforeTiming()
		if r.cycles[c], err = liveLoop(e, k, nil, 0, r.cycles[c], share-dialogues, rep, &r.lc); err != nil {
			return err
		}
		r.peak = max(r.peak, peakRSSMB())
	} else {
		m0 := readMem()
		n, err := liveLoop(e, k, nil, 0, 0, share/2, rep, &r.base)
		if err != nil {
			return err
		}
		r.mem.addSince(m0, readMem())
		tr.on.Store(true)
		_, err = liveLoop(e, k, tr, n, 0, share/2, rep, &r.lc)
		tr.on.Store(false)
		if err != nil {
			return err
		}
	}
	reopen, err := checkLive(e)
	if err != nil {
		return fmt.Errorf("live-books set-up %d: %w", k, err)
	}
	r.reopens = append(r.reopens, reopen.Seconds())
	if cfg.trace {
		amp, err := spaceAmp(e)
		if err != nil {
			return err
		}
		r.spaceAmps = append(r.spaceAmps, amp)
	}
	return nil
}

// liveDialogues opens Sequential sessions over corpus c's store, each
// sampling its own question-scoring subset, and steps each until the
// assistant has no more questions: n of them, or with n = 0 until
// budget has passed (at least one). It returns how many it ran.
func liveDialogues(cfg config, e *liveEnv, c, n int, budget time.Duration, conv *liveConverge, rep *report) (int, error) {
	oracle := e.task.Oracle()
	j := 0
	for start := time.Now(); j == 0 || (n > 0 && j < n) || (n == 0 && time.Since(start) < budget); j++ {
		sess := assistant.NewSession(storeEnv(e.st), alog.MustParse(e.task.Program), oracle, assistant.Config{
			Strategy:   assistant.Sequential{},
			SubsetSeed: splitmix(cfg.seed, uint64(1000000*(c+1)+j)),
			Workers:    runtime.GOMAXPROCS(0),
		})
		first, steps, err := converge(sess, oracle, nil, rep)
		sess.Close()
		if err != nil {
			return 0, fmt.Errorf("live-books dialogue: %w", err)
		}
		conv.addDialogue(fmt.Sprintf("%d/dialogue%d", c, j), first, steps)
	}
	return j, nil
}

// liveConverge pools the converging sessions of every set-up (session,
// tuples, questions) and the dialogues (first, steps), keyed by corpus.
type liveConverge struct {
	first, session, steps bestOf
	tuples, questions     []float64
	tuplesSum, truthSum   float64
}

// add pools set-up e's converging session over corpus c; the output
// counts come from each corpus's first set-up.
func (v *liveConverge) add(e *liveEnv, c int, firstVisit bool) {
	v.addDialogue(fmt.Sprintf("%d/converge", c), e.first, e.steps)
	v.session.add(fmt.Sprint(c), e.session)
	v.tuplesSum += float64(e.tuples)
	v.truthSum += float64(e.truth)
	if firstVisit {
		v.tuples = append(v.tuples, float64(e.tuples))
		v.questions = append(v.questions, float64(e.questions))
	}
}

// addDialogue pools one session's first and later steps under key.
func (v *liveConverge) addDialogue(key string, first time.Duration, steps []time.Duration) {
	v.first.add(key, first)
	for i, d := range steps {
		v.steps.add(fmt.Sprintf("%s/%d", key, i), d)
	}
}

func setLiveEndToEnd(cfg config, rep *report, r *liveRun) {
	conv := &r.conv
	ls := []latencies{
		conv.first.latencies("first result"),
		conv.steps.latencies("step"),
		conv.session.latencies("converge session"),
		r.lc.refresh.latencies("refresh"),
	}
	for _, l := range ls {
		fmt.Fprintf(cfg.out, "  %s\n", l.describe())
	}
	rep.e2e["setup_s"] = median(r.setups)
	rep.e2e["first_result_s"] = median(ls[0].xs)
	rep.e2e["step_p50_s"] = quantile(ls[1].xs, 0.5)
	rep.e2e["step_p90_s"] = quantile(ls[1].xs, 0.9)
	rep.e2e["session_s"] = median(ls[2].xs)
	rep.e2e["sessions_per_s"] = 1 / mean(ls[2].xs)
	rep.e2e["refresh_p50_s"] = quantile(ls[3].xs, 0.5)
	rep.e2e["refresh_p90_s"] = quantile(ls[3].xs, 0.9)
	rep.e2e["result_tuples"] = mean(conv.tuples)
	rep.e2e["questions"] = mean(conv.questions)
	rep.e2e["success_rate"] = 1 - ratio(float64(rep.failed), float64(rep.attempted))
	rep.e2e["peak_rss_mb"] = r.peak
}

// setLiveLayers reports the per-layer metrics of the traced refresh
// cycles, per refresh.
func setLiveLayers(rep *report, tr *tracer, r *liveRun) {
	lc := &r.lc
	n := float64(lc.refresh.n)
	setLibraryLayers(rep, tr, n)
	lc.engine.set(rep, n, lc.passes)
	rep.layer["compact.superset_ratio"] = ratio(r.conv.tuplesSum, r.conv.truthSum)
	rep.layer["store.commit_s"] = spanMean(tr, "store.commit")
	fsync, syncdir := tr.call("store.fsync"), tr.call("store.syncdir")
	rep.layer["store.fsyncs_per_commit"] = float64(fsync.Count+syncdir.Count) / float64(lc.commits)
	rep.layer["store.fsync_s"] = float64(fsync.Ns+syncdir.Ns) / 1e9 / float64(lc.commits)
	rep.layer["store.write_amp"] = ratio(float64(tr.written.Load()), float64(lc.putBytes))
	rep.layer["store.page_loads"] = float64(lc.loads) / n
	rep.layer["store.page_releases"] = float64(lc.rels) / n
	rep.layer["store.ingest_s"] = median(r.ingests)
	rep.layer["store.open_s"] = median(r.reopens)
	rep.layer["store.space_amp"] = median(r.spaceAmps)
}

// spaceAmp is the store's bytes on disk over its live page bytes.
func spaceAmp(e *liveEnv) (float64, error) {
	var storeBytes, live int64
	err := filepath.WalkDir(e.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		storeBytes += info.Size()
		return nil
	})
	for _, raw := range e.pages {
		live += int64(len(raw))
	}
	return ratio(float64(storeBytes), float64(live)), err
}
