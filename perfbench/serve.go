package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"iflex/internal/alog"
	"iflex/internal/assistant"
	"iflex/internal/corpus"
	"iflex/internal/engine"
	"iflex/internal/server"
	"iflex/internal/store"
)

// The extract-serve workload: an in-process iflexd (server.New and its
// Handler on a loopback port, TenantWorkers 1) and two client
// connections. Each client runs back-to-back Simulation sessions over
// HTTP — create, step answering from the task oracle, stream the NDJSON
// result, delete — cycling through a fixed set of task corpora at 250
// records, so each session repeats several times a run and its
// latencies are the least of its repeats (bestOf). Each set-up also
// measures the server's watch path: each client posts page changes to a
// store-backed session of its own and waits for the re-evaluated
// result. Every set-up boots from the same seeded stores and posts the
// same changes, so the posts are repeats too.

const (
	serveRecords = 250
	serveClients = 2
	// serveSetups is how many times setup runs; setup_s is their
	// median, and each set-up's watch posts are one repeat of them.
	serveSetups = 6
	// serveRefreshPosts is how many page-change posts each client makes
	// in a set-up. Each post commits a store generation, creating and
	// deleting files; when the posts were a fifth of the run (about
	// 1100 posts), the refresh median rose run after run in a row of
	// runs, from 5.5 to 9.8 ms over seven. 60 posts a client give
	// refresh_p90_s its 100 operations.
	serveRefreshPosts = 60
	// watchTask is the task whose table the watch stores hold.
	watchTask = "T7"
	// serveCorpusSets is how many corpora each task has in a run; the
	// sessions cycle through them, so a run averages over several
	// inputs, and a 30 s run repeats each about four times.
	serveCorpusSets = 4
)

// serveTasks are the join-free tasks the sessions rotate through.
var serveTasks = []string{"T1", "T2", "T4", "T5", "T7", "T8"}

// serveRefCount is how many task corpora the sessions cycle through.
var serveRefCount = serveCorpusSets * len(serveTasks)

// serveRef is the library-path reference for one task.
type serveRef struct {
	task  *corpus.Task
	seed  int64
	table string
	truth int // ground-truth tuples
}

// serveEnv is one booted server with its clients' watch sessions.
type serveEnv struct {
	srv     *server.Server
	hs      *http.Server
	done    chan struct{}
	stores  []*store.DiskStore
	dirs    []string
	clients []*serveClient
}

// serveClient is one client connection.
type serveClient struct {
	idx   int
	cl    *server.Client
	tp    *spanTransport
	watch string // id of the client's store-backed watch session
	pages []string
}

// close stops whatever bootServe had started and removes the stores.
func (e *serveEnv) close() {
	if e.hs != nil {
		_ = e.hs.Close()
		<-e.done
	}
	if e.srv != nil {
		e.srv.Close()
	}
	for _, c := range e.clients {
		c.tp.base.(*http.Transport).CloseIdleConnections()
	}
	for i, st := range e.stores {
		_ = st.Close()
		_ = os.RemoveAll(e.dirs[i])
	}
}

func runExtractServe(cfg config, rep *report) error {
	refs, err := serveRefs(cfg)
	if err != nil {
		return err
	}

	var tr *tracer
	if cfg.trace {
		// Off until the traced pass: the middleware is installed at boot.
		tr = newTracer()
		tr.on.Store(false)
	}
	var setups []float64
	var refresh bestOf
	var env *serveEnv
	start := time.Now()
	for b := 0; b < serveSetups; b++ {
		t := time.Now()
		e, err := bootServe(cfg, b, tr)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
		if env != nil {
			env.close()
		}
		env = e
		if cfg.trace {
			continue
		}
		ds, _, err := serveRefreshes(cfg, e, nil, 0, rep)
		if err != nil {
			return err
		}
		for j, d := range ds {
			refresh.add(fmt.Sprint(j), d)
		}
		if err := checkWatch(e); err != nil {
			return err
		}
	}
	defer env.close()

	if !cfg.trace {
		// The sessions take the rest of the run.
		budget := cfg.seconds - time.Since(start)
		beforeTiming()
		ph, err := servePhase(cfg, env, refs, nil, budget, -1, rep)
		if err != nil {
			return err
		}
		rep.e2e["peak_rss_mb"] = peakRSSMB()
		setServeEndToEnd(cfg, rep, ph, setups, &refresh)
		return nil
	}
	// Traced run: the same sessions and posts untraced, then traced.
	m0 := readMem()
	base, err := servePhase(cfg, env, refs, nil, cfg.seconds/2, 1, rep)
	if err != nil {
		return err
	}
	setRuntimeMetrics(rep, m0, readMem(), base.sessions)
	tr.on.Store(true)
	ph, err := servePhase(cfg, env, refs, tr, cfg.seconds/2, 2, rep)
	tr.on.Store(false)
	if err != nil {
		return err
	}
	if err := checkWatch(env); err != nil {
		return err
	}
	if err := setServeLayers(rep, env, tr, ph); err != nil {
		return err
	}
	traced, untraced := commonMeans(&ph.session.best, &base.session.best)
	return setTraceMetrics(cfg, rep, tr, "extract-serve", traced, untraced)
}

// serveRefs computes the library-path reference of every (corpus set,
// task) pair, two at a time, before anything is timed. Session i of a
// run serves refs[i % len(refs)], so each round of six sessions is one
// session of every task over one corpus set.
func serveRefs(cfg config) ([]serveRef, error) {
	refs := make([]serveRef, serveRefCount)
	errs := make([]error, len(refs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, serveClients)
	for i := range refs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			refs[i], errs[i] = serveRefFor(serveTasks[i%len(serveTasks)], subSeed(cfg.seed, uint64(100+i)))
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// serveRefFor runs task id over its corpus at seed on the library path
// and checks the result covers the ground truth.
func serveRefFor(id string, seed int64) (serveRef, error) {
	task, err := corpus.TaskByID(id)
	if err != nil {
		return serveRef{}, err
	}
	c := task.Generate(serveRecords, seed)
	sess := assistant.NewSession(task.Env(c), alog.MustParse(task.Program), task.Oracle(),
		assistant.Config{Strategy: assistant.Simulation{}, SubsetSeed: uint64(seed), Workers: 1})
	defer sess.Close()
	res, err := sess.Run()
	if err != nil {
		return serveRef{}, fmt.Errorf("library reference %s: %w", id, err)
	}
	truth := task.Truth(c)
	if miss := corpus.UncoveredTruth(res.Final, truth); len(miss) > 0 {
		return serveRef{}, checkFailed("%s: %d ground-truth tuples missing from the result", id, len(miss))
	}
	return serveRef{task: task, seed: seed, table: res.Final.String(), truth: len(truth)}, nil
}

// bootServe ingests the clients' watch stores, boots the server on a
// loopback port, and opens and finalizes each client's watch session.
func bootServe(cfg config, rep int, tr *tracer) (*serveEnv, error) {
	task, err := corpus.TaskByID(watchTask)
	if err != nil {
		return nil, err
	}
	e := &serveEnv{done: make(chan struct{})}
	stores := map[string]*store.DiskStore{}
	var ids []string
	for i := 0; i < serveClients; i++ {
		c := task.Generate(serveRecords, subSeed(cfg.seed, uint64(200+i)))
		ids = sortedIDs(c)
		pages := corpusPages(c)
		dir := filepath.Join(cfg.work, fmt.Sprintf("serve-watch-%d-%d", rep, i))
		if err := os.RemoveAll(dir); err != nil {
			e.close()
			return nil, err
		}
		// No fsync: the store's durability cost is live-books' subject;
		// here it would only add the host's disk latency to the server's.
		if err := ingest(dir, ids, pages, false); err != nil {
			e.close()
			return nil, err
		}
		st, err := store.Open(dir, store.OpenOptions{NoSync: true})
		if err != nil {
			e.close()
			return nil, err
		}
		e.dirs = append(e.dirs, dir)
		e.stores = append(e.stores, st)
		stores[fmt.Sprintf("watch-%d", i)] = st
	}
	e.srv = server.New(server.Config{
		MaxSessions:          4 * serveClients,
		MaxSessionsPerTenant: 4,
		TenantWorkers:        1,
		Stores:               stores,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	var h http.Handler = e.srv.Handler()
	if tr != nil {
		h = tr.middleware(h)
	}
	e.hs = &http.Server{Handler: h}
	go func() {
		defer close(e.done)
		_ = e.hs.Serve(ln)
	}()
	base := "http://" + ln.Addr().String()
	for i := 0; i < serveClients; i++ {
		tp := &spanTransport{base: &http.Transport{MaxIdleConnsPerHost: 1}}
		cl := server.NewClient(base)
		cl.HTTP = &http.Client{Transport: tp}
		sc := &serveClient{idx: i, cl: cl, tp: tp, pages: ids}
		created, err := cl.CreateSession(server.CreateSessionRequest{
			Tenant: fmt.Sprintf("client-%d", i), Store: fmt.Sprintf("watch-%d", i),
			StorePred: task.Tables[0], Program: task.Program,
		})
		if err != nil {
			e.close()
			return nil, fmt.Errorf("creating watch session: %w", err)
		}
		sc.watch = created.ID
		if _, err := cl.Result(created.ID, false, 0); err != nil {
			e.close()
			return nil, fmt.Errorf("finalizing watch session: %w", err)
		}
		e.clients = append(e.clients, sc)
	}
	return e, nil
}

// ingest writes the pages into a new store at dir in the given order,
// with every fsync on when sync is set.
func ingest(dir string, ids []string, pages map[string]page, sync bool) error {
	w, err := store.Create(dir, store.Options{NoSync: !sync})
	if err != nil {
		return err
	}
	for _, id := range ids {
		if err := w.Add(id, pages[id].raw); err != nil {
			_ = w.Close() // releases the open shard; the Add error is the one to report
			return err
		}
	}
	return w.Close()
}

// durations is a mutex-guarded bestOf the two clients add to.
type durations struct {
	mu   sync.Mutex
	best bestOf
}

func (d *durations) add(key string, x time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.best.add(key, x)
}

// commonMeans returns the mean least latency of a and of b over the
// operations both measured.
func commonMeans(a, b *bestOf) (float64, float64) {
	var xs, ys []float64
	for _, k := range a.keys {
		if y, ok := b.min[k]; ok {
			xs = append(xs, a.min[k].Seconds())
			ys = append(ys, y.Seconds())
		}
	}
	return mean(xs), mean(ys)
}

// servePhaseResult is what one pass over the workload measured.
type servePhaseResult struct {
	// first, step and session are keyed by the session's corpus (and
	// step).
	first, step, session durations
	sessions             int
	// failed counts the degraded steps and results of the sessions.
	failed int
	// wall is the session phase's wall time.
	wall time.Duration
	// reevaluate holds the server-reported re-evaluation time of each
	// refresh.
	reevaluate []float64
	// iterations per session; result and ground-truth tuples summed
	// over the sessions.
	iterations          []float64
	tuplesSum, truthSum float64
	tuples, questions   map[int]int // by reference index
	stats               []engine.StatsSnapshot
	resultBytes         int64
}

// servePhase runs the session phase for budget with both clients, then,
// for a pass of 0 or more, the watch posts of that pass.
func servePhase(cfg config, e *serveEnv, refs []serveRef, tr *tracer, budget time.Duration, pass int, rep *report) (*servePhaseResult, error) {
	ph := &servePhaseResult{tuples: map[int]int{}, questions: map[int]int{}}
	var (
		next  atomic.Int64
		mu    sync.Mutex
		errs  []error
		wg    sync.WaitGroup
		start = time.Now()
	)
	for _, c := range e.clients {
		wg.Add(1)
		go func(c *serveClient) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(refs) && time.Since(start) >= budget {
					return
				}
				out, err := serveSession(c, refs[i%len(refs)], i, tr, ph, rep, &mu)
				if err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
					return
				}
				mu.Lock()
				ph.sessions++
				if _, ok := ph.tuples[i%len(refs)]; !ok {
					ph.tuples[i%len(refs)] = out.ExpandedTuples
					ph.questions[i%len(refs)] = out.QuestionsAsked
				}
				if out.Stats != nil {
					ph.stats = append(ph.stats, *out.Stats)
				}
				ph.iterations = append(ph.iterations, float64(out.Iterations))
				ph.tuplesSum += float64(out.ExpandedTuples)
				ph.truthSum += float64(refs[i%len(refs)].truth)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	if len(errs) > 0 {
		return nil, errs[0]
	}
	for i, ref := range refs {
		unit := fmt.Sprintf("serve/%s/%d", ref.task.ID, i/len(serveTasks))
		rep.count(unit, "result_tuples", int64(ph.tuples[i]))
		rep.count(unit, "questions", int64(ph.questions[i]))
	}
	if pass < 0 {
		return ph, nil
	}
	_, reevaluate, err := serveRefreshes(cfg, e, tr, pass, rep)
	if err != nil {
		return nil, err
	}
	ph.reevaluate = reevaluate
	return ph, nil
}

// serveRefreshPool is how many regenerated corpora each client draws
// its page changes from; they are made before the phase, so that no
// page generation runs beside a timed post.
const serveRefreshPool = 8

// serveRefreshes makes the watch posts: the clients take turns, one
// post in flight at a time, each changing 1% of its watch store's pages,
// serveRefreshPosts times. With both clients posting at once, a run's
// median moved between 5 and 15 ms from one run to the next. Each pass
// posts its own page changes; every set-up posts those of pass 0. It
// returns each post's latency and the server-reported re-evaluation
// time.
func serveRefreshes(cfg config, e *serveEnv, tr *tracer, pass int, rep *report) ([]time.Duration, []float64, error) {
	task, err := corpus.TaskByID(watchTask)
	if err != nil {
		return nil, nil, err
	}
	var ds []time.Duration
	var reevaluate []float64
	pools := make([][]map[string]page, len(e.clients))
	for _, c := range e.clients {
		for k := 0; k < serveRefreshPool; k++ {
			seed := subSeed(cfg.seed, uint64(1000000*(c.idx+1)+10000*pass+k))
			pools[c.idx] = append(pools[c.idx], corpusPages(task.Generate(serveRecords, seed)))
		}
	}
	for j := 0; j < serveRefreshPosts*len(e.clients); j++ {
		c := e.clients[j%len(e.clients)]
		k := j / len(e.clients)
		regen := pools[c.idx][k%serveRefreshPool]
		var put []server.Doc
		for _, id := range pickPages(c.pages, subSeed(cfg.seed, uint64(2000000*(c.idx+1)+10000*pass+k))) {
			put = append(put, server.Doc{ID: id, HTML: regen[id].raw})
		}
		id := int64(0)
		if tr != nil {
			id = tr.start("client.corpus", 0)
			c.tp.cur.Store(id)
		}
		t := time.Now()
		resp, err := c.cl.Corpus(c.watch, server.CorpusRequest{Put: put})
		d := time.Since(t)
		if tr != nil {
			tr.finish(id)
			c.tp.cur.Store(0)
		}
		rep.op(err != nil)
		if err != nil {
			return nil, nil, fmt.Errorf("client %d corpus post: %w", c.idx, err)
		}
		reevaluate = append(reevaluate, resp.WallS)
		ds = append(ds, d)
	}
	return ds, reevaluate, nil
}

// serveSession drives session i over HTTP: create, step to convergence
// answering from the task oracle, stream the result and check it is
// byte-identical to the library path, delete.
func serveSession(c *serveClient, ref serveRef, i int, tr *tracer, ph *servePhaseResult, rep *report, mu *sync.Mutex) (*server.StreamedResult, error) {
	// call times one request under a client span the server's handler
	// span nests in.
	call := func(name string, f func() error) (time.Duration, error) {
		id := int64(0)
		if tr != nil {
			id = tr.start("client."+name, 0)
			c.tp.cur.Store(id)
		}
		t := time.Now()
		err := f()
		d := time.Since(t)
		if tr != nil {
			tr.finish(id)
			c.tp.cur.Store(0)
		}
		mu.Lock()
		rep.op(err != nil)
		mu.Unlock()
		return d, err
	}
	start := time.Now()
	var created server.CreateSessionResponse
	_, err := call("create", func() (err error) {
		created, err = c.cl.CreateSession(server.CreateSessionRequest{
			Tenant: fmt.Sprintf("client-%d", c.idx), Task: ref.task.ID, Records: serveRecords,
			Seed: ref.seed, SubsetSeed: uint64(ref.seed), Strategy: "sim",
		})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("client %d: create: %w", c.idx, err)
	}
	oracle := ref.task.Oracle()
	key := fmt.Sprint(i % serveRefCount)
	var answers []server.AnswerJSON
	for n := 0; ; n++ {
		if n == maxSteps {
			return nil, checkFailed("session %d (%s) did not converge in %d steps", i, ref.task.ID, maxSteps)
		}
		var sr server.StepResponse
		d, err := call("step", func() (err error) {
			sr, err = c.cl.Step(created.ID, server.StepRequest{Answers: answers})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("client %d: step: %w", c.idx, err)
		}
		if sr.Degraded != nil {
			mu.Lock()
			rep.failed++
			ph.failed++
			mu.Unlock()
		}
		if n == 0 {
			ph.first.add(key, d)
		} else {
			ph.step.add(fmt.Sprintf("%s/%d", key, n), d)
		}
		if sr.Done {
			break
		}
		answers = answers[:0]
		for _, qj := range sr.Questions {
			q, err := server.ParseQuestion(qj)
			if err != nil {
				return nil, err
			}
			a := oracle.Answer(q)
			answers = append(answers, server.AnswerJSON{Value: a.Value, Known: a.Known})
		}
	}
	var res *server.StreamedResult
	before := c.tp.read.Load()
	_, err = call("result", func() (err error) {
		res, err = c.cl.Result(created.ID, false, 0)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("client %d: result: %w", c.idx, err)
	}
	ph.session.add(key, time.Since(start))
	mu.Lock()
	ph.resultBytes += c.tp.read.Load() - before
	if res.Degraded != nil {
		rep.failed++
		ph.failed++
	}
	mu.Unlock()
	if got := res.TableString(); got != ref.table {
		return nil, checkFailed("session %d (%s): streamed table differs from the library path (%d vs %d bytes)",
			i, ref.task.ID, len(got), len(ref.table))
	}
	if _, err := call("delete", func() error { return c.cl.Delete(created.ID) }); err != nil {
		return nil, fmt.Errorf("client %d: delete: %w", c.idx, err)
	}
	return res, nil
}

// checkWatch streams each client's watch session result and checks it
// is byte-identical to a from-scratch library run over the store's
// final pages.
func checkWatch(e *serveEnv) error {
	task, err := corpus.TaskByID(watchTask)
	if err != nil {
		return err
	}
	for i, c := range e.clients {
		res, err := c.cl.Result(c.watch, false, 0)
		if err != nil {
			return fmt.Errorf("client %d: watch result: %w", i, err)
		}
		env := engine.NewEnv()
		env.AddDocTable(task.Tables[0], "x", e.stores[i].Docs())
		env.DocIndex = e.stores[i]
		env.Postings = e.stores[i]
		want, err := scratchFinal(env, alog.MustParse(task.Program), 1)
		if err != nil {
			return fmt.Errorf("client %d: watch: %w", i, err)
		}
		if res.TableString() != want.String() {
			return checkFailed("client %d: refreshed watch result differs from a from-scratch run over the store", i)
		}
	}
	return nil
}

func setServeEndToEnd(cfg config, rep *report, ph *servePhaseResult, setups []float64, refresh *bestOf) {
	ls := []latencies{
		ph.first.best.latencies("first result"),
		ph.step.best.latencies("step"),
		ph.session.best.latencies("session"),
		refresh.latencies("refresh"),
	}
	for _, l := range ls {
		fmt.Fprintf(cfg.out, "  %s\n", l.describe())
	}
	fmt.Fprintf(cfg.out, "  %d sessions by %d clients in %.2fs; every streamed table matches the library path\n",
		ph.sessions, serveClients, ph.wall.Seconds())
	var tuples, questions []float64
	for i := 0; i < len(ph.tuples); i++ {
		tuples = append(tuples, float64(ph.tuples[i]))
		questions = append(questions, float64(ph.questions[i]))
	}
	// Session times differ several-fold by task, so first_result_s and
	// session_s are means over the corpora, every task weighing the same.
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["first_result_s"] = mean(ls[0].xs)
	rep.e2e["step_p50_s"] = quantile(ls[1].xs, 0.5)
	rep.e2e["step_p90_s"] = quantile(ls[1].xs, 0.9)
	rep.e2e["session_s"] = mean(ls[2].xs)
	// A closed loop without think time completes clients ÷ session
	// time sessions a second (Little's law).
	rep.e2e["sessions_per_s"] = serveClients / mean(ls[2].xs)
	rep.e2e["refresh_p50_s"] = quantile(ls[3].xs, 0.5)
	rep.e2e["refresh_p90_s"] = quantile(ls[3].xs, 0.9)
	rep.e2e["result_tuples"] = mean(tuples)
	rep.e2e["questions"] = mean(questions)
	rep.e2e["success_rate"] = 1 - ratio(float64(rep.failed), float64(rep.attempted))
}

// setServeLayers reports the per-layer metrics of a traced
// extract-serve pass: handler spans from the middleware, client-observed
// minus handler time, /v1/stats step time, and the engine counters each
// result stream carries.
func setServeLayers(rep *report, e *serveEnv, tr *tracer, ph *servePhaseResult) error {
	n := float64(ph.sessions)
	rep.layer["server.create_s"] = spanMean(tr, "server.create")
	rep.layer["server.result_s"] = spanMean(tr, "server.result")
	rep.layer["server.step_s"] = spanMean(tr, "server.step")
	rep.layer["server.result_bytes"] = float64(ph.resultBytes) / n
	wire, steps := tr.self("client.step")
	rep.layer["server.wire_s"] = wire / float64(steps)
	_, reqs := tr.self("server.create", "server.step", "server.result", "server.delete")
	rep.layer["server.requests"] = float64(reqs) / n
	rep.layer["server.failed"] = float64(ph.failed) / n
	stats, err := e.clients[0].cl.Stats()
	if err != nil {
		return err
	}
	var busy float64
	var count int64
	for _, ts := range stats.Tenants {
		busy += ts.StepSeconds
		count += ts.Steps
	}
	rep.layer["server.step_busy_s"] = ratio(busy, float64(count))
	rep.layer["assistant.step_s"] = rep.layer["server.step_busy_s"]
	rep.layer["assistant.reevaluate_s"] = mean(ph.reevaluate)
	// The server builds its own Env, so the similarity wrappers are not
	// on its path: similarity.* read 0 here.
	var et engineTotals
	for _, st := range ph.stats {
		et.add(st, 1)
	}
	et.set(rep, float64(len(ph.stats)), len(ph.stats))
	rep.layer["assistant.iterations"] = mean(ph.iterations)
	rep.layer["compact.superset_ratio"] = ratio(ph.tuplesSum, ph.truthSum)
	return nil
}
