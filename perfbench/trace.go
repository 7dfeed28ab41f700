package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"iflex/internal/engine"
	"iflex/internal/feature"
	"iflex/internal/store"
	"iflex/internal/text"
)

// This file is the traced run's instrumentation. Every span is recorded
// from the benchmark's own code, around calls into the program's public
// seams: the library calls the workloads make (Session.Step, Finalize,
// ApplyCorpusDelta, Reevaluate, Mutation.Commit), pass-through wrappers
// installed on the Env (each feature re-registered under its own name,
// the p-functions in Env.Funcs and Env.TokenSimilar, Env.DocIndex and
// Env.Postings), a store.FS that delegates to store.RealFS(true), and an
// http.Handler middleware around the server. Spans stay in memory and
// are written out when the run ends.

// keepLeaves caps how many leaf-call spans (feature, p-function, index
// calls — up to millions per session) are kept per parent span for the
// span file; every leaf call is still counted, timed and folded into its
// parent's self time.
const keepLeaves = 200

// spanRec is one recorded span. Times are nanoseconds since the
// tracer's epoch; Self is the duration minus the union of the children's
// intervals.
type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	rec      spanRec
	children []interval
	kept     int
}

// callTotal folds the leaf calls of one name.
type callTotal struct {
	Count int64 `json:"count"`
	Ns    int64 `json:"ns"`
}

// tracer records spans. A nil *tracer records nothing; the untraced run
// installs no wrappers at all.
type tracer struct {
	epoch time.Time
	// on gates the Env and FS wrappers: while it is false they call
	// straight through, so a workload whose wrappers are installed at
	// set-up can still run an untraced pass.
	on     atomic.Bool
	nextID atomic.Int64
	// cur is the innermost open span of the single in-process client
	// (t9-assist, live-books): leaf calls made on engine worker
	// goroutines take it as their parent.
	cur atomic.Int64
	// simTrue counts p-function calls that returned true.
	simTrue atomic.Int64
	// written counts bytes the store wrote through the timing FS.
	written atomic.Int64

	mu     sync.Mutex
	open   map[int64]*openSpan
	spans  []spanRec
	calls  map[string]*callTotal // leaf calls by name
	selfNs map[string]int64      // self time of non-leaf spans by name
	count  map[string]int64      // non-leaf spans by name
}

func newTracer() *tracer {
	t := &tracer{
		epoch:  time.Now(),
		open:   map[int64]*openSpan{},
		calls:  map[string]*callTotal{},
		selfNs: map[string]int64{},
		count:  map[string]int64{},
	}
	t.on.Store(true)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// start opens a span under parent (0 = a root) and returns its id.
func (t *tracer) start(name string, parent int64) int64 {
	id := t.nextID.Add(1)
	s := &openSpan{rec: spanRec{ID: id, Parent: parent, Name: name, Start: t.now()}}
	t.mu.Lock()
	t.open[id] = s
	t.mu.Unlock()
	return id
}

// finish closes span id: its self time is taken over the children
// recorded under it, and its interval becomes a child of its parent.
func (t *tracer) finish(id int64) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.open[id]
	delete(t.open, id)
	s.rec.End = end
	s.rec.Self = selfTime(interval{s.rec.Start, end}, s.children)
	t.spans = append(t.spans, s.rec)
	t.selfNs[s.rec.Name] += s.rec.Self
	t.count[s.rec.Name]++
	if p := t.open[s.rec.Parent]; p != nil {
		p.children = append(p.children, interval{s.rec.Start, end})
	}
}

// begin opens a span under the client's current span and makes it
// current; the returned function closes it. For single-client
// workloads only.
func (t *tracer) begin(name string) func() {
	if t == nil || !t.on.Load() {
		return func() {}
	}
	prev := t.cur.Load()
	id := t.start(name, prev)
	t.cur.Store(id)
	return func() {
		t.finish(id)
		t.cur.Store(prev)
	}
}

// leaf records one call that started at start and ends now, under the
// client's current span.
func (t *tracer) leaf(name string, start int64) {
	end := t.now()
	parent := t.cur.Load()
	t.mu.Lock()
	c := t.calls[name]
	if c == nil {
		c = &callTotal{}
		t.calls[name] = c
	}
	c.Count++
	c.Ns += end - start
	if p := t.open[parent]; p != nil {
		p.children = append(p.children, interval{start, end})
		if p.kept < keepLeaves {
			p.kept++
			t.spans = append(t.spans, spanRec{ID: t.nextID.Add(1), Parent: parent, Name: name, Start: start, End: end, Self: end - start})
		}
	}
	t.mu.Unlock()
}

// call returns the folded totals of one leaf-call name.
func (t *tracer) call(name string) callTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c := t.calls[name]; c != nil {
		return *c
	}
	return callTotal{}
}

// self returns the summed self time (seconds) and count of the closed
// non-leaf spans with one of the given names.
func (t *tracer) self(names ...string) (float64, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns, n int64
	for _, name := range names {
		ns += t.selfNs[name]
		n += t.count[name]
	}
	return float64(ns) / 1e9, n
}

// printSelf prints the self time of every span name and the folded
// totals of every leaf-call name.
func (t *tracer) printSelf(w io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.selfNs))
	for name := range t.selfNs {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "self time by span:\n")
	for _, name := range names {
		fmt.Fprintf(w, "  %-24s %10.4fs self over %d spans\n", name, float64(t.selfNs[name])/1e9, t.count[name])
	}
	names = names[:0]
	for name := range t.calls {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := t.calls[name]
		fmt.Fprintf(w, "  %-24s %10.4fs in %d calls\n", name, float64(c.Ns)/1e9, c.Count)
	}
}

// spansNamed returns the closed spans with the given name.
func (t *tracer) spansNamed(name string) []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []spanRec
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write stores every kept span, one JSON object per line, followed by
// one line per leaf-call name with its folded totals.
func (t *tracer) write(path string) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return 0, err
		}
	}
	names := make([]string, 0, len(t.calls))
	for name := range t.calls {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := t.calls[name]
		if err := enc.Encode(struct {
			Calls string `json:"calls"`
			callTotal
		}{name, *c}); err != nil {
			f.Close()
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return len(t.spans), f.Close()
}

// instrumentEnv installs the pass-through timing wrappers on env: every
// feature re-registered under its own name, every p-function, every
// token-similarity function, and the store's index seams when bound.
func (t *tracer) instrumentEnv(env *engine.Env) {
	for _, name := range env.Features.Names() {
		f, err := env.Features.Lookup(name)
		if err != nil {
			continue
		}
		env.Features.Register(timedFeature{Feature: f, t: t})
	}
	for name, fn := range env.Funcs {
		fn := fn
		env.Funcs[name] = func(args []text.Span) (bool, error) {
			if !t.on.Load() {
				return fn(args)
			}
			start := t.now()
			ok, err := fn(args)
			t.leaf("similarity.call", start)
			if ok {
				t.simTrue.Add(1)
			}
			return ok, err
		}
	}
	for name, fn := range env.TokenSimilar {
		fn := fn
		env.TokenSimilar[name] = func(a, b []string) bool {
			if !t.on.Load() {
				return fn(a, b)
			}
			start := t.now()
			ok := fn(a, b)
			t.leaf("similarity.call", start)
			if ok {
				t.simTrue.Add(1)
			}
			return ok
		}
	}
	if env.DocIndex != nil {
		env.DocIndex = timedDocIndex{DocIndex: env.DocIndex, t: t}
	}
	if env.Postings != nil {
		env.Postings = timedPostings{PostingsIndex: env.Postings, t: t}
	}
}

// timedFeature times Verify and Refine of the wrapped feature; Name and
// Kind pass through, so the registry and the question space see the
// same feature.
type timedFeature struct {
	feature.Feature
	t *tracer
}

func (f timedFeature) Verify(s text.Span, v string) (bool, error) {
	if !f.t.on.Load() {
		return f.Feature.Verify(s, v)
	}
	start := f.t.now()
	ok, err := f.Feature.Verify(s, v)
	f.t.leaf("feature.verify", start)
	return ok, err
}

func (f timedFeature) Refine(s text.Span, v string) ([]text.Assignment, error) {
	if !f.t.on.Load() {
		return f.Feature.Refine(s, v)
	}
	start := f.t.now()
	as, err := f.Feature.Refine(s, v)
	f.t.leaf("feature.refine", start)
	return as, err
}

type timedDocIndex struct {
	engine.DocIndex
	t *tracer
}

func (x timedDocIndex) BlockTokens(d *text.Document) ([]string, bool) {
	if !x.t.on.Load() {
		return x.DocIndex.BlockTokens(d)
	}
	start := x.t.now()
	toks, ok := x.DocIndex.BlockTokens(d)
	x.t.leaf("store.index", start)
	return toks, ok
}

func (x timedDocIndex) NormTokens(d *text.Document) ([]string, bool) {
	if !x.t.on.Load() {
		return x.DocIndex.NormTokens(d)
	}
	start := x.t.now()
	toks, ok := x.DocIndex.NormTokens(d)
	x.t.leaf("store.index", start)
	return toks, ok
}

type timedPostings struct {
	engine.PostingsIndex
	t *tracer
}

func (x timedPostings) TokenPostings(tok string) ([]int, bool) {
	if !x.t.on.Load() {
		return x.PostingsIndex.TokenPostings(tok)
	}
	start := x.t.now()
	ords, ok := x.PostingsIndex.TokenPostings(tok)
	x.t.leaf("store.postings", start)
	return ords, ok
}

// timedFS delegates every operation to the wrapped store.FS — in the
// traced run store.RealFS(true), so every fsync still happens — timing
// the syncs and counting the bytes written.
type timedFS struct {
	store.FS
	t *tracer
}

func (fs timedFS) Create(path string) (store.File, error) {
	f, err := fs.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return timedFile{File: f, t: fs.t}, nil
}

func (fs timedFS) SyncDir(dir string) error {
	if !fs.t.on.Load() {
		return fs.FS.SyncDir(dir)
	}
	start := fs.t.now()
	err := fs.FS.SyncDir(dir)
	fs.t.leaf("store.syncdir", start)
	return err
}

type timedFile struct {
	store.File
	t *tracer
}

func (f timedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if f.t.on.Load() {
		f.t.written.Add(int64(n))
	}
	return n, err
}

func (f timedFile) Sync() error {
	if !f.t.on.Load() {
		return f.File.Sync()
	}
	start := f.t.now()
	err := f.File.Sync()
	f.t.leaf("store.fsync", start)
	return err
}

// spanHeader carries the client's request span id to the server
// middleware, which records the handler span under it.
const spanHeader = "X-Perfbench-Span"

// middleware records one span per request, named by route, under the
// client span named in spanHeader.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		id := t.start("server."+route(r), parent)
		next.ServeHTTP(w, r)
		t.finish(id)
	})
}

// route names a request by the API operation it addresses.
func route(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/sessions":
		return "create"
	case r.Method == http.MethodDelete:
		return "delete"
	case p == "/v1/stats":
		return "stats"
	}
	for _, suffix := range []string{"step", "result", "corpus"} {
		if len(p) > len(suffix) && p[len(p)-len(suffix):] == suffix {
			return suffix
		}
	}
	return "other"
}

// spanTransport stamps each request with its client's current span id
// and counts response bytes. A client is sequential, so one current
// span per transport is enough.
type spanTransport struct {
	base http.RoundTripper
	cur  atomic.Int64
	read atomic.Int64
}

func (st *spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id := st.cur.Load(); id != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	resp, err := st.base.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &st.read}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
