package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"iflex/internal/alog"
	"iflex/internal/assistant"
	"iflex/internal/corpus"
	"iflex/internal/engine"
	"iflex/internal/fault"
	"iflex/internal/store"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want int // tenths of a percent; 0 = none
	}{
		{0, 0},
		{19, 0},    // the median leaves only 9 beyond it
		{20, 500},  // 10 beyond the median
		{39, 500},  // p75 leaves 9
		{40, 750},  // p75 leaves 10
		{99, 750},  // p90 leaves 9
		{100, 900}, // p90 leaves exactly 10
		{199, 900},
		{200, 950},
		{1000, 990},
		{9999, 990},
		{10000, 999},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if (c.want == 0) == ok || (ok && p != c.want) {
			t.Errorf("tailPercentile(%d) = %d, %t; want %d", c.n, p, ok, c.want)
		}
	}
}

func TestDescribePrintsSampleCount(t *testing.T) {
	l := latencies{name: "step"}
	for i := 0; i < 100; i++ {
		l.xs = append(l.xs, float64(i))
	}
	got := l.describe()
	if !strings.Contains(got, "p90") || !strings.Contains(got, "n=100") {
		t.Errorf("describe() = %q, want the p90 and n=100", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 1: 5, 0.25: 2, 0.9: 4.6} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
}

func TestBestOfKeepsLeastPerOperation(t *testing.T) {
	var b bestOf
	b.add("b", 30)
	b.add("a", 20)
	b.add("b", 10)
	b.add("a", 40)
	b.add("c", 5)
	want := []float64{10e-9, 20e-9, 5e-9} // first-seen order: b, a, c
	if got := b.seconds(); !reflect.DeepEqual(got, want) {
		t.Errorf("seconds() = %v, want %v", got, want)
	}
	if l := b.latencies("op"); !strings.Contains(l.name, "least of 1.7 repeats") {
		t.Errorf("latencies name = %q, want the mean repeat count", l.name)
	}
}

func TestSelfTimeUnionOfOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 40}}, 80},
		// Two workers: [10,50) and [30,70) overlap by 20; the union is
		// 60, so self time is 40, not 100-80.
		{"overlapping", []interval{{30, 70}, {10, 50}}, 40},
		{"nested", []interval{{10, 90}, {20, 30}, {40, 50}}, 20},
		{"touching", []interval{{10, 20}, {20, 30}}, 80},
		// Children are clipped to the parent.
		{"clipped", []interval{{-10, 10}, {90, 120}}, 80},
		{"covering", []interval{{0, 60}, {50, 100}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	end := tr.begin("assistant.step")
	start := tr.now()
	tr.leaf("feature.verify", start)
	end()
	steps := tr.spansNamed("assistant.step")
	if len(steps) != 1 {
		t.Fatalf("got %d step spans, want 1", len(steps))
	}
	s := steps[0]
	if s.Self > s.End-s.Start || s.Self < 0 {
		t.Errorf("self %d outside [0, %d]", s.Self, s.End-s.Start)
	}
	if c := tr.call("feature.verify"); c.Count != 1 {
		t.Errorf("feature.verify count = %d, want 1", c.Count)
	}
	if leaves := tr.spansNamed("feature.verify"); len(leaves) != 1 || leaves[0].Parent != s.ID {
		t.Errorf("leaf span not recorded under its parent: %+v", leaves)
	}
}

// TestSeedGivesIdenticalInputs checks every workload's generated inputs
// are a function of the seed alone.
func TestSeedGivesIdenticalInputs(t *testing.T) {
	gen := func(seed int64) string {
		var b strings.Builder
		t9, err := corpus.TaskByID("T9")
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 2; k++ {
			c := t9.Generate(40, subSeed(seed, k))
			for _, id := range sortedIDs(c) {
				b.WriteString(id + "\n" + corpusPages(c)[id].raw + "\n")
			}
			b.WriteString(strings.Join(pickPages(sortedIDs(c), subSeed(seed, k+1)), ",") + "\n")
		}
		for i, id := range serveTasks {
			task, err := corpus.TaskByID(id)
			if err != nil {
				t.Fatal(err)
			}
			for _, raw := range task.Generate(10, subSeed(seed, uint64(100+i))).Tables[task.Tables[0]].Raw {
				b.WriteString(raw + "\n")
			}
		}
		return b.String()
	}
	a, b, c := gen(7), gen(7), gen(8)
	if a != b {
		t.Error("the same seed generated different inputs")
	}
	if a == c {
		t.Error("different seeds generated identical inputs")
	}
}

func TestPickPages(t *testing.T) {
	var ids []string
	for i := 0; i < 250; i++ {
		ids = append(ids, "p"+string(rune('a'+i%26))+strings.Repeat("x", i/26))
	}
	got := pickPages(ids, 3)
	if len(got) != 3 { // 1% of 250, rounded up
		t.Fatalf("picked %d pages, want 3", len(got))
	}
	if !reflect.DeepEqual(got, pickPages(ids, 3)) {
		t.Error("the same seed picked different pages")
	}
	if reflect.DeepEqual(got, pickPages(ids, 4)) {
		t.Error("different seeds picked the same pages")
	}
}

// docJoin joins whole pages by similarity, so the engine reads the
// store's token index and postings (T9 joins extracted titles and
// touches neither).
const docJoin = `Q(x, y) :- Amazon(x), Barnes(y), similar(x, y).`

// runT9Small runs a small session of program (T9's when empty) over env
// to convergence and returns the final table and the engine counters
// that must not change under the pass-through wrappers.
func runT9Small(t *testing.T, env *engine.Env, program string) (string, []int64) {
	t.Helper()
	task, err := corpus.TaskByID("T9")
	if err != nil {
		t.Fatal(err)
	}
	if program == "" {
		program = task.Program
	}
	sess := assistant.NewSession(env, alog.MustParse(program), task.Oracle(), assistant.Config{
		Strategy: assistant.Simulation{}, SubsetSeed: 5, Workers: 2,
	})
	defer sess.Close()
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	st := sess.StatsSnapshot()
	return res.Final.String(), []int64{st.TuplesBuilt, st.FuncCalls, st.VerifyCalls, st.RefineCalls,
		st.LimitFallbacks, st.NodesEvaluated, int64(res.QuestionsAsked), int64(res.FinalTuples)}
}

// TestWrappedEnvIsPassThrough: the traced run's wrappers change neither
// the result table nor the engine counters, in memory and over a store.
func TestWrappedEnvIsPassThrough(t *testing.T) {
	task, err := corpus.TaskByID("T9")
	if err != nil {
		t.Fatal(err)
	}
	c := task.Generate(40, 9)
	wantTable, wantCounts := runT9Small(t, task.Env(c), "")

	tr := newTracer()
	env := task.Env(c)
	tr.instrumentEnv(env)
	gotTable, gotCounts := runT9Small(t, env, "")
	if gotTable != wantTable {
		t.Error("wrapped Env gave a different result table")
	}
	if !reflect.DeepEqual(gotCounts, wantCounts) {
		t.Errorf("wrapped Env engine counters %v, want %v", gotCounts, wantCounts)
	}
	for _, name := range []string{"feature.verify", "feature.refine", "similarity.call"} {
		if tr.call(name).Count == 0 {
			t.Errorf("no %s calls went through the wrappers", name)
		}
	}

	dir := filepath.Join(t.TempDir(), "store")
	if err := ingest(dir, sortedIDs(c), corpusPages(c), true); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, program := range []string{"", docJoin} {
		wantTable, wantCounts := runT9Small(t, storeEnv(st), program)
		tr := newTracer()
		env := storeEnv(st)
		tr.instrumentEnv(env)
		gotTable, gotCounts := runT9Small(t, env, program)
		if gotTable != wantTable || !reflect.DeepEqual(gotCounts, wantCounts) {
			t.Errorf("wrapped store Env differs on %q: counters %v, want %v", program, gotCounts, wantCounts)
		}
		if program == docJoin && (tr.call("store.index").Count == 0 || tr.call("store.postings").Count == 0) {
			t.Errorf("index calls %d, postings calls %d through the store wrappers; want both",
				tr.call("store.index").Count, tr.call("store.postings").Count)
		}
	}
}

// TestTimedFSSyncsLikeRealFS: a commit through the timing FS issues the
// same fsyncs (files and directories) as the crash-recording FS sees
// the store issue, so the traced run pays every fsync.
func TestTimedFSSyncsLikeRealFS(t *testing.T) {
	task, err := corpus.TaskByID("T9")
	if err != nil {
		t.Fatal(err)
	}
	c := task.Generate(40, 3)
	ids := sortedIDs(c)
	regen := corpusPages(task.Generate(40, 4))
	commit := func(opts store.OpenOptions, dir string) {
		st, err := store.Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		m, err := st.BeginMutation()
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range pickPages(ids, 4) {
			if err := m.Put(id, regen[id].raw); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	base := t.TempDir()
	timedDir, crashDir := filepath.Join(base, "timed"), filepath.Join(base, "crash")
	for _, dir := range []string{timedDir, crashDir} {
		if err := ingest(dir, ids, corpusPages(c), true); err != nil {
			t.Fatal(err)
		}
	}
	tr := newTracer()
	end := tr.begin("store.commit")
	commit(store.OpenOptions{FS: timedFS{FS: store.RealFS(true), t: tr}}, timedDir)
	end()
	cfs, err := fault.NewCrashFS(crashDir)
	if err != nil {
		t.Fatal(err)
	}
	commit(store.OpenOptions{FS: cfs}, crashDir)
	var syncs, syncDirs int64
	for _, op := range cfs.OpLog() {
		switch {
		case strings.HasPrefix(op, "sync "):
			syncs++
		case strings.HasPrefix(op, "syncdir "):
			syncDirs++
		}
	}
	if syncs == 0 || syncDirs == 0 {
		t.Fatalf("crash FS saw %d syncs and %d directory syncs; want both", syncs, syncDirs)
	}
	if got := tr.call("store.fsync").Count; got != syncs {
		t.Errorf("timing FS issued %d file syncs, want %d", got, syncs)
	}
	if got := tr.call("store.syncdir").Count; got != syncDirs {
		t.Errorf("timing FS issued %d directory syncs, want %d", got, syncDirs)
	}
}

// TestBenchmarkJSONMatchesMetrics: BENCHMARK.json names exactly the
// workloads and metrics this program reports, with the same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, want)
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit, Better string }
		want []metricDef
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program %d", len(c.got), len(c.want))
			continue
		}
		for i, m := range c.want {
			g := c.got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better() {
				t.Errorf("BENCHMARK.json metric %d = %s %s %s, want %s %s %s", i, g.Name, g.Unit, g.Better, m.name, m.unit, m.better())
			}
		}
	}
}

// TestDriftRecordsArePerProgram checks that a count record is named by
// the program under test, that a repeat reading differently fails the
// run, and that a record of another program is never compared.
func TestDriftRecordsArePerProgram(t *testing.T) {
	dir := t.TempDir()
	path := driftFile(dir, "t9-assist", 1)
	if path == "" || path != driftFile(dir, "t9-assist", 1) {
		t.Fatalf("driftFile = %q, want a stable name", path)
	}
	run := func(path string, v int64) error {
		r := newReport()
		r.count("t9/0", "result_tuples", v)
		return r.checkDrift(path)
	}
	if err := run(path, 10); err != nil {
		t.Fatal(err)
	}
	if err := run(path, 10); err != nil {
		t.Fatalf("same count again: %v", err)
	}
	if err := run(path, 11); err == nil {
		t.Fatal("a changed count for the same program was not flagged")
	}
	other := filepath.Join(dir, "counts-t9-assist-seed1-0123456789abcdef.json")
	if err := run(other, 12); err != nil {
		t.Fatalf("another program's record was compared: %v", err)
	}
	r := newReport()
	r.count("t9/0", "questions", 3)
	r.count("t9/0", "questions", 4)
	if err := r.checkDrift(""); err == nil {
		t.Fatal("drift within one run was not flagged")
	}
}
