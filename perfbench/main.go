// Command perfbench is the repository benchmark. It drives iFlex only
// through its packages' public functions on three closed-loop workloads,
// generates every input from the workload seed it is given, checks every
// output, and prints each metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured with
// no instrumentation. With -trace 1 the run records spans at the public
// seams (see trace.go), writes them to the work directory, and reports
// the per-layer metrics instead.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload t9-assist --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one benchmark run's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// work is the directory for stores, span files and the
	// exact-repeat count records; it lives inside the checkout.
	work string
	// out receives the human-readable report.
	out io.Writer
}

// workload is one named input set. run fills the report; a returned
// error is a failed output check or a run that could not proceed.
type workload struct {
	name string
	run  func(cfg config, rep *report) error
}

var workloads = []workload{
	{"t9-assist", runT9Assist},
	{"extract-serve", runExtractServe},
	{"live-books", runLiveBooks},
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: t9-assist, extract-serve or live-books")
	seed := fs.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Int("seconds", 10, "how long the timed loop measures")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics untraced, 1 = per-layer metrics from a traced run")
	work := fs.String("work", filepath.Join(".bench_build", "perfbench"), "work directory for stores, spans and count records")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (t9-assist, extract-serve, live-books), -seconds >= 1 and -trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		work:    *work,
		out:     stdout,
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%d cpus=%d\n",
		w.name, cfg.seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	rep := newReport()
	if cfg.trace {
		// A layer the workload does not use reads 0.
		for _, m := range perLayer {
			rep.layer[m.name] = 0
		}
	}
	err := w.run(cfg, rep)
	// Leave no dirty data for the next run's timed loop to write back.
	syscall.Sync()
	if err == nil {
		err = rep.checkDrift(driftFile(cfg.work, w.name, cfg.seed))
	}
	if err != nil {
		var ce checkError
		if !errors.As(err, &ce) {
			// Nothing was measured: no result line.
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: %s: output check failed: %v\n", w.name, err)
		rep.correct = false
	}
	if !rep.correct {
		rep.emit(stdout, nil)
		return 1
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	if err := rep.emit(stdout, want); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

// checkError marks a failed output check: the run is reported with
// correct=false instead of as a statistic.
type checkError struct{ msg string }

func (e checkError) Error() string { return e.msg }

func checkFailed(format string, args ...any) error {
	return checkError{fmt.Sprintf(format, args...)}
}

// report accumulates one run's outcome.
type report struct {
	correct   bool
	attempted int64
	failed    int64
	e2e       map[string]float64
	layer     map[string]float64
	// counts holds the exact-repeat counters per unit of work (a
	// session, a refresh cycle), keyed "<unit>/<counter>".
	counts map[string]int64
	// drift lists counters that read differently for the same unit
	// within this run (the traced run repeats units untraced).
	drift []string
}

func newReport() *report {
	return &report{
		correct: true,
		e2e:     map[string]float64{},
		layer:   map[string]float64{},
		counts:  map[string]int64{},
	}
}

// op records one attempted operation and whether it failed.
func (r *report) op(failed bool) {
	r.attempted++
	if failed {
		r.failed++
	}
}

// count records one exact-repeat counter of a unit of work.
func (r *report) count(unit, name string, v int64) {
	k := unit + "/" + name
	if p, ok := r.counts[k]; ok && p != v {
		r.drift = append(r.drift, fmt.Sprintf("%s: %d, then %d in the same run", k, p, v))
	}
	r.counts[k] = v
}

// driftFile names the exact-repeat count record of a workload and seed
// for the program under test: the hash of the running binary, which is
// built from the repository's source and this benchmark's. Runs of
// another program, say the parent of a change that rightly moves a
// count, keep their own record and are never compared with this one.
// When the binary cannot be read it returns "": the run is then
// compared only with itself.
func driftFile(work, name string, seed int64) string {
	exe, err := os.Executable()
	if err != nil {
		return ""
	}
	f, err := os.Open(exe)
	if err != nil {
		return ""
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return ""
	}
	id := hex.EncodeToString(h.Sum(nil))[:16]
	return filepath.Join(work, fmt.Sprintf("counts-%s-seed%d-%s.json", name, seed, id))
}

// checkDrift compares this run's exact-repeat counters with the ones an
// earlier run of the same program, workload and seed recorded in path, then
// merges this run's into the file. A counter that repeats a unit but
// reads differently is drift: the program is not deterministic where
// the benchmark relies on it, and the run fails its checks. With path
// "" only the repeats within this run are compared.
func (r *report) checkDrift(path string) error {
	drift := r.drift
	if path != "" {
		prev := map[string]int64{}
		if b, err := os.ReadFile(path); err == nil {
			if err := json.Unmarshal(b, &prev); err != nil {
				return fmt.Errorf("reading %s: %w", path, err)
			}
		}
		for k, v := range r.counts {
			if p, ok := prev[k]; ok && p != v {
				drift = append(drift, fmt.Sprintf("%s: %d before, %d now", k, p, v))
			}
			prev[k] = v
		}
		b, err := json.Marshal(prev)
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return err
		}
	}
	if len(drift) > 0 {
		sort.Strings(drift)
		return checkFailed("exact-repeat counters drifted for this seed: %v", drift)
	}
	return nil
}

// metricOut is one metric in the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints every wanted metric by name with its unit, then the
// result line. It fails when the workload did not produce one of them.
func (r *report) emit(w io.Writer, want []metricDef) error {
	src := r.e2e
	if len(want) > 0 && want[0].layer {
		src = r.layer
	}
	metrics := map[string]metricOut{}
	var missing []string
	for _, m := range want {
		v, ok := src[m.name]
		if !ok {
			missing = append(missing, m.name)
			continue
		}
		metrics[m.name] = metricOut{Value: v, Unit: m.unit}
		if m.layer {
			fmt.Fprintf(w, "  %-28s %14.6g %-6s should move %s on %s\n", m.name, v, m.unit, m.moves, m.on)
		} else {
			fmt.Fprintf(w, "  %-28s %14.6g %s\n", m.name, v, m.unit)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("workload did not report %v", missing)
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{r.correct, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return nil
}

// beforeTiming runs just before a timed loop. It flushes the page
// cache's dirty data, so that the loop does not pay for the write-back
// of set-up's (or an earlier run's) unsynced files; returns freed heap to
// the system; and, on Linux, resets the process's peak resident set to
// its current size, so that peakRSSMB covers only what runs after it:
// the measured work, not set-up or the benchmark's reference runs.
func beforeTiming() {
	syscall.Sync()
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set size in MiB since the
// last beforeTiming (VmHWM), or over its lifetime where /proc is missing.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
