// Command perfbench is the repository's benchmark. It runs one workload
// against the engine's public API, checks the job's output against a
// reference, and prints every end-to-end metric (untraced run) or every
// per-layer metric (traced run) by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload synthetic-drain --seed 1 --seconds 15 --trace 0
//
// README.md next to this file records why each workload exists and which
// end-to-end metric each per-layer metric should move.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// repeats is the number of fresh jobs one run measures; the end-to-end
// metrics are medians over them, and latency percentiles are taken over
// the samples of all of them.
const repeats = 5

// extraSetups adds set-up samples from jobs that are started and stopped
// at once, so setup_s is a median of extraSetups+repeats set-ups.
const extraSetups = 10

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are made from")
	flag.IntVar(&o.seconds, "seconds", 15, "measured seconds, split evenly over the repeats")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics; 0: end-to-end metrics")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for temporary files, the CPU profile and the span dump")
	flag.Parse()
	o.trace = trace == 1
	// Go's default ignores a container's CPU quota but honours an
	// inherited GOMAXPROCS; the benchmark runs on every CPU it sees.
	runtime.GOMAXPROCS(runtime.NumCPU())
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(o options, stdout io.Writer) error {
	if o.seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	tmp := filepath.Join(o.out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	// The engine's in-flight logs spill to fresh temporary directories;
	// keep them inside the output directory.
	if err := os.Setenv("TMPDIR", tmp); err != nil {
		return err
	}
	sz := size{steady: time.Duration(o.seconds) * time.Second / repeats}
	p, err := makePlan(o.workload, o.seed, sz)
	if err != nil {
		return err
	}

	w := bufio.NewWriter(stdout)
	defer w.Flush()
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%d trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintf(w, "host: %s\n", hostFingerprint())

	e2e, traced, err := measure(p, o)
	if err != nil {
		return err
	}
	res := result{Correct: e2e.check.failed() == 0, Attempted: e2e.check.Expected, Failed: e2e.check.failed()}
	if res.Attempted == 0 {
		return errors.New("no output was expected")
	}
	fmt.Fprintf(w, "repeats=%d (medians over repeats; latency percentiles over the samples of all repeats)\n", len(e2e.repeats))
	printTable(w, e2e.table())
	for i, r := range e2e.repeats {
		c := r.check
		fmt.Fprintf(w, "repeat %d: throughput_rps=%.6g outage_ms=%.6g detect_ms=%.6g failed_at_s=%.4g setup_s=%.4g live_heap_mib=%.5g latency_samples=%d expected=%d missing=%d duplicated=%d wrong=%d errors=%d\n",
			i, median(r.throughputRps), r.outageMs, detectMs(r.job), r.failedAtS, r.setupS, r.liveHeapMiB, len(r.latMs), c.Expected, c.Missing, c.Duplicated, c.Wrong, c.Errors)
		for _, err := range r.problems {
			fmt.Fprintf(w, "repeat %d: %v\n", i, err)
		}
	}
	lags := e2e.pooled(func(r repeatResult) []float64 { return r.genLagMs })
	if tail, ok := tailPercentile(len(lags)); ok {
		fmt.Fprintf(w, "generator lag: p50=%.4g ms p%g=%.4g ms over %d records\n", percentile(lags, 50), tail, percentile(lags, tail), len(lags))
	}
	lat := e2e.pooled(func(r repeatResult) []float64 { return r.latMs })
	if tail, ok := tailPercentile(len(lat)); ok {
		fmt.Fprintf(w, "latency: p50=%.6g ms p%g=%.6g ms over %d samples\n", percentile(lat, 50), tail, percentile(lat, tail), len(lat))
	}
	c := e2e.check
	fmt.Fprintf(w, "check: expected=%d missing=%d duplicated=%d wrong=%d runtime_errors=%d failed_frac=%g\n",
		c.Expected, c.Missing, c.Duplicated, c.Wrong, c.Errors, c.failedFrac())

	if o.trace {
		layers, err := perLayer(p, o, e2e, traced)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "per-layer metrics (traced repeats; S: span medians, R: runtime exports, P: CPU profile):")
		printTable(w, layers)
		res.Metrics = values(layers)
	} else {
		res.Metrics = values(e2e.table())
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return w.Flush()
}

// row is one printed metric with the spread of its samples in this run.
type row struct {
	name, unit string
	value      float64
	spread     summary
}

func values(rows []row) map[string]metric {
	m := make(map[string]metric, len(rows))
	for _, r := range rows {
		m[r.name] = metric{Value: r.value, Unit: r.unit}
	}
	return m
}

func printTable(w io.Writer, rows []row) {
	fmt.Fprintf(w, "  %-36s %-8s %14s %14s %12s %8s\n", "metric", "unit", "value", "median", "iqr", "samples")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-36s %-8s %14.6g %14.6g %12.4g %8d\n", r.name, r.unit, r.value, r.spread.Median, r.spread.IQR, r.spread.N)
	}
}

// hostFingerprint names what the numbers were measured on.
func hostFingerprint() string {
	return fmt.Sprintf("go=%s os=%s/%s cpu=%q nproc=%d gomaxprocs=%d",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// e2eResult aggregates the repeats of one run.
type e2eResult struct {
	repeats []repeatResult
	setupS  []float64
	check   check
}

func (e *e2eResult) pick(f func(r repeatResult) float64) []float64 {
	xs := make([]float64, len(e.repeats))
	for i, r := range e.repeats {
		xs[i] = f(r)
	}
	return xs
}

// table returns the end-to-end metrics: medians over the repeats, and
// latency percentiles over the samples of all repeats (a repeat holds too
// few Q8 windows for a tail of its own).
func (e *e2eResult) table() []row {
	tp := e.pooled(func(r repeatResult) []float64 { return r.throughputRps })
	lat := e.pooled(func(r repeatResult) []float64 { return r.latMs })
	out := e.pick(func(r repeatResult) float64 { return r.outageMs })
	heap := e.pick(func(r repeatResult) float64 { return r.liveHeapMiB })
	return []row{
		{name: "throughput_rps", unit: "rec/s", value: median(tp), spread: summarize(tp)},
		{name: "latency_p50_ms", unit: "ms", value: percentile(lat, 50), spread: summarize(lat)},
		{name: "latency_p95_ms", unit: "ms", value: percentile(lat, 95), spread: summarize(lat)},
		{name: "outage_ms", unit: "ms", value: median(out), spread: summarize(out)},
		{name: "setup_s", unit: "s", value: median(e.setupS), spread: summarize(e.setupS)},
		{name: "live_heap_mib", unit: "MiB", value: median(heap), spread: summarize(heap)},
	}
}

func (e *e2eResult) pooled(f func(r repeatResult) []float64) []float64 {
	var all []float64
	for _, r := range e.repeats {
		all = append(all, f(r)...)
	}
	return all
}

// measure runs the repeats of one run. A traced run then runs as many
// again under the CPU profiler; the end-to-end metrics are always those
// of the untraced repeats.
func measure(p *plan, o options) (*e2eResult, *tracedRun, error) {
	e := &e2eResult{}
	for i := 0; i < extraSetups; i++ {
		s, err := setupOnce(p)
		if err != nil {
			return nil, nil, err
		}
		e.setupS = append(e.setupS, s)
	}
	for i := 0; i < repeats; i++ {
		r, err := runRepeat(p)
		if err != nil {
			return nil, nil, fmt.Errorf("repeat %d: %w", i, err)
		}
		e.repeats = append(e.repeats, r)
		e.setupS = append(e.setupS, r.setupS)
		e.check.add(r.check)
	}
	if n := len(e.pooled(func(r repeatResult) []float64 { return r.latMs })); n < 1000 {
		return nil, nil, fmt.Errorf("%d latency samples are too few for a tail (need 1000)", n)
	}
	if !o.trace {
		return e, nil, nil
	}
	t, err := runTraced(p, o)
	if err != nil {
		return nil, nil, err
	}
	for _, r := range t.repeats {
		e.check.add(r.check)
	}
	return e, t, nil
}
