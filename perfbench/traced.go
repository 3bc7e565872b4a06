package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"clonos/internal/checkpoint"
	"clonos/internal/job"
	"clonos/internal/kafkasim"
	"clonos/internal/nexmark"
	"clonos/internal/obs"
)

// tracedRun is what the traced repeats produced.
type tracedRun struct {
	repeats []repeatResult
	profile map[string]float64 // CPU share by layer (P)
}

// runTraced runs repeats jobs under the CPU profiler.
func runTraced(p *plan, o options) (*tracedRun, error) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	t := &tracedRun{}
	var err error
	for i := 0; i < repeats && err == nil; i++ {
		var r repeatResult
		if r, err = runRepeat(p); err == nil {
			t.repeats = append(t.repeats, r)
		}
	}
	pprof.StopCPUProfile()
	if err != nil {
		return nil, fmt.Errorf("traced repeat: %w", err)
	}
	path := filepath.Join(o.out, fmt.Sprintf("cpu-%s-%d.pprof", o.workload, o.seed))
	if err := os.WriteFile(path, prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if t.profile, err = foldProfile(prof.Bytes()); err != nil {
		return nil, err
	}
	return t, nil
}

// perLayer computes the per-layer metrics of a traced run: R from the
// traced jobs' exports, P from their profile, S from spans recorded
// afterwards, and the tracing overhead against the untraced repeats.
func perLayer(p *plan, o options, untraced *e2eResult, t *tracedRun) ([]row, error) {
	traced := &e2eResult{repeats: t.repeats}
	var rows []row

	lags := traced.pooled(func(r repeatResult) []float64 { return r.genLagMs })
	rows = append(rows, row{name: "kafkasim.gen_lag_p99_ms", unit: "ms", value: percentile(lags, 99), spread: summarize(lags)})

	views := make([]jobView, len(t.repeats))
	for i, r := range t.repeats {
		views[i] = r.job
	}
	rm := runtimeMetrics(views)
	rows = append(rows, rm...)

	for _, layer := range append(append([]string(nil), profileLayers...), "gc") {
		rows = append(rows, row{name: "cpu." + layer, unit: "share", value: t.profile[layer], spread: summary{N: 1, Median: t.profile[layer]}})
	}

	in := layerInputsFor(p, o.workload, t, rm)
	sp := newSpanRecorder()
	srows, err := runSpans(sp, in)
	if err != nil {
		return nil, err
	}
	rows = append(rows, srows...)
	if err := sp.writeFile(filepath.Join(o.out, fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed))); err != nil {
		return nil, err
	}

	// Tracing overhead: how much worse the traced end-to-end medians are
	// than the untraced ones, in percent of the untraced.
	ut, tt := untraced.table(), traced.table()
	for i, r := range ut {
		var pct float64
		switch r.name {
		case "throughput_rps":
			pct = (r.value - tt[i].value) / r.value * 100
		case "latency_p50_ms", "outage_ms":
			pct = (tt[i].value - r.value) / r.value * 100
		default:
			continue
		}
		name := "trace.overhead_" + strings.TrimSuffix(strings.TrimSuffix(r.name, "_rps"), "_ms") + "_pct"
		rows = append(rows, row{name: name, unit: "%", value: pct, spread: summary{N: 1, Median: pct}})
	}
	// A layer that did not run in this workload (no completed checkpoint
	// or recovery span, say) reports 0.
	for i := range rows {
		if math.IsNaN(rows[i].value) {
			rows[i].value = 0
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	return rows, nil
}

// layerInputsFor feeds the layer spans the workload's own inputs and
// shape, and the rates the traced jobs measured.
func layerInputsFor(p *plan, workload string, t *tracedRun, rm []row) layerInputs {
	var recs []kafkasim.Record
	for i := 0; i < min(p.waves*p.waveRecs, sinkSampleLen); i++ {
		recs = append(recs, p.backlogRec(i))
	}
	recs = append(recs, p.feed...)
	g, _ := p.build(kafkasim.NewTopic("in", p.partitions), kafkasim.NewSinkTopic(true))
	dsd := p.cfg.DSD
	if dsd <= 0 {
		dsd = g.Depth()
	}
	get := func(name string) float64 {
		for _, r := range rm {
			if r.name == name {
				return r.value
			}
		}
		return math.NaN()
	}
	in := layerInputs{
		recs:        recs[:min(len(recs), sinkSampleLen)],
		outs:        t.repeats[0].job.sinkSample,
		codec:       edgeCodec(workload),
		cfg:         p.cfg,
		depth:       g.Depth(),
		dsd:         dsd,
		detsPerRec:  get("causal.dets_per_rec"),
		bytesPerRec: get("netstack.bytes_per_rec"),
		recsPerSec:  median((&e2eResult{repeats: t.repeats}).pooled(func(r repeatResult) []float64 { return r.throughputRps })),
		parallelism: p.partitions,
	}
	switch workload {
	case wQ8:
		// One join task holds the rows of the open windows: a window's
		// persons and auctions, about 4 in 50 events, per subtask.
		in.stateKeys = q8Rate * q8WindowMs / 1000 * 4 / 50 / p.partitions
		in.stateValue = func(k int) any {
			return nexmark.Result{A: uint64(k), B: int64(k), S: "Peter Shultz"}
		}
	default:
		in.stateKeys = p.stateKeys / p.partitions
		in.stateValue = func(k int) any {
			b := make([]byte, p.stateBytes)
			for i := range b {
				b[i] = byte(k + i)
			}
			return b
		}
	}
	return in
}

// runtimeMetrics computes the R metrics: counters and spans the runtime
// exports, read after each traced job, as medians over the jobs.
func runtimeMetrics(views []jobView) []row {
	type def struct {
		name, unit string
		f          func(v jobView) float64
	}
	defs := []def{
		{"netstack.send_blocked_share", "share", func(v jobView) float64 {
			return sum(v.obs, "clonos_netstack_send_blocked_ns_total") / 1e9 / (v.wallS * float64(v.tasks))
		}},
		{"buffer.wait_share", "share", func(v jobView) float64 {
			return sum(v.obs, "clonos_buffer_wait_ns_total") / 1e9 / (v.wallS * float64(v.tasks))
		}},
		{"netstack.bytes_per_rec", "B", func(v jobView) float64 {
			return sum(v.obs, "clonos_task_bytes_out_total") / float64(v.inputs)
		}},
		{"causal.dets_per_rec", "count", func(v jobView) float64 {
			return sum(v.obs, "clonos_causal_determinants_total") / float64(v.inputs)
		}},
		{"causal.delta_bytes_per_rec", "B", func(v jobView) float64 {
			return sum(v.obs, "clonos_causal_delta_bytes_total") / float64(v.inputs)
		}},
		{"inflight.spill_ratio", "ratio", func(v jobView) float64 {
			return ratio(sum(v.obs, "clonos_inflight_spilled_total"), sum(v.obs, "clonos_inflight_appended_total"))
		}},
		{"inflight.spilled_mib", "MiB", func(v jobView) float64 {
			return sum(v.obs, "clonos_inflight_spilled_bytes_total") / (1 << 20)
		}},
		{"checkpoint.duration_p50_ms", "ms", func(v jobView) float64 { return percentile(checkpointMs(v), 50) }},
		{"checkpoint.duration_p99_ms", "ms", func(v jobView) float64 { return percentile(checkpointMs(v), 99) }},
		{"checkpoint.align_p99_ms", "ms", func(v jobView) float64 {
			return histQuantile(v.obs, "clonos_checkpoint_align_seconds", 0.99) * 1e3
		}},
		{"checkpoint.completed_ratio", "ratio", func(v jobView) float64 {
			return ratio(sum(v.obs, "clonos_checkpoint_completed_total"), sum(v.obs, "clonos_checkpoint_triggered_total"))
		}},
		{"checkpoint.state_kib_per_cp", "KiB", func(v jobView) float64 {
			return ratio(sum(v.obs, "clonos_checkpoint_state_bytes_total"), sum(v.obs, "clonos_checkpoint_completed_total")) / 1024
		}},
		{"operator.busy_share_max", "share", func(v jobView) float64 {
			busiest := 0.0
			for _, m := range family(v.obs, "clonos_task_process_seconds") {
				busiest = math.Max(busiest, m.Sum)
			}
			return busiest / v.wallS
		}},
		{"operator.process_p99_us", "us", func(v jobView) float64 {
			return histQuantile(v.obs, "clonos_task_process_seconds", 0.99) * 1e6
		}},
		{"recovery.detect_ms", "ms", func(v jobView) float64 { return detectMs(v) }},
		{"recovery.drain_after_detect_ms", "ms", func(v jobView) float64 { return v.outageMs - detectMs(v) }},
		{"recovery.replay_served", "count", func(v jobView) float64 { return sum(v.obs, "clonos_replay_served_total") }},
		{"recovery.dedup_discarded", "count", func(v jobView) float64 { return sum(v.obs, "clonos_dedup_discarded_total") }},
	}
	for _, phase := range []string{"standby-activated", "determinants-retrieved", "network-reconfigured", "replay-done", "caught-up"} {
		phase := phase
		defs = append(defs, def{"recovery." + strings.ReplaceAll(phase, "-", "_") + "_ms", "ms", func(v jobView) float64 { return recoveryPhaseMs(v, phase) }})
	}
	rows := make([]row, 0, len(defs))
	for _, d := range defs {
		xs := make([]float64, len(views))
		for i, v := range views {
			xs[i] = d.f(v)
		}
		rows = append(rows, row{name: d.name, unit: d.unit, value: median(xs), spread: summarize(xs)})
	}
	return rows
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func family(s obs.RegistrySnapshot, name string) []obs.MetricSnapshot {
	for _, f := range s.Families {
		if f.Name == name {
			return f.Metrics
		}
	}
	return nil
}

// sum adds a counter or gauge family over all its label sets.
func sum(s obs.RegistrySnapshot, name string) float64 {
	var t float64
	for _, m := range family(s, name) {
		if m.Value != nil {
			t += *m.Value
		}
	}
	return t
}

// histQuantile merges a histogram family over its label sets and returns
// the q-quantile, interpolated linearly inside the bucket that holds it
// (the rule of Prometheus' histogram_quantile). Values in the overflow
// bucket report the largest finite bound.
func histQuantile(s obs.RegistrySnapshot, name string, q float64) float64 {
	var bounds []float64
	var cum []float64
	for _, m := range family(s, name) {
		for i, b := range m.Buckets {
			if i == len(cum) {
				le, err := strconv.ParseFloat(b.LE, 64)
				if err != nil {
					le = math.Inf(1)
				}
				bounds = append(bounds, le)
				cum = append(cum, 0)
			}
			cum[i] += float64(b.Count)
		}
	}
	if len(cum) == 0 || cum[len(cum)-1] == 0 {
		return 0
	}
	rank := q * cum[len(cum)-1]
	lower, below := 0.0, 0.0
	for i, c := range cum {
		if c >= rank {
			if math.IsInf(bounds[i], 1) {
				return lower
			}
			if c == below {
				return bounds[i]
			}
			return lower + (bounds[i]-lower)*(rank-below)/(c-below)
		}
		lower, below = bounds[i], c
	}
	return lower
}

// checkpointMs returns the trigger-to-completion times of the completed
// checkpoints.
func checkpointMs(v jobView) []float64 {
	var xs []float64
	for _, s := range v.spans {
		if s.Name == checkpoint.SpanName && s.Attr("aborted") == "" {
			xs = append(xs, float64(s.Duration())/1e6)
		}
	}
	return xs
}

// detectMs is the time from the injected failure until the runtime
// detected it.
func detectMs(v jobView) float64 {
	var injected, detected time.Time
	for _, e := range v.events {
		switch {
		case e.Kind == job.EventFailureInjected && injected.IsZero():
			injected = e.Time
		case e.Kind == job.EventFailureDetected && detected.IsZero():
			detected = e.Time
		}
	}
	if injected.IsZero() || detected.IsZero() {
		return math.NaN()
	}
	return float64(detected.Sub(injected)) / 1e6
}

// recoveryPhaseMs is the duration of one phase of the (first completed)
// recovery span: from the previous mark, or from detection, to this one.
func recoveryPhaseMs(v jobView, phase string) float64 {
	for _, s := range v.spans {
		if s.Name != job.RecoverySpanName || s.Attr("aborted") != "" {
			continue
		}
		if d, ok := s.Phase(phase); ok {
			return float64(d) / 1e6
		}
	}
	return math.NaN()
}
