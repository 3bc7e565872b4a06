package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"clonos/internal/job"
	"clonos/internal/kafkasim"
	"clonos/internal/obs"
	"clonos/internal/types"
)

// plan is everything one repeat of a workload runs, made from the seed
// before any timing starts. A repeat runs one job through two phases:
//
//   - steady: the drain of backlog waves, each appended at once when the
//     sink holds the one before (synthetic-drain), or the first part of
//     an open-loop feed;
//   - failover: one task is failed while an open-loop feed runs, and the
//     feed runs on while the job detects the failure, recovers and
//     catches up.
type plan struct {
	cfg        job.Config
	partitions int
	build      func(topic *kafkasim.Topic, sink *kafkasim.SinkTopic) (*job.Graph, error)
	victim     string // vertex name; subtask 0 is failed
	// stateKeys × stateBytes is a synthetic stage's keyed state.
	stateKeys, stateBytes int

	// waves × waveRecs backlog records, made by backlogRec: the first wave
	// is appended wavesAt after Start, each next one when the sink holds
	// the records of all before it; backlog tells them apart at the sink.
	// Each repeat makes them afresh rather than holding a copy.
	waves, waveRecs int
	wavesAt         int64
	backlogRec      func(i int) kafkasim.Record
	backlog         func(r kafkasim.SinkRecord) bool

	// feed is appended open loop from when Start returns until failTail
	// after the failure; feedDue holds each record's due offset from the
	// feed start, in ns.
	feed    []kafkasim.Record
	feedDue []int64
	// Without waves, the outputs due in the first steadyEnd of the feed
	// measure throughput; steadyInputs is the number of feed records due
	// before steadyEnd.
	steadyEnd    int64
	steadyInputs int
	// failAt is the failure's offset from the feed start, ns, or with
	// waves from Start, but at least failGap after the last wave is in
	// and at the latest failTail before the feed ends.
	// The runtime's heartbeat and failure-detector clocks start with the
	// job, so a failure at a fixed offset from Start falls at the same
	// phase of them, and detection takes as long, in every repeat.
	failAt int64

	// judge maps the sink contents to due/arrival pairs and checks them
	// against the reference output.
	judge func(recs []kafkasim.SinkRecord, run *jobRun) ([]output, check)
}

// repeatResult is what one repeat measured.
type repeatResult struct {
	setupS      float64
	liveHeapMiB float64
	failedAtS   float64 // when the failure was injected, after Start
	// throughputRps holds one value per wave, or one for an open-loop
	// steady phase.
	throughputRps []float64
	latMs         []float64
	outageMs      float64
	genLagMs      []float64
	check         check
	problems      []error // see jobRun.problems; for the report
	job           jobView
}

// jobView is what the runtime exported about one repeat, read after the
// run (the R source of the per-layer metrics).
type jobView struct {
	obs      obs.RegistrySnapshot
	spans    []obs.SpanRecord
	events   []job.Event
	wallS    float64
	inputs   int
	tasks    int
	outageMs float64
	// sinkSample is a prefix of the sink contents, the records the
	// sink-append span replays.
	sinkSample []kafkasim.SinkRecord
}

const (
	sinkSampleLen = 8192
	waveTimeout   = 20 * time.Second
	finishTimeout = 20 * time.Second
)

// runRepeat runs one repeat of p on a fresh job and judges its output.
func runRepeat(p *plan) (repeatResult, error) {
	sink := kafkasim.NewSinkTopic(true)
	res, run, err := runJob(p, sink)
	if err != nil {
		return res, err
	}
	recs := sink.All()
	outs, chk := p.judge(recs, &run)
	chk.Errors += len(run.problems)
	res.problems = run.problems
	res.check = chk
	res.job.sinkSample = append([]kafkasim.SinkRecord(nil), recs[:min(len(recs), sinkSampleLen)]...)

	if res.outageMs, err = outageMs(outs, run.failure.UnixNano()); err != nil {
		return res, err
	}
	res.job.outageMs = res.outageMs
	res.failedAtS = run.failure.Sub(run.t0).Seconds()
	throughput := func(from, to int64, inputs int) error {
		last, ok := lastArrival(outs, from, to)
		if !ok {
			return fmt.Errorf("no steady-phase output reached the sink")
		}
		res.throughputRps = append(res.throughputRps, float64(inputs)/(float64(last-from)/1e9))
		return nil
	}
	fs := run.feedStart.UnixNano()
	for _, w := range run.waveStart {
		at := w.UnixNano()
		if err := throughput(at, at+1, p.waveRecs); err != nil {
			return res, err
		}
	}
	if p.waves == 0 {
		if err := throughput(fs, fs+p.steadyEnd+1, p.steadyInputs); err != nil {
			return res, err
		}
	}
	// Latency is measured on the open-loop feed, up to failGap before the
	// first wave or the failure: later outputs may be held up by them.
	until := run.failure
	if len(run.waveStart) > 0 {
		until = run.waveStart[0]
	}
	res.latMs = latenciesMs(outs, fs+int64(warmup), until.UnixNano()-int64(failGap)+1)
	return res, nil
}

// jobRun holds the instants of one job's run.
type jobRun struct {
	t0        time.Time   // Start was called
	waveStart []time.Time // each backlog wave was appended
	feedStart time.Time   // the open-loop feed started
	fed       int         // feed records appended
	failure   time.Time   // the failure was injected
	// problems are runtime errors, a wave that never fully reached the
	// sink, a failure after the feed ended, and a job that did not
	// finish; each counts as a failure.
	problems []error
}

// runJob runs one job over sink: set-up, the steady phase, the failover
// phase, and end of input. It returns once the job is stopped.
func runJob(p *plan, sink *kafkasim.SinkTopic) (repeatResult, jobRun, error) {
	var res repeatResult
	var run jobRun
	topic := kafkasim.NewTopic("in", p.partitions)
	g, err := p.build(topic, sink)
	if err != nil {
		return res, run, err
	}
	victim, err := taskOf(g, p.victim)
	if err != nil {
		return res, run, err
	}
	// Collect the previous repeat's garbage now, so that work does not
	// land in this repeat's measured phases.
	runtime.GC()

	setupStart := time.Now()
	rt, err := job.NewRuntime(g, p.cfg)
	if err != nil {
		return res, run, fmt.Errorf("new runtime: %w", err)
	}
	run.t0 = time.Now()
	if err := rt.Start(); err != nil {
		return res, run, fmt.Errorf("start: %w", err)
	}
	res.setupS = time.Since(setupStart).Seconds()
	defer rt.Stop()

	run.feedStart = time.Now()
	f := newFeeder(topic, p.feed, p.feedDue)
	f.start(run.feedStart)
	failAt := run.feedStart.Add(time.Duration(p.failAt))
	if p.waves > 0 {
		time.Sleep(time.Until(run.t0.Add(time.Duration(p.wavesAt))))
		appendWaves(p, topic, sink, &run)
		failAt = latest(run.t0.Add(time.Duration(p.failAt)), time.Now().Add(failGap))
		// A job too slow to drain the waves in time is failed while the
		// feed still runs, with backlog left.
		if last := run.feedStart.Add(time.Duration(p.feedDue[len(p.feedDue)-1]) - failTail); failAt.After(last) {
			failAt = last
		}
	}
	time.Sleep(time.Until(failAt))
	run.failure = time.Now()
	if end := run.feedStart.Add(time.Duration(p.feedDue[len(p.feedDue)-1])); run.failure.After(end) {
		run.problems = append(run.problems, fmt.Errorf("the failure came %v after the feed ended: the backlog drained too slowly to measure the outage", run.failure.Sub(end)))
	}
	injectErr := rt.InjectFailure(victim)
	run.fed = f.haltAt(run.failure.Add(failTail))
	topic.Close()
	if injectErr != nil {
		return res, run, fmt.Errorf("inject failure: %w", injectErr)
	}
	finished := rt.WaitFinished(finishTimeout)
	end := time.Now()
	res.liveHeapMiB = liveHeapMiB()

	run.problems = append(run.problems, rt.Errors()...)
	if !finished {
		run.problems = append(run.problems, fmt.Errorf("job did not finish within %v of end of input; runtime state:\n%s", finishTimeout, rt.DebugString()))
	}
	res.genLagMs = f.lag[:run.fed]
	res.job = jobView{
		obs:    rt.Obs().Snapshot(),
		spans:  rt.Tracer().Spans(),
		events: rt.Events(),
		wallS:  end.Sub(run.t0).Seconds(),
		inputs: p.waves*p.waveRecs + run.fed,
		tasks:  len(g.AllTaskIDs()),
	}
	return res, run, nil
}

// appendWaves appends each backlog wave at once when the sink holds every
// record of the wave before it, and returns when the last wave is in.
func appendWaves(p *plan, topic *kafkasim.Topic, sink *kafkasim.SinkTopic, run *jobRun) {
	seen, arrived := 0, 0 // sink records inspected; backlog records among them
	for k := 0; k < p.waves; k++ {
		run.waveStart = append(run.waveStart, time.Now())
		for i := k * p.waveRecs; i < (k+1)*p.waveRecs; i++ {
			topic.Append(p.backlogRec(i))
		}
		want := (k + 1) * p.waveRecs
		done := waitFor(waveTimeout, func() bool {
			for _, r := range sink.Since(seen) {
				seen++
				if p.backlog(r) {
					arrived++
				}
			}
			return arrived >= want
		})
		if !done {
			run.problems = append(run.problems, fmt.Errorf("wave %d: %d of %d backlog records reached the sink within %v", k, arrived, want, waveTimeout))
			return
		}
	}
}

func latest(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// waitFor polls cond every millisecond until it holds or timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// setupOnce creates and starts a job on p's graph with an empty input and
// stops it again, returning the time from NewRuntime until Start
// returned. It adds set-up samples without running a whole repeat.
func setupOnce(p *plan) (float64, error) {
	g, err := p.build(kafkasim.NewTopic("in", p.partitions), kafkasim.NewSinkTopic(true))
	if err != nil {
		return 0, err
	}
	t := time.Now()
	rt, err := job.NewRuntime(g, p.cfg)
	if err != nil {
		return 0, fmt.Errorf("new runtime: %w", err)
	}
	if err := rt.Start(); err != nil {
		return 0, fmt.Errorf("start: %w", err)
	}
	s := time.Since(t).Seconds()
	rt.Stop()
	return s, nil
}

// taskOf returns subtask 0 of the named vertex.
func taskOf(g *job.Graph, vertex string) (types.TaskID, error) {
	for _, v := range g.Vertices {
		if v.Name == vertex {
			return types.TaskID{Vertex: v.ID, Subtask: 0}, nil
		}
	}
	return types.TaskID{}, fmt.Errorf("no vertex %q in the job", vertex)
}

// liveHeapMiB forces a collection and returns the heap it found live,
// from the runtime/metrics metric /gc/heap/live:bytes. At the end of a
// repeat that is the job's state plus every input and output record, which
// kafkasim keeps.
func liveHeapMiB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return math.NaN()
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
