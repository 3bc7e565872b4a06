package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"clonos/internal/codec"
	"clonos/internal/job"
	"clonos/internal/kafkasim"
	"clonos/internal/nexmark"
	"clonos/internal/synthetic"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wDrain    = "synthetic-drain"
	wQ8       = "nexmark-q8"
	wFailover = "synthetic-failover"
)

var workloadNames = []string{wDrain, wQ8, wFailover}

// Schedule of every repeat. Latency is measured on the open-loop feed,
// from warmup after it starts until failGap before the first backlog
// wave or the failure. An open-loop steady phase is followed by failGap
// of load, then the failure, then failTail of load while the job detects
// the failure, recovers and catches up. On the drain the backlog waves
// start drainLatency after Start, and the failure comes one steady phase
// later, by when the waves are drained.
const (
	warmup       = 500 * time.Millisecond
	failGap      = 500 * time.Millisecond
	failTail     = 1500 * time.Millisecond
	drainLatency = 3 * time.Second
)

// Sizes. The drain appends drainRecsPerSec records per second of steady
// phase in drainWaves waves: about half of what the seed engine drains on
// a 2-core host, so the waves are done well before the failure. The
// open-loop rates are a fifth of what the seed engine sustains there or
// less. kafkasim keeps every record, so more would cost hundreds of MiB.
const (
	drainRecsPerSec = 200_000
	drainWaves      = 5
	synthRate       = 20_000 // records/s: the drain's feed and synthetic-failover
	q8Rate          = 25_000 // events/s
	q8WindowMs      = 10
	q8ExtraBytes    = 128
)

// eventTimeBase is event time (Unix ms) of the first record of a feed.
// Event times are due offsets from it, so inputs do not depend on the
// wall clock; it is a multiple of the Q8 window, so windows start at
// feed offset 0.
const eventTimeBase = 1_700_000_000_000

// size scales a workload: an open-loop steady phase lasts steady, and
// the drain's backlog is drainRecsPerSec × steady records.
type size struct {
	steady time.Duration
}

// makePlan builds the named workload's plan from the seed.
func makePlan(name string, seed int64, sz size) (*plan, error) {
	switch name {
	case wDrain:
		return synthPlan(seed, sz, true), nil
	case wFailover:
		return synthPlan(seed, sz, false), nil
	case wQ8:
		return q8Plan(seed, sz)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// dueOffsets spaces n records rate per second apart, from offset 0.
func dueOffsets(n, rate int) []int64 {
	due := make([]int64, n)
	for i := range due {
		due[i] = int64(i) * int64(time.Second) / int64(rate)
	}
	return due
}

func eventTime(due int64) int64 { return eventTimeBase + due/int64(time.Millisecond) }

// synthPlan builds synthetic-drain (drain) or synthetic-failover. Record
// values are a seeded permutation, so the seed decides the key sequence
// each stage sees, and the oracle is that every value appended reaches
// the sink exactly once.
func synthPlan(seed int64, sz size, drain bool) *plan {
	scfg := synthetic.Config{Parallelism: 2, Depth: 3, Keys: 4096, StateBytesPerKey: 1024}
	p := &plan{cfg: job.DefaultConfig(), partitions: scfg.Parallelism, victim: "stage1"}
	var nFeed int
	if drain {
		// DSD=full: every determinant travels the whole depth of the
		// job, so the causal plane runs at its most expensive.
		scfg.Keys = 64
		p.cfg.DSD = 0
		p.waves = drainWaves
		p.waveRecs = int(drainRecsPerSec * sz.steady.Seconds() / drainWaves)
		p.wavesAt = int64(drainLatency)
		p.failAt = int64(drainLatency + sz.steady)
		// Feed enough for waves up to five times slower than planned.
		nFeed = int(float64(synthRate) * (drainLatency + 5*sz.steady + failTail).Seconds())
	} else {
		p.steadyEnd = int64(sz.steady)
		p.steadyInputs = int(float64(synthRate) * sz.steady.Seconds())
		p.failAt = int64(sz.steady + failGap)
		nFeed = int(float64(synthRate) * (sz.steady + failGap + failTail).Seconds())
	}
	p.stateKeys, p.stateBytes = int(scfg.Keys), scfg.StateBytesPerKey
	p.build = func(topic *kafkasim.Topic, sink *kafkasim.SinkTopic) (*job.Graph, error) {
		return synthetic.Build(topic, sink, scfg), nil
	}

	nBacklog := p.waves * p.waveRecs
	n := nBacklog + nFeed
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	index := make([]int32, n) // value -> position in the input
	for i, v := range perm {
		index[v] = int32(i)
	}
	rec := func(i int, ts int64) kafkasim.Record {
		v := perm[i]
		return kafkasim.Record{Key: uint64(v) % scfg.Keys, Ts: ts, Value: int64(v)}
	}
	p.backlogRec = func(i int) kafkasim.Record { return rec(i, eventTimeBase) }
	p.backlog = func(r kafkasim.SinkRecord) bool {
		v, ok := r.Value.(int64)
		return ok && v >= 0 && v < int64(n) && int(index[v]) < nBacklog
	}
	p.feedDue = dueOffsets(nFeed, synthRate)
	p.feed = make([]kafkasim.Record, nFeed)
	for i := range p.feed {
		p.feed[i] = rec(nBacklog+i, eventTime(p.feedDue[i]))
	}

	p.judge = func(recs []kafkasim.SinkRecord, run *jobRun) ([]output, check) {
		// Position i of the input was appended when its wave was, or
		// the feed got to it.
		waved := len(run.waveStart) * p.waveRecs
		appended := func(i int) bool { return i < waved || i >= nBacklog && i < nBacklog+run.fed }
		seen := make([]int32, n)
		outs := make([]output, 0, len(recs))
		c := check{Expected: waved + run.fed}
		for _, r := range recs {
			v, ok := r.Value.(int64)
			if !ok || v < 0 || v >= int64(n) || !appended(int(index[v])) {
				c.Wrong++
				continue
			}
			i := int(index[v])
			seen[i]++
			var due int64
			if i < nBacklog {
				due = run.waveStart[i/p.waveRecs].UnixNano()
			} else {
				due = run.feedStart.UnixNano() + p.feedDue[i-nBacklog]
			}
			outs = append(outs, output{Due: due, Arrival: arrivalNs(r.ArrivalMs)})
		}
		for i, k := range seen {
			switch {
			case k == 0 && appended(i):
				c.Missing++
			case k > 1:
				c.Duplicated += int(k - 1)
			}
		}
		return outs, c
	}
	return p
}

// q8Key identifies one Q8 output: the window (by its last event-time
// millisecond, the sink record's event time) and the joined row.
type q8Key struct {
	windowLast int64
	row        nexmark.Result
}

// q8Plan builds nexmark-q8: the NEXMark Q8 windowed join (persons who
// created an auction in the same tumbling window) fed open loop with
// padded events. Its failover phase fails join subtask 0 at a window
// boundary, so the window that closes at the failure instant waits for
// the recovery.
func q8Plan(seed int64, sz size) (*plan, error) {
	gcfg := nexmark.DefaultGeneratorConfig(seed)
	gcfg.ExtraBytes = q8ExtraBytes
	qcfg := nexmark.DefaultQueryConfig(2)
	qcfg.WindowMs = q8WindowMs
	window := int64(time.Duration(q8WindowMs) * time.Millisecond)

	// The failure falls in [failFrom, failFrom+failSearch).
	const failSearch = int64(500 * time.Millisecond)
	steadyEnd := int64(sz.steady) / window * window
	failFrom := steadyEnd + int64(failGap)
	n := int(int64(q8Rate) * (failFrom + failSearch + int64(failTail)) / int64(time.Second))
	due := dueOffsets(n, q8Rate)
	feed := genEvents(gcfg, due)

	victimWindows := make(map[int64]bool) // window last ms with a row on join subtask 0
	for k := range q8Reference(feed) {
		if k.row.A%uint64(qcfg.Parallelism) == 0 {
			victimWindows[k.windowLast] = true
		}
	}

	// Fail at the first window boundary after the gap whose closing
	// window has output on the failed subtask.
	failAt := int64(-1)
	for b := (failFrom + window - 1) / window * window; b < failFrom+failSearch; b += window {
		if victimWindows[eventTime(b)-1] {
			failAt = b
			break
		}
	}
	if failAt < 0 {
		return nil, fmt.Errorf("nexmark-q8: no window with output on the failed subtask after the steady phase")
	}
	steadyInputs := sort.Search(len(due), func(i int) bool { return due[i] >= steadyEnd })

	p := &plan{
		cfg:          job.DefaultConfig(),
		partitions:   qcfg.Parallelism,
		victim:       "q8-join",
		feed:         feed,
		feedDue:      due,
		steadyEnd:    steadyEnd,
		steadyInputs: steadyInputs,
		failAt:       failAt,
		build: func(topic *kafkasim.Topic, sink *kafkasim.SinkTopic) (*job.Graph, error) {
			return nexmark.Build("Q8", topic, sink, qcfg)
		},
	}
	p.judge = func(recs []kafkasim.SinkRecord, run *jobRun) ([]output, check) {
		ref := q8Reference(feed[:run.fed])
		feedStart := run.feedStart.UnixNano()
		got := make(map[q8Key]int, len(ref))
		outs := make([]output, 0, len(recs))
		for _, r := range recs {
			row, ok := r.Value.(nexmark.Result)
			if !ok {
				got[q8Key{windowLast: -1}]++
				continue
			}
			got[q8Key{r.EventTs, row}]++
			// A window's row is due when the window's end is: the
			// earliest instant an event that closes it can exist.
			end := (r.EventTs + 1 - eventTimeBase) * int64(time.Millisecond)
			outs = append(outs, output{Due: feedStart + end, Arrival: arrivalNs(r.ArrivalMs)})
		}
		return outs, compareCounts(ref, got)
	}
	return p, nil
}

// q8Reference computes Q8 over events: for every tumbling window, each
// auction joined with its seller when the seller registered in the same
// window. End of stream closes every window.
func q8Reference(events []kafkasim.Record) map[q8Key]int {
	type person struct {
		windowStart int64
		id          uint64
	}
	names := make(map[person]string)
	for _, r := range events {
		if ev := r.Value.(nexmark.Event); ev.Kind == nexmark.KindPerson {
			names[person{r.Ts - r.Ts%q8WindowMs, ev.Person.ID}] = ev.Person.Name
		}
	}
	ref := make(map[q8Key]int)
	for _, r := range events {
		ev := r.Value.(nexmark.Event)
		if ev.Kind != nexmark.KindAuction {
			continue
		}
		start := r.Ts - r.Ts%q8WindowMs
		if name, ok := names[person{start, ev.Auction.Seller}]; ok {
			ref[q8Key{start + q8WindowMs - 1, nexmark.Result{A: ev.Auction.Seller, B: int64(ev.Auction.ID), S: name}}]++
		}
	}
	return ref
}

// genEvents generates the NEXMark events due at the given offsets. Each
// event's event time is its due time. nexmark.GenEvent seeds a fresh
// random source per event, so generation is spread over every CPU; it
// runs before timing starts.
func genEvents(cfg nexmark.GeneratorConfig, due []int64) []kafkasim.Record {
	recs := make([]kafkasim.Record, len(due))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(due); i += workers {
				ts := eventTime(due[i])
				recs[i] = kafkasim.Record{Key: uint64(i), Ts: ts, Value: nexmark.GenEvent(cfg, int64(i), ts)}
			}
		}(w)
	}
	wg.Wait()
	return recs
}

// edgeCodec is the codec of the workload's busiest edge: the one every
// input record crosses first.
func edgeCodec(name string) codec.Codec {
	if name == wQ8 {
		return nexmark.EventCodec{}
	}
	return codec.Int64Codec{}
}
