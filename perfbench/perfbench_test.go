package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
	"time"

	"clonos/internal/kafkasim"
	"clonos/internal/obs"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 2.5}, {100, 4}, {25, 1.75}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

const ms = int64(time.Millisecond)

func TestOutageMs(t *testing.T) {
	failure := 1000 * ms
	outs := []output{
		{Due: 900 * ms, Arrival: 905 * ms},   // delivered before the failure
		{Due: 990 * ms, Arrival: 1700 * ms},  // stuck behind the failed task
		{Due: 1000 * ms, Arrival: 1650 * ms}, // due at the failure instant
		{Due: 1001 * ms, Arrival: 1900 * ms}, // due after: not part of the outage
	}
	got, err := outageMs(outs, failure)
	if err != nil {
		t.Fatal(err)
	}
	if got != 700 {
		t.Errorf("outage = %v ms, want 700", got)
	}
	if _, err := outageMs(outs[3:], failure); err == nil {
		t.Error("outage without any output due before the failure did not fail")
	}
}

func TestLatencyWindow(t *testing.T) {
	outs := []output{{Due: 0, Arrival: 5 * ms}, {Due: 10 * ms, Arrival: 12 * ms}, {Due: 20 * ms, Arrival: 40 * ms}}
	got := latenciesMs(outs, 0, 20*ms)
	if len(got) != 2 || got[0] != 5 || got[1] != 2 {
		t.Errorf("latencies = %v, want [5 2]", got)
	}
	if last, ok := lastArrival(outs, 5*ms, 21*ms); !ok || last != 40*ms {
		t.Errorf("lastArrival = %v, %v; want %v", last, ok, 40*ms)
	}
}

func TestArrivalMidpoint(t *testing.T) {
	if got := arrivalNs(7); got != 7*ms+ms/2 {
		t.Errorf("arrivalNs(7) = %d", got)
	}
}

func TestCompareCountsFailedFrac(t *testing.T) {
	want := map[string]int{"a": 1, "b": 1, "c": 2}
	got := map[string]int{"a": 1, "b": 3, "c": 1, "x": 1}
	c := compareCounts(want, got)
	if c != (check{Expected: 4, Missing: 1, Duplicated: 2, Wrong: 1}) {
		t.Fatalf("check = %+v", c)
	}
	c.Errors = 1
	if f := c.failedFrac(); f != 5.0/4 {
		t.Errorf("failed_frac = %v, want 1.25", f)
	}
	if f := compareCounts(want, want).failedFrac(); f != 0 {
		t.Errorf("failed_frac of a perfect sink = %v", f)
	}
}

// TestSyntheticOracle hands the synthetic judge a sink series with one
// value missing, one duplicated, one never appended and one out of range.
func TestSyntheticOracle(t *testing.T) {
	p := synthPlan(7, size{steady: 10 * time.Millisecond}, true)
	// The last wave and the last feed record were never appended.
	run := &jobRun{fed: len(p.feed) - 1, waveStart: make([]time.Time, p.waves-1)}
	appended := (p.waves-1)*p.waveRecs + run.fed
	var values []int64
	for i := 0; i < p.waves*p.waveRecs; i++ {
		values = append(values, p.backlogRec(i).Value.(int64))
	}
	for _, r := range p.feed {
		values = append(values, r.Value.(int64))
	}
	lastWave := values[(p.waves-1)*p.waveRecs : p.waves*p.waveRecs]
	var recs []kafkasim.SinkRecord
	for i, v := range values {
		if i != 3 && (i < (p.waves-1)*p.waveRecs || i >= p.waves*p.waveRecs) {
			recs = append(recs, kafkasim.SinkRecord{Value: v, ArrivalMs: 1})
		}
	}
	// Wrong: a record of the wave never appended, the feed record never
	// appended, and a value outside the input.
	recs = append(recs, recs[5], kafkasim.SinkRecord{Value: lastWave[0], ArrivalMs: 1},
		kafkasim.SinkRecord{Value: int64(len(values)), ArrivalMs: 1})
	outs, c := p.judge(recs, run)
	if c != (check{Expected: appended, Missing: 1, Duplicated: 1, Wrong: 3}) {
		t.Errorf("check = %+v", c)
	}
	if len(outs) != appended { // every appended record, the duplicate included, one missing
		t.Errorf("%d outputs, want %d", len(outs), appended)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloadNames {
		a, err := makePlan(w, 3, size{steady: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makePlan(w, 3, size{steady: time.Second})
		c, _ := makePlan(w, 4, size{steady: time.Second})
		if a.waves*a.waveRecs != b.waves*b.waveRecs || len(a.feed) != len(b.feed) || a.failAt != b.failAt {
			t.Fatalf("%s: same seed, different plans", w)
		}
		same, differs := true, false
		for i := range a.feed[:2000] {
			same = same && reflect.DeepEqual(a.feed[i], b.feed[i])
			differs = differs || !reflect.DeepEqual(a.feed[i], c.feed[i])
		}
		if !same || !differs {
			t.Errorf("%s: same seed same inputs = %v, other seed differs = %v", w, same, differs)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	one := 1.0
	snap := obs.RegistrySnapshot{Families: []obs.FamilySnapshot{{
		Name: "h", Type: "histogram",
		Metrics: []obs.MetricSnapshot{
			{Count: 10, Buckets: []obs.Bucket{{LE: "1", Count: 0}, {LE: "2", Count: 10}, {LE: "+Inf", Count: 10}}},
			{Count: 10, Buckets: []obs.Bucket{{LE: "1", Count: 10}, {LE: "2", Count: 10}, {LE: "+Inf", Count: 10}}},
		},
	}, {Name: "c", Type: "counter", Metrics: []obs.MetricSnapshot{{Value: &one}, {Value: &one}}}}}
	// 10 observations in (0,1], 10 in (1,2]: the median is the top of
	// the first bucket, the 75th percentile halfway through the second.
	if got := histQuantile(snap, "h", 0.5); got != 1 {
		t.Errorf("p50 = %v, want 1", got)
	}
	if got := histQuantile(snap, "h", 0.75); got != 1.5 {
		t.Errorf("p75 = %v, want 1.5", got)
	}
	if got := sum(snap, "c"); got != 2 {
		t.Errorf("sum = %v, want 2", got)
	}
}

// protoField appends one protobuf field.
func protoField(b []byte, num int, v any) []byte {
	switch v := v.(type) {
	case uint64:
		b = binary.AppendUvarint(b, uint64(num)<<3|wireVarint)
		return binary.AppendUvarint(b, v)
	case []byte:
		b = binary.AppendUvarint(b, uint64(num)<<3|wireBytes)
		b = binary.AppendUvarint(b, uint64(len(v)))
		return append(b, v...)
	case string:
		return protoField(b, num, []byte(v))
	}
	panic("unsupported field type")
}

func TestFoldProfile(t *testing.T) {
	var p []byte
	for _, s := range []string{"", "clonos/internal/codec.EncodeElement", "main.main", "runtime.gcBgMarkWorker", "clonos/internal/job.(*Task).run"} {
		p = protoField(p, 6, s)
	}
	for id := uint64(1); id <= 4; id++ {
		fn := protoField(protoField(nil, 1, id), 2, id) // function id names string id
		p = protoField(p, 5, fn)
		line := protoField(nil, 1, id)
		p = protoField(p, 4, protoField(protoField(nil, 1, id), 4, line))
	}
	sample := func(value uint64, locs ...uint64) []byte {
		var packed []byte
		for _, l := range locs {
			packed = binary.AppendUvarint(packed, l)
		}
		s := protoField(nil, 1, packed)
		return protoField(s, 2, binary.AppendUvarint(binary.AppendUvarint(nil, 1), value))
	}
	p = protoField(p, 2, sample(30, 1, 4, 2)) // codec, called from job: codec
	p = protoField(p, 2, sample(10, 3))       // gc
	p = protoField(p, 2, sample(20, 4, 2))    // job
	p = protoField(p, 2, sample(40, 2))       // neither
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()

	shares, err := foldProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"codec": 0.3, "gc": 0.1, "job": 0.2}
	if len(shares) != len(want) {
		t.Fatalf("shares = %v, want %v", shares, want)
	}
	for k, v := range want {
		if math.Abs(shares[k]-v) > 1e-12 {
			t.Errorf("share[%s] = %v, want %v", k, shares[k], v)
		}
	}
}

// TestSmoke runs one tiny repeat of every workload end to end: the job
// must deliver exactly the reference output, across the failover.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three jobs with a failure each")
	}
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range workloadNames {
		// The drain's backlog scales with the steady phase: keep it small
		// enough to drain in time under the race detector too.
		sz := size{steady: 700 * time.Millisecond}
		if w == wDrain {
			sz.steady = 100 * time.Millisecond
		}
		t.Run(w, func(t *testing.T) {
			p, err := makePlan(w, 1, sz)
			if err != nil {
				t.Fatal(err)
			}
			r, err := runRepeat(p)
			if err != nil {
				t.Fatal(err)
			}
			if r.check.failed() != 0 || r.check.Expected == 0 {
				t.Errorf("check = %+v, problems %v", r.check, r.problems)
			}
			if len(r.throughputRps) == 0 || r.throughputRps[0] <= 0 || r.outageMs <= 0 || r.setupS <= 0 || r.liveHeapMiB <= 0 || len(r.latMs) == 0 {
				t.Errorf("throughput %v rec/s, outage %v ms, setup %v s, live heap %v MiB, %d latency samples",
					r.throughputRps, r.outageMs, r.setupS, r.liveHeapMiB, len(r.latMs))
			}
		})
	}
}
