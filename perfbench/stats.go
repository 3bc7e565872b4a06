package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks (the rule Python's
// statistics.quantiles and numpy's default use). xs need not be sorted;
// it is not modified. It returns NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedPercentile(s, p)
}

func sortedPercentile(s []float64, p float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// tailPercentiles is the ladder the tail rule picks from.
var tailPercentiles = []float64{99.99, 99.9, 99, 90, 50}

// tailPercentile returns the highest percentile of the ladder that has at
// least ten samples beyond it among n samples, and false when even the
// median has fewer than ten samples above it. A timing is reported as its
// median and this percentile, with the sample count.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // tolerate 100-99.9 != 0.1
			return p, true
		}
	}
	return 0, false
}

// summary is a metric's median and interquartile range over the samples
// one run took of it.
type summary struct {
	N      int
	Median float64
	IQR    float64
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{Median: math.NaN(), IQR: math.NaN()}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{N: len(s), Median: sortedPercentile(s, 50), IQR: sortedPercentile(s, 75) - sortedPercentile(s, 25)}
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// output is one record the sink received, reduced to what the metrics
// need: when it was due at the generator and when it arrived, both as
// wall-clock nanoseconds.
type output struct {
	Due     int64
	Arrival int64
}

// arrivalNs converts a sink arrival stamp, which kafkasim truncates to
// whole milliseconds, to the midpoint of that millisecond in nanoseconds.
// The midpoint is the unbiased estimate of the true arrival instant.
func arrivalNs(arrivalMs int64) int64 { return arrivalMs*1e6 + 5e5 }

// outageMs is the time from the failure instant until the sink held every
// output that was due at or before it: the user-visible pause a failure
// causes. It fails when no output was due before the failure, which
// means the run never loaded the job before failing it.
func outageMs(outs []output, failure int64) (float64, error) {
	last, seen := int64(0), false
	for _, o := range outs {
		if o.Due <= failure {
			if !seen || o.Arrival > last {
				last = o.Arrival
			}
			seen = true
		}
	}
	if !seen {
		return 0, fmt.Errorf("no output was due before the failure")
	}
	return float64(last-failure) / 1e6, nil
}

// latenciesMs returns arrival minus due, in milliseconds, of the outputs
// due in [from, to).
func latenciesMs(outs []output, from, to int64) []float64 {
	var lat []float64
	for _, o := range outs {
		if o.Due >= from && o.Due < to {
			lat = append(lat, float64(o.Arrival-o.Due)/1e6)
		}
	}
	return lat
}

// lastArrival returns the latest arrival among the outputs due in
// [from, to), and false when there is none.
func lastArrival(outs []output, from, to int64) (int64, bool) {
	last, seen := int64(0), false
	for _, o := range outs {
		if o.Due >= from && o.Due < to && (!seen || o.Arrival > last) {
			last, seen = o.Arrival, true
		}
	}
	return last, seen
}

// check is the outcome of comparing a run's sink contents with the
// reference output.
type check struct {
	Expected   int
	Missing    int
	Duplicated int
	Wrong      int
	Errors     int
}

func (c check) failed() int { return c.Missing + c.Duplicated + c.Wrong + c.Errors }

// failedFrac is (missing + duplicated + wrong outputs + runtime errors) ÷
// expected outputs.
func (c check) failedFrac() float64 {
	if c.Expected == 0 {
		return math.NaN()
	}
	return float64(c.failed()) / float64(c.Expected)
}

func (c *check) add(o check) {
	c.Expected += o.Expected
	c.Missing += o.Missing
	c.Duplicated += o.Duplicated
	c.Wrong += o.Wrong
	c.Errors += o.Errors
}

// compareCounts checks a multiset of received outputs against the
// reference multiset: every expected output exactly once, nothing else.
func compareCounts[K comparable](want, got map[K]int) check {
	var c check
	for k, n := range want {
		c.Expected += n
		g := got[k]
		if g < n {
			c.Missing += n - g
		} else {
			c.Duplicated += g - n
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			c.Wrong += g
		}
	}
	return c
}
