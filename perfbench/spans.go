package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one benchmark-side span: a timed call, or batch of calls, into
// one layer's public functions. Spans are kept in memory and written out
// when the run ends; the per-layer S metrics are medians over them.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	// StartNs and EndNs are offsets from the recorder's origin.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	// Ops is the number of calls the span covers.
	Ops int `json:"ops"`
}

type spanRecorder struct {
	origin time.Time
	spans  []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{origin: time.Now()} }

// begin opens a span under parent (0: none) and returns its id.
func (r *spanRecorder) begin(name string, parent int) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, StartNs: time.Since(r.origin).Nanoseconds()})
	return len(r.spans)
}

// end closes span id, which covered ops calls.
func (r *spanRecorder) end(id, ops int) {
	s := &r.spans[id-1]
	s.EndNs = time.Since(r.origin).Nanoseconds()
	s.Ops = ops
}

// perOp returns the duration per call, in ns, of every span named name.
func (r *spanRecorder) perOp(name string) []float64 {
	var xs []float64
	for _, s := range r.spans {
		if s.Name == name && s.Ops > 0 {
			xs = append(xs, float64(s.EndNs-s.StartNs)/float64(s.Ops))
		}
	}
	return xs
}

func (r *spanRecorder) writeFile(path string) error {
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
