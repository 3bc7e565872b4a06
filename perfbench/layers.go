package main

import (
	"encoding/binary"
	"fmt"
	"math"

	"clonos/internal/buffer"
	"clonos/internal/causal"
	"clonos/internal/codec"
	"clonos/internal/hotbench"
	"clonos/internal/inflight"
	"clonos/internal/job"
	"clonos/internal/kafkasim"
	"clonos/internal/statestore"
	"clonos/internal/types"
)

// The S source of the per-layer metrics: spans this benchmark records
// around calls into each layer's public functions, fed the workload's
// own records, codec, state size, depth, DSD and measured determinant
// rate. They run after the traced repeats, on one goroutine, and time
// the layer alone; the R and P sources show the same layers inside the
// running job.

// layerInputs is what the spans are fed.
type layerInputs struct {
	recs  []kafkasim.Record     // a prefix of the workload's input
	outs  []kafkasim.SinkRecord // a prefix of a traced repeat's sink contents
	codec codec.Codec           // the codec of the edge every input crosses first
	cfg   job.Config
	// depth is the job graph's depth in edges; dsd its effective
	// determinant sharing depth.
	depth, dsd int
	// Measured in the traced repeats: determinants and wire bytes per
	// input record, over all tasks, and input records per second.
	detsPerRec, bytesPerRec, recsPerSec float64
	parallelism                         int
	// stateKeys × stateValue is one task's keyed state.
	stateKeys  int
	stateValue func(key int) any
}

const (
	spanBatches = 32   // spans per measured call
	spanBatch   = 1024 // calls per batched span
)

// runSpans records every layer's spans and returns the S metrics.
func runSpans(sp *spanRecorder, in layerInputs) ([]row, error) {
	if len(in.recs) == 0 || len(in.outs) == 0 {
		return nil, fmt.Errorf("layer spans need input and output records")
	}
	var rows []row
	for _, layer := range []func(*spanRecorder, layerInputs) ([]row, error){
		kafkasimSpans, codecSpans, netstackSpans, causalSpans, inflightSpans, statestoreSpans,
	} {
		r, err := layer(sp, in)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

// spanRow reports the median per-call time of the spans named name.
func spanRow(sp *spanRecorder, name, unit string, scale float64) row {
	xs := sp.perOp(name)
	for i := range xs {
		xs[i] *= scale
	}
	return row{name: name, unit: unit, value: median(xs), spread: summarize(xs)}
}

// batchOf returns batch k of spanBatch items cycled from n items.
func batchOf(k, n int) []int {
	idx := make([]int, spanBatch)
	for i := range idx {
		idx[i] = (k*spanBatch + i) % n
	}
	return idx
}

func kafkasimSpans(sp *spanRecorder, in layerInputs) ([]row, error) {
	root := sp.begin("kafkasim", 0)
	topic := kafkasim.NewTopic("spans", in.parallelism)
	for k := 0; k < spanBatches; k++ {
		idx := batchOf(k, len(in.recs))
		id := sp.begin("kafkasim.append_ns", root)
		for _, i := range idx {
			topic.Append(in.recs[i])
		}
		sp.end(id, len(idx))
	}
	sink := kafkasim.NewSinkTopic(true)
	var seq uint64
	for k := 0; k < spanBatches; k++ {
		idx := batchOf(k, len(in.outs))
		id := sp.begin("kafkasim.sink_append_ns", root)
		for _, i := range idx {
			r := in.outs[i]
			seq++
			r.Producer, r.Seq = "spans", seq
			sink.Append(r)
		}
		sp.end(id, len(idx))
	}
	if sink.Len() != spanBatches*spanBatch {
		return nil, fmt.Errorf("kafkasim spans: sink holds %d records, want %d", sink.Len(), spanBatches*spanBatch)
	}
	sp.end(root, 0)
	return []row{
		spanRow(sp, "kafkasim.append_ns", "ns", 1),
		spanRow(sp, "kafkasim.sink_append_ns", "ns", 1),
	}, nil
}

// elements returns the workload's records as stream elements.
func elements(in layerInputs) []types.Element {
	es := make([]types.Element, len(in.recs))
	for i, r := range in.recs {
		es[i] = types.Record(r.Key, r.Ts, r.Value)
	}
	return es
}

func codecSpans(sp *spanRecorder, in layerInputs) ([]row, error) {
	root := sp.begin("codec", 0)
	es := elements(in)
	var wire []byte
	var frames [][]byte
	var bytes []float64
	for k := 0; k < spanBatches; k++ {
		idx := batchOf(k, len(es))
		wire = wire[:0]
		id := sp.begin("codec.encode_ns", root)
		for _, i := range idx {
			var err error
			if wire, err = codec.EncodeElement(wire, es[i], in.codec); err != nil {
				return nil, fmt.Errorf("codec spans: %w", err)
			}
		}
		sp.end(id, len(idx))
		bytes = append(bytes, float64(len(wire))/float64(len(idx)))

		frames = frames[:0]
		for b := wire; len(b) > 0; {
			n := int(binary.BigEndian.Uint32(b))
			frames = append(frames, b[4:4+n])
			b = b[4+n:]
		}
		id = sp.begin("codec.decode_ns", root)
		for _, f := range frames {
			if _, err := codec.DecodeElement(f, in.codec); err != nil {
				return nil, fmt.Errorf("codec spans: %w", err)
			}
		}
		sp.end(id, len(frames))
	}
	sp.end(root, 0)
	return []row{
		spanRow(sp, "codec.encode_ns", "ns", 1),
		spanRow(sp, "codec.decode_ns", "ns", 1),
		{name: "codec.bytes_per_rec", unit: "B", value: median(bytes), spread: summarize(bytes)},
	}, nil
}

// netstackSpans times one element's hop through the zero-copy path as
// hotbench.Loop wires it: ChannelWriter.WriteElement, Endpoint.Push and
// Pop, Deserializer.Next.
func netstackSpans(sp *spanRecorder, in layerInputs) ([]row, error) {
	root := sp.begin("netstack", 0)
	es := elements(in)
	loop := hotbench.NewLoop(in.cfg.BufferSize, in.cfg.ChannelBuffers, in.codec)
	for k := 0; k < spanBatches; k++ {
		idx := batchOf(k, len(es))
		id := sp.begin("netstack.hop_ns", root)
		for _, i := range idx {
			if err := loop.Write(es[i]); err != nil {
				return nil, fmt.Errorf("netstack spans: %w", err)
			}
		}
		if err := loop.Flush(); err != nil {
			return nil, fmt.Errorf("netstack spans: %w", err)
		}
		sp.end(id, len(idx))
	}
	if err := loop.Verify(); err != nil {
		return nil, fmt.Errorf("netstack spans: %w", err)
	}
	sp.end(root, 0)
	return []row{spanRow(sp, "netstack.hop_ns", "ns", 1)}, nil
}

// recsPerBuffer is how many of the workload's records fill one network
// buffer, by the wire bytes per record measured in the job.
func recsPerBuffer(in layerInputs) float64 {
	return float64(in.cfg.BufferSize) / math.Max(in.bytesPerRec, 1)
}

// causalSpans drives a chain of causal Managers, one per vertex along
// the job's longest path, with the job's DSD. Per network buffer each
// task logs its share of the measured determinants, then serializes the
// delta for its downstream neighbour, which ingests it. Every epoch the
// chain starts a new epoch and truncates the one before the last.
func causalSpans(sp *spanRecorder, in layerInputs) ([]row, error) {
	root := sp.begin("causal", 0)
	chain := make([]*causal.Manager, in.depth+1)
	for i := range chain {
		chain[i] = causal.NewManager(types.TaskID{Vertex: types.VertexID(i)}, in.dsd)
	}
	// Determinants one task logs per buffer it handles: the measured
	// rate is over every task of the job, and a record visits one task
	// per vertex.
	dets := max(1, int(math.Round(in.detsPerRec*recsPerBuffer(in)/float64(len(chain)))))
	buffersPerEpoch := 64
	epoch := types.EpochID(1)
	for step := 0; step < spanBatches*buffersPerEpoch; step++ {
		if step%buffersPerEpoch == 0 {
			epoch++
			for _, m := range chain {
				m.StartEpochMain(epoch)
				m.Truncate(epoch - 2)
			}
		}
		for i, m := range chain {
			ch := types.ChannelID{Edge: types.EdgeID(i)}
			id := sp.begin("causal.append_ns", root)
			for d := 0; d < dets; d++ {
				m.AppendOrder(0)
			}
			sp.end(id, dets)
			if i == len(chain)-1 {
				break
			}
			id = sp.begin("causal.delta_ns", root)
			delta := m.DeltaFor(ch)
			sp.end(id, 1)
			id = sp.begin("causal.ingest_ns", root)
			err := chain[i+1].Ingest(delta)
			sp.end(id, 1)
			if err != nil {
				return nil, fmt.Errorf("causal spans: %w", err)
			}
		}
	}
	sp.end(root, 0)
	return []row{
		spanRow(sp, "causal.append_ns", "ns", 1),
		spanRow(sp, "causal.delta_ns", "ns", 1),
		spanRow(sp, "causal.ingest_ns", "ns", 1),
	}, nil
}

// inflightSpans drives one channel's in-flight log under the job's
// inflight.Config, log pool and buffer size, with the §6.1 buffer
// exchange the dispatch layer does. Buffers carry the workload's encoded
// records; an epoch holds the buffers one channel dispatches per
// checkpoint interval at the measured rate. Each epoch is appended, the
// previous one is read back as a replay would, and the one before it is
// truncated.
func inflightSpans(sp *spanRecorder, in layerInputs) ([]row, error) {
	root := sp.begin("inflight", 0)
	var payload []byte
	for _, e := range elements(in) {
		var err error
		if payload, err = codec.EncodeElement(payload, e, in.codec); err != nil {
			return nil, fmt.Errorf("inflight spans: %w", err)
		}
		if len(payload) >= in.cfg.BufferSize {
			break
		}
	}
	payload = payload[:min(len(payload), in.cfg.BufferSize)]

	channels := float64(in.parallelism * in.parallelism)
	perEpoch := in.recsPerSec * in.cfg.CheckpointInterval.Seconds() / recsPerBuffer(in) / channels
	buffersPerEpoch := min(max(int(perEpoch), 8), in.cfg.LogPoolBuffers/2-8)

	logPool := buffer.NewPool(in.cfg.LogPoolBuffers, in.cfg.BufferSize)
	chanPool := buffer.NewPool(buffersPerEpoch, in.cfg.BufferSize)
	log, err := inflight.NewLog(types.ChannelID{}, logPool, in.cfg.InFlight)
	if err != nil {
		return nil, fmt.Errorf("inflight spans: %w", err)
	}
	defer log.Close()
	var seq uint64
	batch := make([]*buffer.Buffer, buffersPerEpoch)
	for e := types.EpochID(1); e <= spanBatches; e++ {
		log.StartEpoch(e)
		first := seq + 1
		for i := range batch {
			b := chanPool.Get()
			b.Data = append(b.Data[:0], payload...)
			seq++
			b.Seq, b.Epoch = seq, e
			batch[i] = b
		}
		id := sp.begin("inflight.append_ns", root)
		for _, b := range batch {
			if err := log.Append(b); err != nil {
				return nil, fmt.Errorf("inflight spans: %w", err)
			}
			chanPool.Forfeit()
			chanPool.Donate(logPool.Take())
		}
		sp.end(id, len(batch))

		if e > 1 {
			id = sp.begin("inflight.read_ns", root)
			for s := first - uint64(buffersPerEpoch); s < first; s++ {
				if _, _, ok, err := log.ReadEntry(s); err != nil || !ok {
					return nil, fmt.Errorf("inflight spans: read seq %d: ok=%v err=%v", s, ok, err)
				}
			}
			sp.end(id, buffersPerEpoch)
		}
		if e > 2 {
			id = sp.begin("inflight.truncate_ns", root)
			log.Truncate(e - 2)
			sp.end(id, buffersPerEpoch)
		}
	}
	sp.end(root, 0)
	return []row{
		spanRow(sp, "inflight.append_ns", "ns", 1),
		spanRow(sp, "inflight.truncate_ns", "ns", 1),
		spanRow(sp, "inflight.read_ns", "ns", 1),
	}, nil
}

// statestoreSpans snapshots, delta-snapshots (after a tenth of the keys
// changed) and restores one task's keyed state at the workload's size.
func statestoreSpans(sp *spanRecorder, in layerInputs) ([]row, error) {
	root := sp.begin("statestore", 0)
	st := statestore.NewStore()
	for k := 0; k < in.stateKeys; k++ {
		st.Keyed("state").Put(uint64(k), in.stateValue(k))
	}
	var kib []float64
	const rounds = 8
	for r := 0; r < rounds; r++ {
		id := sp.begin("statestore.snapshot_ms", root)
		snap, err := st.Snapshot()
		sp.end(id, 1)
		if err != nil {
			return nil, fmt.Errorf("statestore spans: %w", err)
		}
		kib = append(kib, float64(len(snap))/1024)
		st.ResetDirty()

		ks := st.Keyed("state")
		for k := r; k < in.stateKeys; k += 10 {
			ks.Put(uint64(k), in.stateValue(k+r))
		}
		id = sp.begin("statestore.delta_ms", root)
		_, err = st.DeltaSnapshot()
		sp.end(id, 1)
		if err != nil {
			return nil, fmt.Errorf("statestore spans: %w", err)
		}

		id = sp.begin("statestore.restore_ms", root)
		err = statestore.NewStore().Restore(snap)
		sp.end(id, 1)
		if err != nil {
			return nil, fmt.Errorf("statestore spans: %w", err)
		}
	}
	sp.end(root, 0)
	const ms = 1e-6
	return []row{
		spanRow(sp, "statestore.snapshot_ms", "ms", ms),
		spanRow(sp, "statestore.delta_ms", "ms", ms),
		spanRow(sp, "statestore.restore_ms", "ms", ms),
		{name: "statestore.snapshot_kib", unit: "KiB", value: median(kib), spread: summarize(kib)},
	}, nil
}
