package main

import (
	"sync"
	"time"

	"clonos/internal/kafkasim"
)

// minSleep is the shortest pause the generator takes between appends.
// Shorter sleeps cost a wake-up per record at the rates used here and
// take CPU from the engine on a small host; records that fall due during
// the pause are appended late, and that lateness shows in both the
// latency and the generator lag.
const minSleep = 200 * time.Microsecond

// feeder is the open-loop load generator: one goroutine that appends
// pre-generated records to a topic at their due times, whether or not the
// job keeps up. kafkasim.Generator is not used because it stamps records
// with the wall clock at append time and bursts to catch up, which hides
// a stalled generator from the latency it causes; here every record
// carries its due time, and how late each append ran is recorded.
type feeder struct {
	topic *kafkasim.Topic
	recs  []kafkasim.Record
	due   []int64 // due offset of recs[i] from the start, ns, nondecreasing

	lag      []float64 // append time minus due time of recs[i], ms
	appended int       // read after the generator exited
	stop     chan struct{}
	wg       sync.WaitGroup
}

func newFeeder(topic *kafkasim.Topic, recs []kafkasim.Record, due []int64) *feeder {
	return &feeder{topic: topic, recs: recs, due: due, lag: make([]float64, len(recs)), stop: make(chan struct{})}
}

// start launches the generator with recs[0] due at t0.
func (f *feeder) start(t0 time.Time) {
	f.wg.Add(1)
	go f.run(t0)
}

func (f *feeder) run(t0 time.Time) {
	defer f.wg.Done()
	for i := 0; i < len(f.recs); {
		now := time.Since(t0).Nanoseconds()
		for ; i < len(f.recs) && f.due[i] <= now; i++ {
			f.topic.Append(f.recs[i])
			now = time.Since(t0).Nanoseconds()
			f.lag[i] = float64(now-f.due[i]) / 1e6
		}
		f.appended = i
		if i < len(f.recs) {
			select {
			case <-f.stop:
				return
			case <-time.After(max(time.Duration(f.due[i]-now), minSleep)):
			}
		}
	}
}

// haltAt stops the generator at t, or when it has appended every record,
// and returns how many it appended.
func (f *feeder) haltAt(t time.Time) int {
	time.Sleep(time.Until(t))
	close(f.stop)
	f.wg.Wait()
	return f.appended
}
