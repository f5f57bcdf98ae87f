// Multi-core throughput mode (-throughput): drives pollers × streams
// worth of concurrent emit→deliver→consume traffic through one node and
// reports aggregate packets/sec plus per-stage virtual-time breakdowns
// from the runtime's telemetry. This is the scaling axis of the paper's
// §8 receive-side parallelism discussion: the hot-path suite proves the
// single-message latency floor, this mode proves the rate holds up when
// every core is busy.

package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/insane-mw/insane/insane"
	"github.com/insane-mw/insane/internal/bench"
)

// throughputPollerPoints are the polling-thread counts the committed
// baseline records (pps at 1, 2 and 4 pollers per plugin).
var throughputPollerPoints = []int{1, 2, 4}

// runThroughput measures the throughput suite and prints the results;
// used both standalone (-throughput) and by the baseline writer.
func runThroughput(packetsPerStream int) ([]bench.ThroughputResult, error) {
	results := make([]bench.ThroughputResult, 0, len(throughputPollerPoints))
	for _, pollers := range throughputPollerPoints {
		streams := pollers * 2 // keep every poller fed by two producers
		res, err := measureThroughput(
			fmt.Sprintf("throughput/64B-%dp", pollers),
			pollers, streams, 64, packetsPerStream)
		if err != nil {
			return nil, err
		}
		fmt.Println(res)
		results = append(results, res)
	}
	return results, nil
}

// measureThroughput runs streams concurrent producer/consumer pairs on
// one node with the given polling-thread count. Each stream gets its own
// session (hence its own TX lane) and its own channel,
// so the topology exercises the per-(session,technology) lane design
// rather than serializing on a shared ring.
func measureThroughput(name string, pollers, streams, size, packets int) (bench.ThroughputResult, error) {
	cluster, err := insane.NewCluster(insane.ClusterOptions{
		Nodes: []insane.NodeSpec{{Name: "a", PollersPerPlugin: pollers}},
	})
	if err != nil {
		return bench.ThroughputResult{}, err
	}
	defer cluster.Close()
	node := cluster.Node("a")

	type pair struct {
		src  *insane.Source
		sink *insane.Sink
	}
	pairs := make([]pair, streams)
	sessions := make([]*insane.Session, streams)
	for i := 0; i < streams; i++ {
		sess, err := node.InitSession()
		if err != nil {
			return bench.ThroughputResult{}, err
		}
		sessions[i] = sess
		st, err := sess.CreateStreamOpts()
		if err != nil {
			return bench.ThroughputResult{}, err
		}
		sink, err := st.CreateSink(100+i, nil)
		if err != nil {
			return bench.ThroughputResult{}, err
		}
		src, err := st.CreateSource(100 + i)
		if err != nil {
			return bench.ThroughputResult{}, err
		}
		pairs[i] = pair{src: src, sink: sink}
	}
	defer func() {
		for _, s := range sessions {
			_ = s.Close()
		}
	}()

	// Warm the wrapper pools and topology caches before timing.
	for _, p := range pairs {
		for w := 0; w < 64; w++ {
			if err := pumpOne(p.src, p.sink, size); err != nil {
				return bench.ThroughputResult{}, fmt.Errorf("warmup: %w", err)
			}
		}
	}

	errs := make(chan error, 2*streams)
	var wg sync.WaitGroup
	start := time.Now()
	for _, p := range pairs {
		wg.Add(2)
		go func(src *insane.Source) {
			defer wg.Done()
			for n := 0; n < packets; n++ {
				if err := emitRetry(src, size); err != nil {
					errs <- err
					return
				}
			}
		}(p.src)
		go func(sink *insane.Sink) {
			defer wg.Done()
			// One deadline context reused across the drain loop keeps
			// ConsumeContext on the allocation-free pooled-timer path; the
			// deadline is a liveness guard for the whole drain, not a
			// per-message budget.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			defer cancel()
			for n := 0; n < packets; n++ {
				msg, err := sink.ConsumeContext(ctx)
				if err != nil {
					errs <- err
					return
				}
				sink.Release(msg)
			}
		}(p.sink)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		if err != nil {
			return bench.ThroughputResult{}, err
		}
	}

	m := node.Metrics()
	total := streams * packets
	return bench.ThroughputResult{
		Name:          name,
		Pollers:       pollers,
		Streams:       streams,
		Packets:       total,
		Elapsed:       elapsed.Seconds(),
		PacketsPerSec: float64(total) / elapsed.Seconds(),
		SchedDwellNs:  float64(m.SchedDwell.Mean.Nanoseconds()),
		DeliverNs:     float64(m.DeliverLatency.Mean.Nanoseconds()),
	}, nil
}

// pumpOne sends and consumes a single message on one stream pair.
func pumpOne(src *insane.Source, sink *insane.Sink, size int) error {
	if err := emitRetry(src, size); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	msg, err := sink.ConsumeContext(ctx)
	if err != nil {
		return err
	}
	sink.Release(msg)
	return nil
}

// emitRetry emits one message, retrying transient backpressure: a full
// TX lane or exhausted slot pool just means the consumer side is
// behind. Retries yield — and, when the pressure persists, sleep — so
// a spinning producer cannot starve the polling threads on a machine
// with few cores.
func emitRetry(src *insane.Source, size int) error {
	var buf *insane.Buffer
	for attempt := 0; attempt < 1_000_000; attempt++ {
		var err error
		if buf == nil {
			buf, err = src.GetBuffer(size)
		}
		if err == nil {
			// On ErrBackpressure ownership stays with us: retry the same
			// buffer next pass.
			if _, err = src.Emit(buf, size); err == nil {
				return nil
			}
			if !errors.Is(err, insane.ErrBackpressure) {
				src.Abort(buf)
				return err
			}
		} else if !errors.Is(err, insane.ErrNoBuffers) {
			return err
		}
		if attempt%256 == 255 {
			time.Sleep(50 * time.Microsecond)
		} else {
			runtime.Gosched()
		}
	}
	if buf != nil {
		src.Abort(buf)
	}
	return errors.New("emit: backpressure never cleared")
}
