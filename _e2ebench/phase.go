package main

import (
	"context"
	"runtime"
	"sync"
	"syscall"
	"time"

	"github.com/insane-mw/insane/insane"
)

// spanCap is the span buffer of one traced loop: 4 MiB, enough for the
// p99 of every per-layer span with many samples to spare. Loops that
// would overflow it are sampled (see run).
const spanCap = 1 << 17

// phaseResult is what one phase of a workload measured.
type phaseResult struct {
	stats   []*loopStats // one per loop of the bed
	tracers []*tracer    // one per loop; nil when untraced
	// elapsed runs from the phase start until the client loops ended.
	elapsed time.Duration
	// before and after bracket the whole phase, drain included.
	before, after snapshot
}

// runPhase runs every loop of b for dur and waits for all of them. Client
// loops stop issuing at the deadline; served loops are then told to stop
// and drain. An untraced phase (every == 0) records samples; a traced
// one records the spans of every every-th message instead. Both kinds of
// buffer are allocated before the phase starts.
func runPhase(b *bed, dur time.Duration, every uint64) phaseResult {
	res := phaseResult{stats: make([]*loopStats, len(b.loops)), tracers: make([]*tracer, len(b.loops))}
	for i, l := range b.loops {
		st := &loopStats{}
		if every == 0 {
			n := int(float64(l.maxRate)*dur.Seconds()) + 64
			if l.records&recRTT != 0 {
				st.rtt = newSamples(n)
			}
			if l.records&recDeliver != 0 {
				st.deliver = newSamples(n)
			}
			if l.records&recLag != 0 {
				st.lag = newSamples(n)
			}
		} else {
			res.tracers[i] = newTracer(l.name, b.epoch, spanCap, every)
		}
		res.stats[i] = st
	}
	if b.prepare != nil {
		b.prepare()
	}
	runtime.GC() // start every phase from the same heap state
	res.before = takeSnapshot(b.cluster)
	start := time.Now()
	stopAt := start.Add(dur)
	servedCtx, stopServed := context.WithCancel(context.Background())
	defer stopServed()
	var clients, served sync.WaitGroup
	for i, l := range b.loops {
		wg := &clients
		ctx := context.Background()
		if l.served {
			wg, ctx = &served, servedCtx
		}
		wg.Add(1)
		go func(fn loopFn, ctx context.Context, st *loopStats, tr *tracer) {
			defer wg.Done()
			fn(ctx, stopAt, st, tr)
		}(l.fn, ctx, res.stats[i], res.tracers[i])
	}
	clients.Wait()
	res.elapsed = time.Since(start)
	stopServed()
	served.Wait()
	res.after = takeSnapshot(b.cluster)
	return res
}

// snapshot is the process and runtime counters at one instant.
type snapshot struct {
	cpu                    time.Duration // user+system CPU of the process
	mallocs, allocBytes    uint64
	numGC                  uint32
	emits, refusals        uint64 // refusals: backpressure, pool and quota refusals
	mpGets, mpFails        uint64
	envHits, envGets       uint64
	tx, rx                 uint64
	ringFull, noSink, down uint64
	batchSum               float64
	batchCount             uint64
	txOccP99               uint64 // highest node p99, since the cluster started
}

func takeSnapshot(c *insane.Cluster) snapshot {
	var s snapshot
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.allocBytes, s.numGC = ms.Mallocs, ms.TotalAlloc, ms.NumGC
	for _, n := range c.Nodes() {
		m := n.Metrics()
		s.emits += m.Emits
		s.refusals += m.EmitBackpressure + m.Mempool.Failures
		for _, t := range m.Tenants {
			s.refusals += t.QuotaRejects
		}
		s.mpGets += m.Mempool.Gets + m.Mempool.Failures
		s.mpFails += m.Mempool.Failures
		s.envHits += m.EnvCache.Hits
		s.envGets += m.EnvCache.Hits + m.EnvCache.Refills + m.EnvCache.Misses
		s.tx += m.TxMessages
		s.rx += m.RxMessages
		s.ringFull += m.DroppedBackpressure
		s.noSink += m.DroppedNoSink
		s.down += m.TechDowngrades
		s.batchSum += m.DispatchBatch.Mean * float64(m.DispatchBatch.Count)
		s.batchCount += m.DispatchBatch.Count
		s.txOccP99 = max(s.txOccP99, m.TxRingOccupancy.P99)
	}
	return s
}
