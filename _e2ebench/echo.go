package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"time"

	"github.com/insane-mw/insane/insane"
)

// Message layout of every ping, pong, control request and reply: the
// sequence number, the requester's due time (ns since the run epoch),
// then seeded filler. A reply echoes its request byte for byte.
const (
	hdrSeq   = 0
	hdrStamp = 8
	hdrLen   = 16
	// maxEchoSize bounds the request size of an echoPair.
	maxEchoSize = 256
)

// Bounds on one operation. A reply or frame later than opTimeout counts
// as failed; an emit refused maxRetries times in a row counts as failed.
const (
	opTimeout  = 200 * time.Millisecond
	maxRetries = 20000
	retryPause = 5 * time.Microsecond
)

// errRefused reports an emit or buffer request refused past maxRetries.
var errRefused = errors.New("e2ebench: emit refused after bounded retry")

// opContext is a context whose deadline is re-armed before each
// operation. One value serves a whole loop, so a per-operation timeout
// costs no allocation in the measured window; cancelling the parent
// still ends every wait at once.
type opContext struct {
	context.Context
	deadline time.Time
}

func (c *opContext) Deadline() (time.Time, bool) { return c.deadline, true }

func (c *opContext) Err() error {
	if err := c.Context.Err(); err != nil {
		return err
	}
	if !time.Now().Before(c.deadline) {
		return context.DeadlineExceeded
	}
	return nil
}

// retryable reports the admission errors the API asks callers to retry.
func retryable(err error) bool {
	return errors.Is(err, insane.ErrBackpressure) || errors.Is(err, insane.ErrNoBuffers) || errors.Is(err, insane.ErrTenantQuota)
}

// getBuffer borrows a buffer, retrying momentary exhaustion a bounded
// number of times. The runtime counts every refusal, so the retries
// show in the per-layer counters.
func getBuffer(src *insane.Source, size int) (*insane.Buffer, error) {
	for retries := 0; ; retries++ {
		b, err := src.GetBuffer(size)
		if err == nil || !retryable(err) {
			return b, err
		}
		if retries == maxRetries {
			return nil, errRefused
		}
		time.Sleep(retryPause)
	}
}

// emit sends n bytes of b, retrying backpressure a bounded number of
// times; on failure the buffer is returned to the pool.
func emit(src *insane.Source, b *insane.Buffer, n int) error {
	for retries := 0; ; retries++ {
		_, err := src.Emit(b, n)
		if err == nil {
			return nil
		}
		if !retryable(err) || retries == maxRetries {
			src.Abort(b)
			if retryable(err) {
				err = errRefused
			}
			return err
		}
		time.Sleep(retryPause)
	}
}

// samples is a preallocated sample buffer; add never grows it, so the
// measured window allocates nothing. A requester whose buffer fills ends
// its window early rather than growing it. A zero-capacity buffer (a
// traced phase records spans instead) records nothing and never fills.
type samples []int64

func newSamples(n int) samples { return make(samples, 0, n) }

func (s *samples) add(v int64) {
	if len(*s) < cap(*s) {
		*s = append(*s, v)
	}
}

func (s samples) full() bool { return cap(s) > 0 && len(s) == cap(s) }

// loopStats is what one loop measured in one phase.
type loopStats struct {
	rtt     samples // requester: round trips, due time to matching reply
	deliver samples // one-way: due time to the receiver holding the data
	lag     samples // how late each operation started against its due time
	// Operations attempted (by client loops) and completed intact
	// (wherever they complete); a mismatched operation is not completed.
	attempted, completed, mismatched int64
	// msgs counts INSANE messages delivered to the application.
	msgs int64
}

// echoPair is a request/reply loop between two sessions: a requester
// that emits a request and waits for its echo, and a responder that
// echoes every request it receives. It drives both ping-pong workloads
// and the edge-mix control loop.
type echoPair struct {
	reqSrc  *insane.Source // requester side
	repSink *insane.Sink   // requester side
	reqSink *insane.Sink   // responder side
	repSrc  *insane.Source // responder side
	size    int
	// think is the mean pause between a reply and the next request,
	// drawn uniformly from [think/2, 3*think/2) so the loop does not
	// lock onto the phase of the runtime's periodic work (TSN gate
	// cycle, poller backoff timers) and report that one phase.
	think  time.Duration
	rng    *rand.Rand // seeded; owned by the requester
	filler []byte     // seeded payload filler
	epoch  time.Time  // origin of the due times carried in requests
	seq    uint64     // last sequence number issued; owned by the requester
}

// fill writes request seq, due at stamp, into p.
func (e *echoPair) fill(p []byte, seq uint64, stamp int64) {
	binary.LittleEndian.PutUint64(p[hdrSeq:], seq)
	binary.LittleEndian.PutUint64(p[hdrStamp:], uint64(stamp))
	off := int(seq*8) % (len(e.filler) - e.size)
	copy(p[hdrLen:e.size], e.filler[off:])
}

// request runs the requester until stopAt: closed loop, one message in
// flight, a think time between a reply and the next request.
func (e *echoPair) request(ctx context.Context, stopAt time.Time, st *loopStats, tr *tracer) {
	op := &opContext{Context: ctx}
	var sent [maxEchoSize]byte
	due := time.Now()
	for ctx.Err() == nil && !st.rtt.full() {
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		start := time.Now()
		if !start.Before(stopAt) {
			break
		}
		st.lag.add(int64(start.Sub(due)))
		e.seq++
		seq := e.seq
		st.attempted++
		root := tr.begin(spanRTT, noSpan, seq)
		if e.roundTrip(op, start, seq, sent[:e.size], st, tr, root) {
			st.completed++
		}
		tr.end(root)
		due = time.Now()
		if e.think > 0 {
			due = due.Add(e.think/2 + time.Duration(e.rng.Int63n(int64(e.think))))
		}
	}
}

// roundTrip sends request seq and waits for its echo; it reports whether
// the echo arrived intact within opTimeout.
func (e *echoPair) roundTrip(op *opContext, start time.Time, seq uint64, sent []byte, st *loopStats, tr *tracer, root int32) bool {
	sp := tr.begin(spanGetBuffer, root, seq)
	buf, err := getBuffer(e.reqSrc, e.size)
	tr.end(sp)
	if err != nil {
		return false
	}
	e.fill(buf.Payload, seq, int64(start.Sub(e.epoch)))
	copy(sent, buf.Payload[:e.size])
	sp = tr.begin(spanEmit, root, seq)
	err = emit(e.reqSrc, buf, e.size)
	tr.end(sp)
	if err != nil {
		return false
	}
	op.deadline = start.Add(opTimeout)
	sp = tr.begin(spanConsume, root, seq)
	m, err := e.repSink.ConsumeContext(op)
	// Skip echoes of earlier requests that already timed out.
	for err == nil && len(m.Payload) >= hdrLen && binary.LittleEndian.Uint64(m.Payload[hdrSeq:]) < seq {
		e.repSink.Release(m)
		m, err = e.repSink.ConsumeContext(op)
	}
	tr.end(sp)
	if err != nil {
		return false // timed out: the request or its echo was lost or late
	}
	intact := len(m.Payload) == e.size && bytes.Equal(m.Payload, sent)
	if intact {
		st.rtt.add(int64(time.Since(start)))
		st.msgs += 2
	} else {
		st.mismatched++
	}
	sp = tr.begin(spanRelease, root, seq)
	e.repSink.Release(m)
	tr.end(sp)
	return intact
}

// respond echoes requests until ctx ends. With oneWay set it records
// each request's one-way latency from its due time.
func (e *echoPair) respond(ctx context.Context, oneWay bool, st *loopStats, tr *tracer) {
	for {
		m, err := e.reqSink.ConsumeContext(ctx)
		if err != nil {
			return // phase over, or the sink closed
		}
		if len(m.Payload) < hdrLen || len(m.Payload) > maxEchoSize {
			st.mismatched++
			e.reqSink.Release(m)
			continue
		}
		seq := binary.LittleEndian.Uint64(m.Payload[hdrSeq:])
		if oneWay {
			due := int64(binary.LittleEndian.Uint64(m.Payload[hdrStamp:]))
			st.deliver.add(int64(time.Since(e.epoch)) - due)
		}
		root := tr.begin(spanPong, noSpan, seq)
		sp := tr.begin(spanGetBuffer, root, seq)
		buf, err := getBuffer(e.repSrc, len(m.Payload))
		tr.end(sp)
		if err == nil {
			// An echo that cannot be sent times the requester out,
			// which counts it as failed.
			n := copy(buf.Payload, m.Payload)
			sp = tr.begin(spanEmit, root, seq)
			_ = emit(e.repSrc, buf, n)
			tr.end(sp)
		}
		sp = tr.begin(spanRelease, root, seq)
		e.reqSink.Release(m)
		tr.end(sp)
		tr.end(root)
	}
}
