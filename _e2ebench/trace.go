package main

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"time"
)

// spanKind names a span: one call the benchmark makes into insane or
// lunar/streaming, or the root operation those calls serve.
type spanKind uint8

const (
	spanRTT       spanKind = iota // requester root: one round trip
	spanPong                      // responder root: echo of one request
	spanFrame                     // generator root: one video frame, from its due time
	spanGetBuffer                 // Source.GetBuffer, retries included
	spanEmit                      // Source.Emit, retries included
	spanConsume                   // requester's Sink.ConsumeContext wait for the reply
	spanRelease                   // Sink.Release
	spanSendFrame                 // streaming.Server.SendFrame
	spanNextFrame                 // streaming.Client.NextFrame that returned a frame
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"rtt", "pong", "frame", "insane.getbuffer", "insane.emit",
	"insane.consume_wait", "insane.release", "lunar.sendframe", "lunar.nextframe",
}

func (k spanKind) String() string { return spanNames[k] }

// noSpan is the index of a span that was not recorded (tracing off, the
// operation not sampled, or the buffer full).
const noSpan = -1

// span is one recorded interval. Times are nanoseconds since the run's
// epoch; msg is shared by every span of one message (its sequence
// number, or the frame id).
type span struct {
	start, end int64
	msg        uint64
	parent     int32
	kind       spanKind
}

// tracer records the spans of one goroutine into a buffer allocated
// before the measured window, so tracing adds no allocation to it. A nil
// tracer records nothing.
type tracer struct {
	name    string
	epoch   time.Time
	every   uint64 // trace messages whose msg id is a multiple of every
	spans   []span
	dropped int
}

func newTracer(name string, epoch time.Time, capacity int, every uint64) *tracer {
	return &tracer{name: name, epoch: epoch, every: max(every, 1), spans: make([]span, 0, capacity)}
}

// sampled reports whether the spans of message msg are recorded.
func (t *tracer) sampled(msg uint64) bool { return t != nil && msg%t.every == 0 }

// begin opens a span and returns its index, or noSpan.
func (t *tracer) begin(kind spanKind, parent int32, msg uint64) int32 {
	if !t.sampled(msg) {
		return noSpan
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return noSpan
	}
	t.spans = append(t.spans, span{start: int64(time.Since(t.epoch)), msg: msg, parent: parent, kind: kind})
	return int32(len(t.spans) - 1)
}

// beginAt opens a span that started at start (ns since the epoch), such
// as a frame's root span, which starts at the frame's due time.
func (t *tracer) beginAt(kind spanKind, parent int32, msg uint64, start int64) int32 {
	i := t.begin(kind, parent, msg)
	if i != noSpan {
		t.spans[i].start = start
	}
	return i
}

// drop discards span i, the last one opened, when its call turned out
// not to be one the span describes (a NextFrame that timed out).
func (t *tracer) drop(i int32) {
	if i != noSpan && int(i) == len(t.spans)-1 {
		t.spans = t.spans[:i]
	}
}

// end closes span i.
func (t *tracer) end(i int32) {
	if i != noSpan {
		t.spans[i].end = int64(time.Since(t.epoch))
	}
}

// setMsg fills in a message id learnt only once the span's call returned
// (a consume reveals which message it delivered).
func (t *tracer) setMsg(i int32, msg uint64) {
	if i != noSpan {
		t.spans[i].msg = msg
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of it that its children cover. Overlapping children count once, and a
// child reaching outside its parent counts only inside it.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent != noSpan {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	type interval struct{ lo, hi int64 }
	var ivs []interval
	for i, s := range spans {
		ivs = ivs[:0]
		for _, c := range children[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if lo < hi {
				ivs = append(ivs, interval{lo, hi})
			}
		}
		slices.SortFunc(ivs, func(a, b interval) int { return cmp.Compare(a.lo, b.lo) })
		covered, reach := int64(0), s.start
		for _, iv := range ivs {
			lo := max(iv.lo, reach)
			if iv.hi > lo {
				covered += iv.hi - lo
				reach = iv.hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// durations returns the durations of t's spans of one kind.
func (t *tracer) durations(kind spanKind) []int64 {
	var out []int64
	for _, s := range t.spans {
		if s.kind == kind {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// writeSpans writes every tracer's spans as tab-separated text, after a
// header carrying the environment stamp.
func writeSpans(w io.Writer, stamp string, tracers []*tracer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# e2ebench spans %s\n", stamp)
	fmt.Fprintln(bw, "tracer\tkind\tmsg\tparent\tstart_ns\tend_ns\tself_ns")
	for _, t := range tracers {
		if t.dropped > 0 {
			fmt.Fprintf(bw, "# %s dropped %d spans: buffer full\n", t.name, t.dropped)
		}
		self := selfTimes(t.spans)
		for i, s := range t.spans {
			fmt.Fprintf(bw, "%s\t%s\t%d\t%d\t%d\t%d\t%d\n", t.name, s.kind, s.msg, s.parent, s.start, s.end, self[i])
		}
	}
	return bw.Flush()
}
