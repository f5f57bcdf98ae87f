package main

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync/atomic"
	"time"

	"github.com/insane-mw/insane/insane"
	"github.com/insane-mw/insane/lunar/streaming"
)

// loopFn is one goroutine of a workload. A client loop issues operations
// until stopAt; a served loop answers until ctx ends, then drains.
type loopFn func(ctx context.Context, stopAt time.Time, st *loopStats, tr *tracer)

// loop describes one goroutine of a workload.
type loop struct {
	name   string
	served bool
	fn     loopFn
	// maxRate bounds the operations per second the loop records; its
	// sample buffers are sized from it before the window opens.
	maxRate int
	records sampleKinds
}

// sampleKinds is a set of the sample buffers of a loopStats.
type sampleKinds uint8

const (
	recRTT sampleKinds = 1 << iota
	recDeliver
	recLag
)

// bed is an opened workload: a cluster wired up and past its first
// delivery, ready to run phases.
type bed struct {
	cluster *insane.Cluster
	epoch   time.Time
	loops   []loop
	// prepare, if set, runs before each phase starts its loops.
	prepare func()
	closers []func()
}

func (b *bed) close() {
	for i := len(b.closers) - 1; i >= 0; i-- {
		b.closers[i]()
	}
	b.cluster.Close()
}

// workloads maps each workload name to its opener.
var workloads = map[string]func(seed int64) (*bed, error){
	"local-pingpong":  func(seed int64) (*bed, error) { return openPingPong(seed, false) },
	"remote-pingpong": func(seed int64) (*bed, error) { return openPingPong(seed, true) },
	"edge-mix":        openEdgeMix,
}

// Channels of the workloads.
const (
	chPing   = 100
	chPong   = 101
	chCtlReq = 200
	chCtlRep = 201
)

const (
	// pingMaxRate is 1.5x the round trips per second the co-located path
	// reaches on a 2-CPU x86 VM; a faster runtime fills the buffers and
	// ends the window early rather than growing them.
	pingMaxRate = 150_000
	pingSize    = 64
	ctlSize     = 128
	ctlThink    = time.Millisecond
	frameSize   = 1 << 20
	frameFPS    = 100
	// frameVariants distinct seeded frames rotate through the stream, so
	// a frame delivered under the wrong id fails its checksum.
	frameVariants = 4
	videoStream   = "edge-video"
)

// setupTimeout bounds subscription gossip and the first delivery.
const setupTimeout = 5 * time.Second

// seededBytes returns n bytes drawn from the workload seed.
func seededBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// openPingPong builds the ping-pong workloads: a pinger and a ponger
// session on one node (default QoS, the co-located queued path) or on two
// DPDK nodes (Fast streams, the cross-node path).
func openPingPong(seed int64, remote bool) (*bed, error) {
	epoch := time.Now()
	nodes := []insane.NodeSpec{{Name: "a", DPDK: remote}}
	var streamOpts []insane.Option
	responder := "a"
	if remote {
		nodes = append(nodes, insane.NodeSpec{Name: "b", DPDK: true})
		streamOpts = append(streamOpts, insane.WithDatapath(insane.Fast))
		responder = "b"
	}
	c, err := insane.NewCluster(insane.ClusterOptions{Nodes: nodes, Seed: seed})
	if err != nil {
		return nil, err
	}
	b := &bed{cluster: c, epoch: epoch}
	rng := rand.New(rand.NewSource(seed))
	e, err := openEcho(b, c.Node("a"), c.Node(responder), chPing, chPong, pingSize, 0, rng, nil, streamOpts)
	if err != nil {
		b.close()
		return nil, err
	}
	b.loops = []loop{
		{name: "ping", fn: e.request, maxRate: pingMaxRate, records: recRTT | recLag},
		{name: "pong", served: true, maxRate: pingMaxRate, records: recDeliver, fn: func(ctx context.Context, _ time.Time, st *loopStats, tr *tracer) {
			e.respond(ctx, true, st, tr)
		}},
	}
	return b, nil
}

// openEcho opens the two sessions of a request/reply pair, waits until
// each side's subscription reached the other, and completes one round
// trip.
func openEcho(b *bed, reqNode, repNode *insane.Node, reqCh, repCh, size int, think time.Duration, rng *rand.Rand, sessOpts []insane.SessionOption, streamOpts []insane.Option) (*echoPair, error) {
	e := &echoPair{size: size, think: think, rng: rng, filler: seededBytes(rng, 1<<16), epoch: b.epoch}
	reqStream, err := openStream(b, reqNode, sessOpts, streamOpts)
	if err != nil {
		return nil, err
	}
	repStream, err := openStream(b, repNode, sessOpts, streamOpts)
	if err != nil {
		return nil, err
	}
	if e.repSink, err = reqStream.CreateSink(repCh, nil); err != nil {
		return nil, err
	}
	if e.reqSink, err = repStream.CreateSink(reqCh, nil); err != nil {
		return nil, err
	}
	if reqNode != repNode {
		if err := awaitSubscriber(reqNode, reqCh); err != nil {
			return nil, err
		}
		if err := awaitSubscriber(repNode, repCh); err != nil {
			return nil, err
		}
	}
	if e.reqSrc, err = reqStream.CreateSource(reqCh); err != nil {
		return nil, err
	}
	if e.repSrc, err = repStream.CreateSource(repCh); err != nil {
		return nil, err
	}
	// First delivery: one round trip, both directions, end to end.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.respond(ctx, false, &loopStats{}, nil)
	}()
	defer func() {
		cancel()
		<-done
	}()
	st := &loopStats{rtt: newSamples(1)}
	op := &opContext{Context: ctx}
	var sent [maxEchoSize]byte
	deadline := time.Now().Add(setupTimeout)
	ok := false
	for !ok && time.Now().Before(deadline) {
		e.seq++
		ok = e.roundTrip(op, time.Now(), e.seq, sent[:size], st, nil, noSpan)
	}
	if st.mismatched > 0 || !ok {
		return nil, fmt.Errorf("first round trip on channel %d: not delivered intact", reqCh)
	}
	return e, nil
}

// openStream opens a session on node and one stream in it. A stream
// asking for acceleration must get it: a silent fallback to the kernel
// would measure another path than the workload names.
func openStream(b *bed, node *insane.Node, sessOpts []insane.SessionOption, streamOpts []insane.Option) (*insane.Stream, error) {
	sess, err := node.InitSession(sessOpts...)
	if err != nil {
		return nil, err
	}
	b.closers = append(b.closers, func() { _ = sess.Close() })
	st, err := sess.CreateStreamOpts(streamOpts...)
	if err != nil {
		return nil, err
	}
	if st.FellBack() {
		return nil, fmt.Errorf("node %s: stream fell back to %s", node.Name(), st.Technology())
	}
	return st, nil
}

// awaitSubscriber waits until node has learnt a remote subscriber of ch.
func awaitSubscriber(node *insane.Node, ch int) error {
	deadline := time.Now().Add(setupTimeout)
	for node.SubscriberCount(ch) == 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("node %s: no subscriber of channel %d within %v", node.Name(), ch, setupTimeout)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

// edgeMix is the video half of the edge-mix workload.
type edgeMix struct {
	epoch  time.Time
	server *streaming.Server
	client *streaming.Client
	frames [frameVariants][]byte
	sums   [frameVariants]uint32
	// origin[id] is the instant frame id is timed from, in ns since the
	// epoch, written by the generator before SendFrame and read by the
	// receiver.
	origin []atomic.Int64
	lastID atomic.Uint32 // last frame id sent
	// phaseFirst is the first frame id of the running phase; earlier
	// frames completing late were already counted as failed.
	phaseFirst atomic.Uint32
	crc        *crc32.Table
}

// openEdgeMix builds the edge-mix workload: Lunar Streaming video from
// node a to node b on the default tenant, beside a TSN class-7 control
// loop of the weight-4 ctl tenant.
func openEdgeMix(seed int64) (*bed, error) {
	epoch := time.Now()
	c, err := insane.NewCluster(insane.ClusterOptions{
		Nodes:   []insane.NodeSpec{{Name: "a", DPDK: true}, {Name: "b", DPDK: true}},
		Tenants: []insane.TenantSpec{{ID: "ctl", Weight: 4}},
		Seed:    seed,
	})
	if err != nil {
		return nil, err
	}
	b := &bed{cluster: c, epoch: epoch}
	fail := func(err error) (*bed, error) {
		b.close()
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	v := &edgeMix{epoch: epoch, crc: crc32.MakeTable(crc32.Castagnoli), origin: make([]atomic.Int64, maxFrames)}
	for i := range v.frames {
		v.frames[i] = seededBytes(rng, frameSize)
		v.sums[i] = crc32.Checksum(v.frames[i], v.crc)
	}
	video := insane.Options{Datapath: insane.Fast}
	if v.client, err = streaming.Connect(c.Node("b"), videoStream, video); err != nil {
		return fail(err)
	}
	b.closers = append(b.closers, func() { _ = v.client.Close() })
	if err := awaitSubscriber(c.Node("a"), streaming.StreamChannel(videoStream)); err != nil {
		return fail(err)
	}
	if v.server, err = streaming.OpenServer(c.Node("a"), videoStream, video); err != nil {
		return fail(err)
	}
	b.closers = append(b.closers, func() { _ = v.server.Close() })
	if v.server.Technology() != "dpdk" {
		return fail(fmt.Errorf("video stream mapped to %s, want dpdk", v.server.Technology()))
	}
	ctl, err := openEcho(b, c.Node("a"), c.Node("b"), chCtlReq, chCtlRep, ctlSize, ctlThink, rng,
		[]insane.SessionOption{insane.WithTenant("ctl")},
		[]insane.Option{insane.WithDatapath(insane.Fast), insane.WithTiming(insane.TimeSensitive), insane.WithClass(7)})
	if err != nil {
		return fail(err)
	}
	// First delivery of the video: one frame, end to end.
	now := time.Now()
	if err := v.send(now, now, nil); err != nil {
		return fail(err)
	}
	f, err := v.client.NextFrame(setupTimeout)
	if err != nil {
		return fail(err)
	}
	if !v.intact(f) {
		return fail(errors.New("first frame corrupted"))
	}
	b.prepare = func() { v.phaseFirst.Store(v.lastID.Load() + 1) }
	b.loops = []loop{
		{name: "video", fn: v.generate, maxRate: frameFPS, records: recLag},
		// Think times of at least ctlThink/2 bound the control loop rate.
		{name: "ctl", fn: ctl.request, maxRate: int(2 * time.Second / ctlThink), records: recRTT | recLag},
		{name: "video-rx", served: true, fn: v.receive, maxRate: frameFPS, records: recDeliver},
		{name: "ctl-echo", served: true, fn: func(ctx context.Context, _ time.Time, st *loopStats, tr *tracer) {
			ctl.respond(ctx, false, st, tr)
		}},
	}
	return b, nil
}

// timerSlack bounds how late Go wakes a sleeping goroutine while the
// process has nothing else to run: its netpoll waits in whole
// milliseconds, so a sleep ends up to 1 ms past its deadline.
const timerSlack = 1500 * time.Microsecond

// maxFrames bounds the frame ids of one run (a generator reaching it
// stops early, like a full sample buffer).
const maxFrames = 1 << 15

// send emits the next frame, due at due and timed from origin.
func (v *edgeMix) send(due, origin time.Time, tr *tracer) error {
	id := v.lastID.Load() + 1
	v.origin[id].Store(int64(origin.Sub(v.epoch)))
	v.lastID.Store(id)
	root := tr.beginAt(spanFrame, noSpan, uint64(id), int64(due.Sub(v.epoch)))
	sp := tr.begin(spanSendFrame, root, uint64(id))
	_, err := v.server.SendFrame(v.frames[id%frameVariants])
	tr.end(sp)
	tr.end(root)
	return err
}

// intact reports whether f is the seeded frame its id names.
func (v *edgeMix) intact(f streaming.Frame) bool {
	return len(f.Data) == frameSize && crc32.Checksum(f.Data, v.crc) == v.sums[f.ID%frameVariants]
}

// generate sends frames open loop at frameFPS until stopAt; each frame is
// due on a fixed schedule, whether or not earlier frames were late.
//
// A frame is timed from the instant it is handed to SendFrame: how late
// the generator's own sleep woke, within Go's timer quantum, is the
// harness's noise, reported as lag. A frame the system held back is
// timed from its due time: one whose due time passed while the previous
// SendFrame still ran, or whose generator woke later than timerSlack.
func (v *edgeMix) generate(ctx context.Context, stopAt time.Time, st *loopStats, tr *tracer) {
	start := time.Now()
	var free time.Time // when the previous SendFrame returned
	for k := 0; ctx.Err() == nil && int(v.lastID.Load())+1 < maxFrames; k++ {
		due := start.Add(time.Duration(k) * time.Second / frameFPS)
		if !due.Before(stopAt) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		origin := time.Now()
		lag := origin.Sub(due)
		st.lag.add(int64(lag))
		if free.After(due) || lag > timerSlack {
			origin = due
		}
		st.attempted++
		// A frame SendFrame refuses never completes, so the receiver
		// leaves it counted as failed.
		_ = v.send(due, origin, tr)
		free = time.Now()
	}
}

// receive takes reassembled frames, checks each against its seeded
// content and records its latency from its origin. Once ctx ends it
// keeps draining until every frame of the phase is accounted for or
// opTimeout has passed.
func (v *edgeMix) receive(ctx context.Context, _ time.Time, st *loopStats, tr *tracer) {
	var drainUntil time.Time
	for {
		if ctx.Err() != nil {
			if drainUntil.IsZero() {
				drainUntil = time.Now().Add(opTimeout)
			}
			sent := int64(v.lastID.Load()) - int64(v.phaseFirst.Load()) + 1
			if st.completed+st.mismatched >= sent || time.Now().After(drainUntil) {
				return
			}
		}
		sp := tr.begin(spanNextFrame, noSpan, 0)
		f, err := v.client.NextFrame(opTimeout / 4)
		if err != nil {
			if errors.Is(err, streaming.ErrClosed) {
				return
			}
			tr.drop(sp)
			continue
		}
		now := time.Now()
		tr.setMsg(sp, uint64(f.ID))
		tr.end(sp)
		if f.ID < v.phaseFirst.Load() || int(f.ID) >= len(v.origin) {
			continue // a late frame of an earlier phase
		}
		if !v.intact(f) {
			st.mismatched++
			continue
		}
		st.completed++
		st.msgs += int64(f.Fragments)
		st.deliver.add(int64(now.Sub(v.epoch)) - v.origin[f.ID].Load())
	}
}
