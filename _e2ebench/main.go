// Command e2ebench is the repository's end-to-end benchmark. It drives
// the public insane API and lunar/streaming from one process, runs one
// named workload, checks that every message arrived intact, and prints
// each metric with its unit. The last line of standard output is one
// JSON object: correct, attempted, failed and metrics.
//
// Run it from the repository root through its build script:
//
//	bash _e2ebench/run.sh --workload local-pingpong --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it runs untraced, then traced, half the window each,
// reports the per-layer metrics and writes the spans under
// .bench_build/spans/. README.md lists the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// Run shape. Each bed runs a warmup phase before it is measured. An
// untraced run splits its window over rounds independent beds: the
// runtime settles into different timer regimes from one bed to the next
// (idle pollers wake on a ~1 ms netpoll quantum, or not), and the median
// over beds repeats where one bed's figure does not.
const (
	warmup = 500 * time.Millisecond
	rounds = 11
	// watchdog ends a run that overran every per-operation bound, so no
	// run outlives its caller's limit.
	watchdog = 170 * time.Second
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the workload's inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from a traced run")
	flag.Parse()
	cfg.trace = trace == 1
	if workloads[cfg.workload] == nil || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "e2ebench: %s overran %v\n", cfg.workload, watchdog)
		os.Exit(3)
	})

	stamp := envStamp(cfg)
	fmt.Println("env", stamp)
	res, err := run(cfg, stamp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	for _, name := range sortedNames(res.Metrics) {
		fmt.Printf("%-32s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	fmt.Printf("attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

func workloadNames() []string {
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// envStamp describes where a result was measured, as one JSON object.
func envStamp(cfg config) string {
	commit, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	b, _ := json.Marshal(map[string]any{
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"commit": commit + dirty, "workload": cfg.workload, "seed": cfg.seed,
		"seconds": cfg.seconds, "trace": cfg.trace,
	})
	return string(b)
}

// run measures one workload. An untraced run measures rounds fresh
// beds, each set up (timed), warmed up and measured for an equal share of
// the window, and reports each metric's median over the rounds. A traced
// run sets up one bed and measures it untraced, then traced, for half
// the window each.
func run(cfg config, stamp string) (*result, error) {
	open := workloads[cfg.workload]
	dur := time.Duration(cfg.seconds * float64(time.Second))
	openTimed := func() (*bed, time.Duration, error) {
		runtime.GC() // each set-up starts from a collected heap
		start := time.Now()
		b, err := open(cfg.seed)
		if err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		return b, time.Since(start), nil
	}

	if cfg.trace {
		b, _, err := openTimed()
		if err != nil {
			return nil, err
		}
		defer b.close()
		runPhase(b, warmup, 0)
		plain := runPhase(b, dur/2, 0)
		res := tally(plain)
		// Sample so the busiest loop's spans fit its buffer: a requester
		// records five spans per operation.
		traced := runPhase(b, dur/2, uint64(1+res.Attempted*5/spanCap))
		t := tally(traced)
		res.Attempted += t.Attempted
		res.Failed += t.Failed
		res.Correct = res.Correct && t.Correct
		ms := newMetricSet()
		perLayer(ms, plain, traced, res)
		if ms.err != nil {
			return nil, ms.err
		}
		res.Metrics = ms.m
		return res, saveSpans(cfg, stamp, traced.tracers)
	}

	res := &result{Correct: true}
	perRound := make(map[string][]float64)
	unit := make(map[string]string)
	for r := 0; r < rounds; r++ {
		b, setup, err := openTimed()
		if err != nil {
			return nil, err
		}
		runPhase(b, warmup, 0)
		p := runPhase(b, dur/rounds, 0)
		b.close()
		t := tally(p)
		res.Attempted += t.Attempted
		res.Failed += t.Failed
		res.Correct = res.Correct && t.Correct
		ms := newMetricSet()
		ms.set("setup_s", setup.Seconds(), "s")
		endToEnd(ms, p)
		if ms.err != nil {
			return nil, fmt.Errorf("round %d: %w", r, ms.err)
		}
		fmt.Printf("round %d:", r)
		for _, name := range sortedNames(ms.m) {
			perRound[name] = append(perRound[name], ms.m[name].Value)
			unit[name] = ms.m[name].Unit
			fmt.Printf(" %s=%.4g", name, ms.m[name].Value)
		}
		fmt.Println()
	}
	res.Metrics = make(map[string]metric, len(perRound))
	for name, vals := range perRound {
		med, _ := percentile(vals, 1, 2)
		res.Metrics[name] = metric{Value: med, Unit: unit[name]}
	}
	return res, nil
}

// tally counts a phase's operations: attempted by the client loops,
// completed wherever the operation completes, failed the rest.
func tally(p phaseResult) *result {
	res := &result{}
	var completed, mismatched int64
	for _, st := range p.stats {
		res.Attempted += st.attempted
		completed += st.completed
		mismatched += st.mismatched
	}
	res.Failed = res.Attempted - completed
	res.Correct = mismatched == 0 && res.Attempted > 0
	return res
}

// merged concatenates one sample kind over every loop of a phase.
func merged(p phaseResult, pick func(*loopStats) samples) []int64 {
	var out []int64
	for _, st := range p.stats {
		out = append(out, pick(st)...)
	}
	return out
}

func rttOf(st *loopStats) samples     { return st.rtt }
func deliverOf(st *loopStats) samples { return st.deliver }
func lagOf(st *loopStats) samples     { return st.lag }

// endToEnd reports the metrics a user of the system sees.
func endToEnd(ms *metricSet, p phaseResult) {
	rtt := merged(p, rttOf)
	ms.pct("rtt_p50_us", rtt, 1, 2, "us")
	ms.pct("rtt_p95_us", rtt, 95, 100, "us")
	ms.set("rtt_per_s", float64(len(rtt))/p.elapsed.Seconds(), "1/s")
	ms.pct("deliver_p50_us", merged(p, deliverOf), 1, 2, "us")
	var msgs int64
	for _, st := range p.stats {
		msgs += st.msgs
	}
	cpu := p.after.cpu - p.before.cpu
	ms.set("cpu_us_per_msg", ratio(float64(cpu)/1e3, float64(msgs)), "us")
}

// perLayer reports the per-layer metrics: counters from the untraced
// window, spans from the traced one.
func perLayer(ms *metricSet, plain, traced phaseResult, res *result) {
	b, a := plain.before, plain.after
	var msgs int64
	for _, st := range plain.stats {
		msgs += st.msgs
	}
	ms.set("fail_frac", ratio(float64(res.Failed), float64(res.Attempted)), "ratio")
	ms.set("insane.emit_retries_per_msg", ratio(float64(a.refusals-b.refusals), float64(a.emits-b.emits)), "1/msg")
	ms.set("insane.emits", float64(a.emits-b.emits), "count")
	ms.set("core.dispatch_batch_mean", ratio(a.batchSum-b.batchSum, float64(a.batchCount-b.batchCount)), "msgs")
	ms.set("core.tx_ring_occupancy_p99", float64(a.txOccP99), "slots")
	ms.set("core.ring_full_drops", float64(a.ringFull-b.ringFull), "count")
	ms.set("core.nosink_drops", float64(a.noSink-b.noSink), "count")
	ms.set("core.tech_downgrades", float64(a.down-b.down), "count")
	ms.set("fabric.lost", float64(int64(a.tx-b.tx)-int64(a.rx-b.rx)), "count")
	ms.set("mempool.get_fail_ratio", ratio(float64(a.mpFails-b.mpFails), float64(a.mpGets-b.mpGets)), "ratio")
	ms.set("mempool.gets", float64(a.mpGets-b.mpGets), "count")
	ms.set("mempool.envcache_hit_ratio", ratio(float64(a.envHits-b.envHits), float64(a.envGets-b.envGets)), "ratio")
	ms.set("mempool.envcache_gets", float64(a.envGets-b.envGets), "count")
	ms.set("proc.allocs_per_msg", ratio(float64(a.mallocs-b.mallocs), float64(msgs)), "1/msg")
	ms.set("proc.alloc_bytes_per_msg", ratio(float64(a.allocBytes-b.allocBytes), float64(msgs)), "B/msg")
	ms.set("proc.gc_cycles", float64(a.numGC-b.numGC), "count")
	ms.pct("harness.gen_lag_p99_ms", merged(plain, lagOf), 99, 100, "ms")

	spans := func(kind spanKind) []int64 {
		var out []int64
		for _, t := range traced.tracers {
			out = append(out, t.durations(kind)...)
		}
		return out
	}
	emits := spans(spanEmit)
	ms.pct("insane.emit_ns_p50", emits, 1, 2, "ns")
	ms.pct("insane.emit_ns_p99", emits, 99, 100, "ns")
	waits := spans(spanConsume)
	ms.pct("insane.consume_wait_us_p50", waits, 1, 2, "us")
	ms.pct("insane.consume_wait_us_p99", waits, 99, 100, "us")
	ms.pct("insane.getbuffer_ns_p50", spans(spanGetBuffer), 1, 2, "ns")
	ms.pct("insane.release_ns_p50", spans(spanRelease), 1, 2, "ns")
	// Workloads without video report the lunar metrics as 0.
	if sends := spans(spanSendFrame); len(sends) > 0 {
		ms.pct("lunar.sendframe_us_p50", sends, 1, 2, "us")
		ms.pct("lunar.sendframe_us_p99", sends, 99, 100, "us")
		ms.pct("lunar.frame_after_send_us_p50", frameAfterSend(traced.tracers), 1, 2, "us")
	} else {
		ms.set("lunar.sendframe_us_p50", 0, "us")
		ms.set("lunar.sendframe_us_p99", 0, "us")
		ms.set("lunar.frame_after_send_us_p50", 0, "us")
	}
	plainRTT, _ := percentile(merged(plain, rttOf), 1, 2)
	tracedRTT, _ := percentile(spans(spanRTT), 1, 2)
	ms.set("harness.trace_overhead_frac", ratio(float64(tracedRTT-plainRTT), float64(plainRTT)), "ratio")
}

// frameAfterSend joins each frame's SendFrame return with the NextFrame
// return that delivered it.
func frameAfterSend(tracers []*tracer) []int64 {
	sent := make(map[uint64]int64)
	for _, t := range tracers {
		for _, s := range t.spans {
			if s.kind == spanSendFrame {
				sent[s.msg] = s.end
			}
		}
	}
	var out []int64
	for _, t := range tracers {
		for _, s := range t.spans {
			if at, ok := sent[s.msg]; ok && s.kind == spanNextFrame {
				out = append(out, s.end-at)
			}
		}
	}
	return out
}

// saveSpans writes the traced window's spans to
// .bench_build/spans/<workload>.tsv under the working directory.
func saveSpans(cfg config, stamp string, tracers []*tracer) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, cfg.workload+".tsv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, stamp, tracers); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", path, err)
	}
	fmt.Println("spans written to", path)
	return nil
}
