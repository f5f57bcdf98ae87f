package main

import (
	"slices"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(n - i) // unsorted on purpose
		}
		return s
	}
	cases := []struct {
		n, num, den int
		want        int64
		ok          bool
	}{
		{1000, 99, 100, 990, true}, // exactly ten above the 990th
		{999, 99, 100, 990, false}, // rank 990 leaves nine above
		{1009, 99, 100, 999, true},
		{20, 1, 2, 10, true},
		{19, 1, 2, 10, false},
		{0, 1, 2, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.num, c.den)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, %d/%d) = %d, %v; want %d, %v", c.n, c.num, c.den, got, ok, c.want, c.ok)
		}
	}
}

func TestMetricSetRejectsUnsupportedTail(t *testing.T) {
	ms := newMetricSet()
	ms.pct("x_p99_us", make([]int64, 500), 99, 100, "us")
	if ms.err == nil {
		t.Fatal("p99 of 500 samples accepted")
	}
}

func TestRatioWithZeroBase(t *testing.T) {
	if got := ratio(0, 0); got != 0 {
		t.Errorf("ratio(0, 0) = %v, want 0", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %v, want 0", got)
	}
	if got := ratio(1, 4); got != 0.25 {
		t.Errorf("ratio(1, 4) = %v, want 0.25", got)
	}
}

func TestTallyCountsFailuresAgainstAttempts(t *testing.T) {
	p := phaseResult{stats: []*loopStats{
		{attempted: 10, completed: 7}, // client loop with three failures
		{attempted: 5},                // generator: completions counted elsewhere
		{completed: 4},                // receiver of the generator's operations
		{completed: 0, mismatched: 0}, // responder
	}}
	res := tally(p)
	if res.Attempted != 15 || res.Failed != 4 || !res.Correct {
		t.Errorf("tally = %+v, want 15 attempted, 4 failed, correct", res)
	}
	if got := ratio(float64(res.Failed), float64(res.Attempted)); got != 4.0/15 {
		t.Errorf("fail_frac = %v", got)
	}

	p.stats[2].mismatched = 1
	if tally(p).Correct {
		t.Error("a mismatched message left the run correct")
	}
	if tally(phaseResult{stats: []*loopStats{{}}}).Correct {
		t.Error("a run that attempted nothing is correct")
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: noSpan},
		{start: 10, end: 30, parent: 0},
		{start: 20, end: 50, parent: 0},  // overlaps the previous child
		{start: 90, end: 120, parent: 0}, // reaches past its parent
		{start: 25, end: 28, parent: 2},  // grandchild: not the root's child
		{start: 200, end: 210, parent: noSpan},
	}
	got := selfTimes(spans)
	want := []int64{50, 20, 27, 30, 3, 10}
	if !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerSamplesAndBounds(t *testing.T) {
	tr := newTracer("t", time.Now(), 2, 2)
	if i := tr.begin(spanEmit, noSpan, 3); i != noSpan {
		t.Error("message 3 traced with every=2")
	}
	a := tr.begin(spanRTT, noSpan, 4)
	tr.begin(spanEmit, a, 4)
	if i := tr.begin(spanEmit, a, 4); i != noSpan || tr.dropped != 1 {
		t.Errorf("full tracer recorded a span (index %d, dropped %d)", i, tr.dropped)
	}
	var off *tracer
	if i := off.begin(spanEmit, noSpan, 0); i != noSpan {
		t.Error("nil tracer recorded a span")
	}
	off.end(noSpan)
}

// TestWorkloadsSmoke runs every workload briefly, untraced and traced,
// and checks that every operation completed intact. Under the race
// detector late operations may fail, but none may arrive corrupted.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			b, err := workloads[name](7)
			if err != nil {
				t.Fatal(err)
			}
			defer b.close()
			for _, every := range []uint64{0, 1} {
				p := runPhase(b, 400*time.Millisecond, every)
				res := tally(p)
				if !res.Correct || (res.Failed != 0 && !raceEnabled) {
					t.Fatalf("trace=%v: %+v", every > 0, res)
				}
				if every > 0 {
					n := 0
					for _, tr := range p.tracers {
						n += len(tr.spans)
					}
					if n == 0 {
						t.Error("traced phase recorded no spans")
					}
				}
			}
		})
	}
}
