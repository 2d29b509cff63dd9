package main

import (
	"fmt"
	"os"
	"reflect"
	"runtime/metrics"
	"slices"
	"time"

	"repro/revoke"
)

// tally accumulates one round: every operation of a workload once.
type tally struct {
	attempted, failed int
	// problems are failed checks that span operations (tier agreement,
	// the figure shapes); any of them makes the run incorrect.
	problems []string

	wall       time.Duration // host time of the measured runs
	allocBytes uint64        // Go heap bytes allocated by them

	// Revocation-VM runs only: the Figures 5-8 spans summed over runs,
	// and every high-priority section's request-to-commit latency.
	highSpan, overallSpan int64
	sections              []int64

	stats revoke.Stats // summed over every run
	cpu   int64        // virtual CPU ticks charged, summed over every run
	// ops counts the shared-data operations executed, rolled-back
	// attempts included, where the task-API workloads can count them;
	// zero for bytecode programs.
	ops int64

	phases  // spans around public calls and per-layer counts not in revoke.Stats
	goDelta goCounters
}

func newTally() *tally {
	return &tally{phases: newPhases()}
}

// op runs one operation: vm under the wall clock and the allocation
// counter, then check outside them. An error from either fails the
// operation.
func (t *tally) op(what string, vm func() error, check func() error) bool {
	t.attempted++
	a0 := heapAllocBytes()
	start := time.Now()
	err := vm()
	t.wall += time.Since(start)
	t.allocBytes += heapAllocBytes() - a0
	if err == nil {
		err = check()
	}
	if err != nil {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
		return false
	}
	return true
}

func (t *tally) problem(format string, args ...any) {
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
}

// addRevocationRun records a revocation-VM run's tick measures.
func (t *tally) addRevocationRun(highSpan, overallSpan int64, sections []int64) {
	t.highSpan += highSpan
	t.overallSpan += overallSpan
	t.sections = append(t.sections, sections...)
}

// addStats sums a run's counters and CPU into the round.
func (t *tally) addStats(s revoke.Stats, cpu int64) {
	t.stats = sumStats(t.stats, s)
	t.cpu += cpu
}

// tickMetrics are the deterministic end-to-end metrics of a round.
type tickMetrics struct {
	highSpan, overallSpan, p50, p99 int64
}

func (t *tally) ticks() tickMetrics {
	s := slices.Clone(t.sections)
	slices.Sort(s)
	return tickMetrics{t.highSpan, t.overallSpan, nearestRank(s, 0.50), nearestRank(s, 0.99)}
}

// nearestRank returns the p-quantile of sorted samples by the
// nearest-rank method (the convention of internal/obs histograms).
func nearestRank(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sumStats adds every counter of b to a. All fields of revoke.Stats are
// integer counters.
func sumStats(a, b revoke.Stats) revoke.Stats {
	va := reflect.ValueOf(&a).Elem()
	vb := reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetInt(va.Field(i).Int() + vb.Field(i).Int())
	}
	return a
}

// threadCPU sums the virtual CPU every thread of rt charged.
func threadCPU(rt *revoke.Runtime) int64 {
	var cpu int64
	for _, th := range rt.Scheduler().Threads() {
		cpu += int64(th.CPU())
	}
	return cpu
}

// span returns the elapsed virtual time from the earliest start to the
// latest end over tasks: the paper's Figures 5-8 measure.
func span(tasks []*revoke.Task) int64 {
	if len(tasks) == 0 {
		return 0
	}
	start, end := tasks[0].Thread().StartedAt(), tasks[0].Thread().EndedAt()
	for _, tk := range tasks[1:] {
		start = min(start, tk.Thread().StartedAt())
		end = max(end, tk.Thread().EndedAt())
	}
	return int64(end - start)
}

// phases records spans the benchmark times around public calls, and
// counts that go with them.
type phases struct {
	d     map[string]time.Duration
	count map[string]float64
}

func newPhases() phases {
	return phases{d: map[string]time.Duration{}, count: map[string]float64{}}
}

// timed adds f's host time to the named span.
func (p phases) timed(name string, f func() error) error {
	start := time.Now()
	err := f()
	p.d[name] += time.Since(start)
	return err
}

// eventCounter is the traced run's tracer: it counts the runtime events
// the VM emits.
type eventCounter struct{ n int64 }

func (c *eventCounter) Emit(revoke.TraceEvent) { c.n++ }

// tracer returns c as a runtime tracer, or nil (the runtime's discarding
// default) when c is nil.
func (c *eventCounter) tracer() revoke.TraceSink {
	if c == nil {
		return nil
	}
	return c
}

// goCounters are the Go runtime's cumulative allocation and GC counts.
type goCounters struct {
	gcCycles, mallocs uint64
}

func (g goCounters) sub(o goCounters) goCounters {
	return goCounters{g.gcCycles - o.gcCycles, g.mallocs - o.mallocs}
}

var goSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/gc/heap/allocs:objects"},
}

func heapAllocBytes() uint64 {
	metrics.Read(goSamples[:1])
	return goSamples[0].Value.Uint64()
}

func readGoCounters() goCounters {
	metrics.Read(goSamples)
	return goCounters{gcCycles: goSamples[1].Value.Uint64(), mallocs: goSamples[2].Value.Uint64()}
}
