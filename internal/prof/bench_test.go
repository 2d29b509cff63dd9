package prof

import (
	"testing"

	"repro/internal/simtime"
	"repro/internal/trace"
)

// BenchmarkProfilerTick times one charge in the steady state of a profiled
// program: every tick lands inside a synchronized section, so it is both
// counted and journaled, and the section commits every 4096 ticks. The
// charges cycle over 16 pcs of one method. It drives the profiler through
// New, Thread, Push, Tick and Emit alone, so the file runs unchanged against
// an older profiler for a paired comparison.
func BenchmarkProfilerTick(b *testing.B) {
	const (
		sectionTicks = 4096
		sites        = 16
	)
	p := New()
	var pc int
	tp := p.Thread("T", &pc)
	tp.Push("m")
	enter := trace.Event{Kind: trace.MonitorAcquired, Thread: "T", Object: "A"}
	exit := trace.Event{Kind: trace.MonitorExit, Thread: "T", Object: "A"}
	var now simtime.Ticks
	section := func(n int) {
		p.Emit(enter)
		for i := 0; i < n; i++ {
			pc = i % sites
			now++
			tp.Tick(now, 1)
		}
		p.Emit(exit)
	}
	section(sectionTicks) // every cell and the whole journal exist before timing

	b.ReportAllocs()
	b.ResetTimer()
	for n := b.N; n > 0; n -= sectionTicks {
		section(min(n, sectionTicks))
	}
}
