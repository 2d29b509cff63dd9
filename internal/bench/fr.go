// Flight-recorder benchmark bodies: the steady-state cost of one ring
// append (the price every event pays when the recorder is always on) and a
// whole-cell pair running the same contended workload with the recorder
// attached and detached. The append cost is held to a budget
// (TestFlightRecorderAppendBudget) — the recorder's entire value
// proposition is that it is cheap enough to never turn off.
package bench

import (
	"testing"

	"repro/internal/fr"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// FlightRecorderAppendBench measures one steady-state Recorder.Emit: every
// string already interned and cached, full default trigger checks running,
// the ring evicting old records as it wraps. This is the per-event price of
// always-on recording; it must stay allocation-free and a few tens of
// nanoseconds.
func FlightRecorderAppendBench(b *testing.B) {
	rec := fr.New(fr.Config{Triggers: fr.DefaultTriggers()})
	// Steady-state shape: a handful of threads cycling over the monitor
	// vocabulary the VM actually emits, so the per-field string caches see
	// the realistic mix of hits and intern-table lookups.
	events := []trace.Event{
		{Kind: trace.MonitorBlocked, Thread: "high0", Object: "shared"},
		{Kind: trace.MonitorAcquired, Thread: "high0", Object: "shared"},
		{Kind: trace.MonitorExit, Thread: "high0", Object: "shared"},
		{Kind: trace.MonitorBlocked, Thread: "low0", Object: "shared"},
		{Kind: trace.MonitorAcquired, Thread: "low0", Object: "shared"},
		{Kind: trace.MonitorExit, Thread: "low0", Object: "shared"},
	}
	// Warm the intern table and caches out of the timed region.
	for _, e := range events {
		rec.Emit(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := events[i%len(events)]
		e.At = simtime.Ticks(i)
		rec.Emit(e)
	}
	b.StopTimer()
}

// FlightRecorderCellBench returns a benchmark body running one contended
// Figure-5-style cell (2 high + 8 low, 40 % writes) on the modified VM,
// with the flight recorder attached (on) or with no sink at all (off). The
// off/on delta is the recorder's whole-run overhead.
func FlightRecorderCellBench(on bool) func(b *testing.B) {
	return func(b *testing.B) {
		p := CellParams(ScaleSmall, true, Mix{High: 2, Low: 8}, 40)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var sink trace.Sink
			if on {
				sink = fr.New(fr.Config{Triggers: fr.DefaultTriggers()})
			}
			if _, err := runCell(Modified, p, sink, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}
