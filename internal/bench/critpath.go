// The CritPathBuild benchmark: DAG construction plus critical-path
// extraction over a pre-recorded cell stream — the post-processing a
// -critpath run adds after the program finishes.
package bench

import (
	"testing"

	"repro/internal/causal"
	"repro/internal/trace"
)

// CritPathBuildBench times DAG construction + invariant check + critical
// path extraction over a pre-recorded event stream (the first thread mix's
// cell; the recording happens once, outside the timed loop). This is the
// cost a -critpath run adds AFTER the program finishes — the run itself is
// unperturbed — so it prices post-processing latency, not VM speed.
func CritPathBuildBench(b *testing.B) {
	p := CellParams(ScaleSmall, true, Mixes[0], 40)
	rec := &trace.Recorder{}
	if _, err := runCell(Modified, p, rec, nil); err != nil {
		b.Fatal(err)
	}
	events := rec.Events()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := causal.Build(events, causal.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := g.CheckInvariant(); err != nil {
			b.Fatal(err)
		}
		if _, err := g.CriticalPath(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(events)), "events")
}
