// Micro-benchmark bodies for the barrier fast path. They live here (not in
// a _test.go file) so the internal/core benchmark suite and the root
// bench_test.go run the same code through go test -bench.
package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/sched"
)

// WriteBarrierBench exercises the logging store barrier at steady state:
// one task inside a synchronized section cyclically re-writing the same 64
// object fields, with §2.2 dependency tracking enabled. After the first lap
// over the buffer every store hits a location that is already logged and
// already registered as speculative.
func WriteBarrierBench(b *testing.B) {
	const slots = 64
	rt := core.New(core.Config{Mode: core.Revocation, NoCosts: true, TrackDependencies: true})
	o := rt.Heap().AllocPlain("C", slots)
	m := rt.NewMonitor("m")
	rt.Spawn("w", sched.NormPriority, func(tk *core.Task) {
		tk.Synchronized(m, func() {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tk.WriteField(o, i%slots, heap.Word(i))
			}
			b.StopTimer()
		})
	})
	if err := rt.Run(); err != nil {
		b.Fatal(err)
	}
}

// ReadBarrierBench exercises the dependency-checking read barrier: a
// low-priority writer parks inside a synchronized section holding
// speculative writes, so the reader's HasForeign fast path fails and every
// read performs the per-location §2.2 check (always a miss: the reader
// touches a different object).
func ReadBarrierBench(b *testing.B) {
	const slots = 64
	rt := core.New(core.Config{Mode: core.Revocation, NoCosts: true, TrackDependencies: true,
		Sched: sched.Config{Quantum: 1 << 40}})
	dirty := rt.Heap().AllocPlain("dirty", slots)
	clean := rt.Heap().AllocPlain("clean", slots)
	m := rt.NewMonitor("m")
	done := false
	rt.Spawn("writer", sched.LowPriority, func(tk *core.Task) {
		tk.Synchronized(m, func() {
			for i := 0; i < slots; i++ {
				tk.WriteField(dirty, i, heap.Word(i))
			}
			for !done {
				tk.Thread().Yield()
			}
		})
	})
	var sink heap.Word
	rt.Spawn("reader", sched.HighPriority, func(tk *core.Task) {
		// Let the writer fill its section first (it runs once we yield;
		// priority queues hand control back afterwards).
		for rt.Stats().EntriesLogged == 0 {
			tk.Thread().Yield()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink = tk.ReadField(clean, i%slots)
		}
		b.StopTimer()
		done = true
	})
	if err := rt.Run(); err != nil {
		b.Fatal(err)
	}
	_ = sink
}

// RollbackBench measures one full revocation cycle as seen by the
// high-priority requester: detection at acquisition, preemption of the
// owner, reverse replay of the undo log, monitor handoff. The victim's
// section writes each of 100 array slots 10 times, so the log replay covers
// 100 locations (first-write-wins; 1000 entries before dedup existed).
func RollbackBench(b *testing.B) {
	const slots, laps = 100, 10
	rt := core.New(core.Config{Mode: core.Revocation, NoCosts: true, Sched: sched.Config{Quantum: 1 << 40}})
	a := rt.Heap().AllocArray(slots)
	m := rt.NewMonitor("m")
	ready, done := false, false
	rt.Spawn("low", sched.LowPriority, func(tk *core.Task) {
		for !done {
			tk.Synchronized(m, func() {
				if done {
					return
				}
				for k := 0; k < slots*laps; k++ {
					tk.WriteElem(a, k%slots, heap.Word(k))
				}
				ready = true
				// Yield until revoked (virtual time is frozen under
				// NoCosts, so quantum expiry never preempts for us).
				for !done && ready {
					tk.Thread().Yield()
					tk.YieldPoint() // delivers the pending revocation
				}
			})
		}
	})
	rt.Spawn("high", sched.HighPriority, func(tk *core.Task) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for !ready {
				tk.Thread().Yield()
			}
			ready = false
			tk.Synchronized(m, func() {})
		}
		b.StopTimer()
		done = true
	})
	if err := rt.Run(); err != nil {
		b.Fatal(err)
	}
	if got := rt.Stats().Rollbacks; got < int64(b.N) {
		b.Fatalf("only %d rollbacks in %d iterations", got, b.N)
	}
}

// ContextSwitchBench measures the scheduler hand-off: two threads yield to
// each other b.N times each, so one op is a round trip of two dispatches.
func ContextSwitchBench(b *testing.B) {
	s := sched.New(sched.Config{Quantum: 1})
	for _, name := range []string{"a", "b"} {
		s.Spawn(name, sched.NormPriority, func(th *sched.Thread) {
			for i := 0; i < b.N; i++ {
				th.Yield()
			}
		})
	}
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}
