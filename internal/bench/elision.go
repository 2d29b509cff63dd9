// Static-elision benchmark: the same store-heavy program executed on the
// revocation VM with every store barriered versus with the
// internal/analysis elision applied, quantifying what the §1.1 static
// optimisation buys end-to-end. Lives outside _test.go so the root
// BenchmarkAblationBarrierElision and this package's smoke test run the
// same body.
package bench

import (
	"io"
	"testing"

	"repro/internal/analysis"
	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/rewrite"
	"repro/internal/sched"
)

// elisionBenchProgram is store-heavy by construction: the hot helper writes
// a fresh object and a global outside any section on every lap (all
// statically elidable), while the small synchronized section keeps the
// write barrier's logging path live for comparison. The lock is published
// to a static so the escape analysis cannot prove it thread-confined —
// whole-monitor elision would otherwise remove the very logging path the
// barriers half of the pair measures.
const elisionBenchProgram = `
static g = 0
static lockRef = 0
class Lock {
    unused
}
class L {
    f
}
thread main priority 5 run main
method main locals 2 {
    newobj Lock
    store 0
    load 0
    putstatic lockRef
    const 200
    store 1
  loop:
    load 1
    ifz done
    invoke hot
    sync 0 {
        getstatic g
        const 1
        add
        putstatic g
    }
    load 1
    const 1
    sub
    store 1
    goto loop
  done:
    return
}
method hot locals 1 {
    newobj L
    store 0
    load 0
    const 1
    putfield L.f
    getstatic g
    const 1
    add
    putstatic g
    return
}
`

// ElisionBenchBody returns a benchmark body that runs the program
// end-to-end b.N times: with static=false through the rewriter alone (every
// store barriered), with static=true through the rvmrun -static pipeline
// (analysis, certified elision, Facts handed to the interpreter). Only
// spawning the declared threads and rt.Run are timed; each iteration's
// fresh runtime and interp.NewEnv — whose load-time gate re-derives every
// certificate — are built with the timer stopped. counts, when non-nil, is
// filled with the analysis and runtime store statistics of the last run.
func ElisionBenchBody(static bool, counts map[string]int64) func(b *testing.B) {
	return func(b *testing.B) {
		prog, err := rewrite.Rewrite(bytecode.MustAssemble(elisionBenchProgram))
		if err != nil {
			b.Fatal(err)
		}
		var facts *analysis.Facts
		if static {
			facts, err = analysis.Analyze(prog)
			if err != nil {
				b.Fatal(err)
			}
			rewrite.ApplyStaticElision(prog, facts)
		}
		var st core.Stats
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			rt := core.New(core.Config{
				Mode: core.Revocation, NoCosts: true,
				Sched: sched.Config{Quantum: 1 << 40},
			})
			env, err := interp.NewEnv(rt, prog, interp.Options{
				Rewritten: true, Facts: facts, Out: io.Discard,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := env.SpawnDeclaredThreads(); err != nil {
				b.Fatal(err)
			}
			if err := rt.Run(); err != nil {
				b.Fatal(err)
			}
			st = rt.Stats()
		}
		b.StopTimer()
		if counts != nil {
			counts["entries_logged"] = st.EntriesLogged
			counts["raw_stores"] = st.RawStores
			counts["barrier_fast_paths"] = st.BarrierFastPaths
			if facts != nil {
				counts["static_total_stores"] = int64(facts.TotalStores)
				counts["static_elidable_stores"] = int64(facts.ElidableStores)
				counts["static_never_held"] = int64(facts.NeverHeldStores)
				counts["static_fresh_target"] = int64(facts.FreshStores)
			}
		}
	}
}
