package interp

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/prof"
	"repro/internal/rewrite"
	"repro/internal/sched"
	"repro/internal/simtime"
)

// allTiers is the complete tier set the equivalence properties quantify
// over.
var allTiers = []Tier{TierExec, TierThreaded}

// tierFinalState is everything externally observable at the end of a run:
// the final virtual clock, the complete runtime statistics, and a
// rendering of the final heap (statics, objects, arrays) plus the print
// stream. Two runs are equivalent iff their tierFinalStates are equal.
type tierFinalState struct {
	clock int64
	stats core.Stats
	heap  string
}

// runExampleTier executes one example file on one tier through the full
// rvmrun pipeline — assemble, verify, rewrite, static analysis, elision —
// and captures the final state.
func runExampleTier(t *testing.T, src string, tier Tier) tierFinalState {
	t.Helper()
	text, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := bytecode.Assemble(string(text))
	if err != nil {
		t.Fatal(err)
	}
	if err := bytecode.Verify(prog); err != nil {
		t.Fatal(err)
	}
	prog, err = rewrite.Rewrite(prog)
	if err != nil {
		t.Fatal(err)
	}
	facts, err := analysis.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	rewrite.ApplyStaticElision(prog, facts)

	rt := core.New(core.Config{
		Mode:              core.Revocation,
		TrackDependencies: true,
		DeadlockDetection: true,
		Sched:             sched.Config{Quantum: 1000, SwitchCost: 3},
	})
	env, err := Run(rt, prog, Options{
		Rewritten: true,
		Tier:      tier,
		Facts:     facts,
	})
	if err != nil {
		t.Fatalf("%v tier: %v", tier, err)
	}
	return finalState(rt, env)
}

// finalState fingerprints everything externally observable at the end of
// a run. Shared by the tier-equivalence and the zero-perturbation
// identity properties.
func finalState(rt *core.Runtime, env *Env) tierFinalState {
	var b strings.Builder
	h := rt.Heap()
	for i := 0; i < h.NumStatics(); i++ {
		fmt.Fprintf(&b, "static %s=%d\n", h.StaticName(i), h.GetStatic(i))
	}
	for _, o := range h.Objects() {
		fmt.Fprintf(&b, "object %s#%d", o.Class(), o.ID())
		for i := 0; i < o.NumFields(); i++ {
			fmt.Fprintf(&b, " %s=%d", o.FieldName(i), o.Get(i))
		}
		b.WriteByte('\n')
	}
	for _, a := range h.Arrays() {
		fmt.Fprintf(&b, "array #%d", a.ID())
		for i := 0; i < a.Len(); i++ {
			fmt.Fprintf(&b, " %d", a.Get(i))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "printed %v\n", env.Printed)

	return tierFinalState{clock: int64(rt.Now()), stats: rt.Stats(), heap: b.String()}
}

// TestTierEquivalenceAllExamples is the tier grand invariant: every
// example program produces an identical final heap (statics, object
// fields, array elements, print stream), identical complete Stats
// (rollbacks, log entries, wasted ticks, raw stores, lock-word counters,
// ...) and an identical final virtual clock on the switch interpreter and
// the compiled tier. Fusion, compile-time fact specialization and
// dead-SAVESTACK elision must be invisible to everything but wall-clock
// time.
func TestTierEquivalenceAllExamples(t *testing.T) {
	// exampleSources includes the deadlocking corpus: those runs form a
	// real wait-for cycle, the VM's detector revokes a certified section,
	// and the rolled-back heaps must still fingerprint identically across
	// tiers.
	for _, src := range exampleSources(t) {
		src := src
		t.Run(filepath.Base(src), func(t *testing.T) {
			base := runExampleTier(t, src, TierExec)
			for _, tier := range allTiers[1:] {
				got := runExampleTier(t, src, tier)
				if got.clock != base.clock {
					t.Errorf("%v tier: final clock %d, exec %d", tier, got.clock, base.clock)
				}
				if got.stats != base.stats {
					t.Errorf("%v tier: stats diverge:\n exec: %+v\n %v:  %+v", tier, base.stats, tier, got.stats)
				}
				if got.heap != base.heap {
					t.Errorf("%v tier: final heap diverges:\n exec:\n%s %v:\n%s", tier, base.heap, tier, got.heap)
				}
			}
		})
	}
}

// TestParseTier covers the flag surface, including the rejection message,
// which names both tiers.
func TestParseTier(t *testing.T) {
	for _, tier := range allTiers {
		got, err := ParseTier(tier.String())
		if err != nil || got != tier {
			t.Errorf("ParseTier(%q) = %v, %v", tier, got, err)
		}
	}
	for _, bad := range []string{"opt", "jit", ""} {
		_, err := ParseTier(bad)
		if err == nil {
			t.Errorf("ParseTier(%q) succeeded", bad)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "exec") || !strings.Contains(msg, "threaded") {
			t.Errorf("ParseTier(%q) error %q does not name exec and threaded", bad, msg)
		}
	}
	rt := core.New(core.Config{})
	if _, err := NewEnv(rt, bytecode.MustAssemble("method main locals 0 {\n    return\n}\n"), Options{Tier: Tier(2)}); err == nil {
		t.Error("NewEnv accepted an unknown tier")
	}
}

// TestOptMatchesInterpreter runs the mixed workload through the rvmrun
// -static pipeline, which certifies main's field store barrier-free and
// rewrites it raw. Both tiers agree on the result, the clock and the full
// Stats, and the compiled tier really executes the raw store.
func TestOptMatchesInterpreter(t *testing.T) {
	type outcome struct {
		ret   heap.Word
		clock simtime.Ticks
		stats core.Stats
	}
	run := func(tier Tier) outcome {
		prog, facts := prepareSource(t, mixedWorkload)
		rt := core.New(core.Config{Mode: core.Revocation, Sched: sched.Config{Quantum: 1000}})
		ret := callMainOn(t, rt, prog, Options{Rewritten: true, Tier: tier, Facts: facts})
		return outcome{ret, rt.Now(), rt.Stats()}
	}
	a, b := run(TierExec), run(TierThreaded)
	if a != b {
		t.Fatalf("tiers disagree:\n exec:     %+v\n threaded: %+v", a, b)
	}
	if b.stats.RawStores == 0 {
		t.Fatal("no raw store executed: the static pipeline elided nothing")
	}
}

// TestOptRevocation: the analysis facts leave fused code its full rollback
// support. Under the rvmrun -static pipeline the low thread's section is
// still revoked, the high thread never sees its speculative store, and the
// run matches exec's clock and Stats.
func TestOptRevocation(t *testing.T) {
	run := func(tier Tier) (*core.Runtime, *Env) {
		prog, facts := prepareSource(t, revocationProgram)
		rt := core.New(core.Config{
			Mode:              core.Revocation,
			TrackDependencies: true,
			Sched:             sched.Config{Quantum: 200},
		})
		env, err := Run(rt, prog, Options{Rewritten: true, Tier: tier, Facts: facts})
		if err != nil {
			t.Fatalf("%v tier: %v", tier, err)
		}
		return rt, env
	}
	rt, env := run(TierThreaded)
	if rt.Stats().Rollbacks == 0 {
		t.Fatal("no rollback on the compiled tier with facts")
	}
	idx, _ := env.Prog.StaticIndex("highSawDirty")
	if got := env.RT.Heap().GetStatic(idx); got != 0 {
		t.Fatalf("high saw speculative data = %d", got)
	}
	base, _ := run(TierExec)
	if rt.Now() != base.Now() || rt.Stats() != base.Stats() {
		t.Fatalf("tiers diverge: threaded %d ticks %+v, exec %d ticks %+v", rt.Now(), rt.Stats(), base.Now(), base.Stats())
	}
}

// TestOptExceptions: an ArithmeticException raised inside the callee's
// fused run unwinds through the compile-time-resolved INVOKE to the
// caller's handler, as on exec.
func TestOptExceptions(t *testing.T) {
	src := `
method main locals 0 returns {
  try:
    const 7
    const 0
    invoke divide
    ireturn
  after:
    const 0
    ireturn
  catcher:
    pop
    const 5
    ireturn
}
method divide args 2 locals 2 returns {
    load 0
    load 1
    div
    ireturn
}
handler main from try to after target catcher catch ArithmeticException
`
	for _, tier := range allTiers {
		if got := callMainWith(t, src, Options{Tier: tier}); got != 5 {
			t.Fatalf("%v tier: ret = %d, want 5", tier, got)
		}
	}
}

// TestOptSavestackElision pins the compiled tier's static specialization:
// the SAVESTACK of a statically non-revocable section is compiled to a
// charge-only no-op (elidedSavestacks flags it) while revocable sections
// keep theirs.
func TestOptSavestackElision(t *testing.T) {
	// Both sections are entered with a live operand stack, which is what
	// makes the rewriter spill: a depth-1 SAVESTACK before each.
	src := `
class Lock {
    unused
}
static s = 0
method main locals 1 returns {
    newobj Lock
    store 0
    const 10
    sync 0 {
        const 42
        native print 1
        pop
    }
    const 100
    sync 0 {
        getstatic s
        const 1
        add
        putstatic s
    }
    add
    ireturn
}
`
	prog, err := rewrite.Rewrite(bytecode.MustAssemble(src))
	if err != nil {
		t.Fatal(err)
	}
	facts, err := analysis.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	rewrite.ApplyStaticElision(prog, facts)
	rt := core.New(core.Config{Mode: core.Revocation, Sched: sched.Config{Quantum: 1000}})
	env, err := NewEnv(rt, prog, Options{Rewritten: true, Tier: TierThreaded, Facts: facts})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := prog.Method("main")

	var savestacks, dead int
	deadSet := env.elidedSavestacks(m)
	for pc, instr := range m.Code {
		if instr.Op == bytecode.SAVESTACK {
			savestacks++
			if deadSet[pc] {
				dead++
			}
		}
	}
	if savestacks != 2 {
		t.Fatalf("rewriter inserted %d SAVESTACKs, want 2", savestacks)
	}
	if dead != 1 {
		t.Fatalf("elided %d of %d SAVESTACKs, want exactly the native-calling section's", dead, savestacks)
	}
}

// TestCompiledFromFirstActivation pins that the compiled tier needs no
// warm-up: a thread body activated exactly once runs fused code from that
// activation, so the dead SAVESTACK of its statically non-revocable
// section executes as the certified no-op on every loop iteration. The
// switch interpreter, the reference semantics, never elides it.
func TestCompiledFromFirstActivation(t *testing.T) {
	prog, err := rewrite.Rewrite(bytecode.MustAssemble(`
class Lock {
    unused
}
thread main priority 5 run main
method main locals 2 {
    newobj Lock
    store 0
    const 3
    store 1
  loop:
    load 1
    ifz done
    const 10
    sync 0 {
        const 42
        native print 1
        pop
    }
    pop
    load 1
    const 1
    sub
    store 1
    goto loop
  done:
    return
}
`))
	if err != nil {
		t.Fatal(err)
	}
	facts, err := analysis.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	rewrite.ApplyStaticElision(prog, facts)
	for _, tier := range allTiers {
		dead := 0
		rt := core.New(core.Config{Mode: core.Revocation, Sched: sched.Config{Quantum: 1000}})
		if _, err := Run(rt, prog, Options{
			Rewritten: true,
			Tier:      tier,
			Facts:     facts,
			ElisionAudit: func(kind analysis.CertKind, method string, pc int) {
				if kind == analysis.CertDeadSavestack && method == "main" {
					dead++
				}
			},
		}); err != nil {
			t.Fatalf("%v tier: %v", tier, err)
		}
		want := 0
		if tier == TierThreaded {
			want = 3
		}
		if dead != want {
			t.Errorf("%v tier: %d dead-SAVESTACK no-ops in the single activation of main, want %d", tier, dead, want)
		}
	}
}

// TestWhatIfScaleTierEquivalence pins that a what-if Perturb.Scale run
// charges identically on both tiers. Site scaling rewrites every Work
// charge at the site, the instruction's own cost included, so the
// compiled tier must not take the unscaled Task.Step fast path while
// scaling is configured. Scaling resolves sites through the runtime's own
// site register, so it must shorten the run with and without a profiler
// attached.
func TestWhatIfScaleTierEquivalence(t *testing.T) {
	src := `
thread main priority 5 run main
method main locals 1 {
    const 5
    store 0
  loop:
    load 0
    ifz done
    const 100
    work
    load 0
    const 1
    sub
    store 0
    goto loop
  done:
    return
}
`
	run := func(tier Tier, scale bool, profiler *prof.Profiler) int64 {
		prog := bytecode.MustAssemble(src)
		var p *core.Perturb
		if scale {
			m, _ := prog.Method("main")
			for pc, in := range m.Code {
				if in.Op == bytecode.WORK {
					p = &core.Perturb{Scale: map[core.Site]core.Ratio{{Method: "main", PC: pc}: {Num: 1, Den: 3}}}
				}
			}
		}
		rt := core.New(core.Config{
			Mode:     core.Revocation,
			Profiler: profiler,
			Perturb:  p,
			Sched:    sched.Config{Quantum: 1000},
		})
		if _, err := Run(rt, prog, Options{Tier: tier}); err != nil {
			t.Fatalf("%v tier: %v", tier, err)
		}
		return int64(rt.Now())
	}
	for _, profiled := range []bool{true, false} {
		newProfiler := func() *prof.Profiler {
			if profiled {
				return prof.New()
			}
			return nil
		}
		scaled := run(TierExec, true, newProfiler())
		for _, tier := range allTiers {
			base, got := run(tier, false, newProfiler()), run(tier, true, newProfiler())
			if got >= base {
				t.Errorf("profiled=%v %v tier: scaling the work site did not shorten the run: %d >= %d ticks", profiled, tier, got, base)
			}
			if got != scaled {
				t.Errorf("profiled=%v %v tier: scaled run ends at %d ticks, exec at %d", profiled, tier, got, scaled)
			}
		}
	}
}
