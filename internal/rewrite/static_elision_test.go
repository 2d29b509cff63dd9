package rewrite

import (
	"io"
	"testing"

	"repro/internal/analysis"
	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/sched"
)

// staticElisionProgram forces a priority-inversion rollback through a
// section that writes both a provably fresh object (elidable by the
// fresh-target rule) and a pre-existing static (never elidable), plus
// never-held stores outside the section.
const staticElisionProgram = `
static lockRef = 0
static g = 0
static done = 0
class Lock {
    unused
}
class L {
    f
}
thread init priority 9 run setup
thread low priority 2 run lowMain
thread high priority 8 run highMain
method setup locals 1 {
    newobj Lock
    store 0
    load 0
    putstatic lockRef
    return
}
method lowMain locals 2 {
  spin:
    getstatic lockRef
    ifz spin
    getstatic lockRef
    store 0
    sync 0 {
        newobj L
        store 1
        load 1
        const 7
        putfield L.f
        getstatic g
        const 1
        add
        putstatic g
        const 3000
        work
    }
    const 5
    putstatic done
    return
}
method highMain locals 1 {
    const 300
    sleep
    getstatic lockRef
    store 0
    sync 0 {
        nop
    }
    return
}
`

// runStatic assembles, rewrites, optionally analyzes+elides, and executes
// the program on the revocation VM, returning the runtime for inspection.
func runStatic(t *testing.T, src string, static bool) *core.Runtime {
	t.Helper()
	prog := bytecode.MustAssemble(src)
	rewritten, err := Rewrite(prog)
	if err != nil {
		t.Fatal(err)
	}
	var facts *analysis.Facts
	if static {
		facts, _ = staticElide(t, rewritten)
	}
	rt := core.New(core.Config{Mode: core.Revocation, Sched: sched.Config{Quantum: 200}})
	if _, err := interp.Run(rt, rewritten, interp.Options{
		Rewritten: true,
		Facts:     facts,
		Out:       io.Discard,
	}); err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestStaticElisionRollbackEquivalence is the end-to-end soundness check
// for the analysis-driven elision: the same inversion scenario runs once
// with every store barriered and once with the statically proven stores
// rewritten to raw form (fresh-target writes covered by alloc-entry undo).
// Both runs must roll back, and the final heaps must be byte-identical.
func TestStaticElisionRollbackEquivalence(t *testing.T) {
	plain := runStatic(t, staticElisionProgram, false)
	elided := runStatic(t, staticElisionProgram, true)

	ps, es := plain.Stats(), elided.Stats()
	if ps.Rollbacks == 0 {
		t.Fatal("scenario produced no rollback")
	}
	if ps.Rollbacks != es.Rollbacks {
		t.Fatalf("rollbacks differ: plain=%d elided=%d", ps.Rollbacks, es.Rollbacks)
	}
	if !plain.Heap().Snapshot().Equal(elided.Heap().Snapshot()) {
		t.Fatalf("final heaps differ:\n%s", plain.Heap().Snapshot().Diff(elided.Heap().Snapshot()))
	}
	// The elided run proved at least the fresh putfield and the two
	// never-held putstatics, logged the in-section allocation instead of
	// its stores, and as a result logged strictly fewer undo entries.
	if es.RawStores < 3 {
		t.Errorf("RawStores = %d, want >= 3", es.RawStores)
	}
	if es.AllocsLogged == 0 {
		t.Error("in-section allocation was never alloc-logged")
	}
	if es.EntriesLogged >= ps.EntriesLogged {
		t.Errorf("elision did not shrink the undo log: plain=%d elided=%d",
			ps.EntriesLogged, es.EntriesLogged)
	}
	if ps.RawStores != 0 || ps.AllocsLogged != 0 {
		t.Errorf("plain run took static-only paths: raw=%d allocs=%d", ps.RawStores, ps.AllocsLogged)
	}
}

// TestPreMarkedSectionLogsNothing: a section the analysis proves
// non-revocable (it calls a native) is pre-marked at monitorenter, so even
// barriered stores inside it skip undo logging entirely — the run ends with
// ZERO undo entries, where the dynamic-only VM logs every store that
// precedes the native call.
func TestPreMarkedSectionLogsNothing(t *testing.T) {
	// The lock escapes through a static on purpose: a confined lock would
	// be whole-monitor elided, and this test is about the pre-mark on a
	// REAL monitorenter.
	const prog = `
static g = 0
static lockRef = 0
class Lock {
    unused
}
thread main priority 5 run main
method main locals 1 {
    newobj Lock
    store 0
    load 0
    putstatic lockRef
    sync 0 {
        const 1
        putstatic g
        const 42
        native print 1
        pop
    }
    return
}
`
	plain := runStatic(t, prog, false)
	if got := plain.Stats().EntriesLogged; got == 0 {
		t.Fatal("dynamic VM logged nothing before the native call — test premise broken")
	}
	marked := runStatic(t, prog, true)
	st := marked.Stats()
	if st.StaticPreMarks != 1 {
		t.Errorf("StaticPreMarks = %d, want 1", st.StaticPreMarks)
	}
	if st.EntriesLogged != 0 {
		t.Errorf("pre-marked section still logged %d undo entries, want 0", st.EntriesLogged)
	}
}
