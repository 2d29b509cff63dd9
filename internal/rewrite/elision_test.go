package rewrite

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/sched"
)

// staticElide analyzes p and elides its certified stores, returning the
// facts execution must carry and the number of stores rewritten.
func staticElide(t *testing.T, p *bytecode.Program) (*analysis.Facts, int) {
	t.Helper()
	facts, err := analysis.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	return facts, ApplyStaticElision(p, facts)
}

// rawStores counts the barrier-free stores in the named method.
func rawStores(t *testing.T, p *bytecode.Program, method string) int {
	t.Helper()
	m, ok := p.Method(method)
	if !ok {
		t.Fatalf("no method %s", method)
	}
	n := 0
	for _, in := range m.Code {
		switch in.Op {
		case bytecode.PUTFIELDRAW, bytecode.PUTSTATICRAW, bytecode.ASTORERAW:
			n++
		}
	}
	return n
}

const elisionProgram = `
static g = 0
static lockRef = 0
class L {
    f
}
method inSection locals 1 {
    newobj L
    store 0
    sync 0 {
        const 1
        putstatic g
        load 0
        const 2
        putfield L.f
    }
    return
}
method outside locals 1 {
    newobj L
    store 0
    const 3
    putstatic g
    load 0
    const 4
    putfield L.f
    return
}
`

func TestApplyStaticElisionRewritesOnlyElidable(t *testing.T) {
	p := bytecode.MustAssemble(elisionProgram)
	_, n := staticElide(t, p)
	if n != 2 {
		t.Fatalf("rewrote %d stores, want 2 (putstatic+putfield in outside)", n)
	}
	if raw := rawStores(t, p, "outside"); raw != 2 {
		t.Errorf("outside has %d raw stores, want 2", raw)
	}
	// The section's receiver was allocated before the section, so neither
	// of its stores has a fresh-target proof either.
	if raw := rawStores(t, p, "inSection"); raw != 0 {
		t.Fatalf("%d stores inside a synchronized section were elided — unsound", raw)
	}
	if err := bytecode.Verify(p); err != nil {
		t.Fatal(err)
	}
}

// TestAnalyzeBarriers: the barrier analysis behind ApplyStaticElision keeps
// the barrier on a store in a method called from inside a region, directly
// or transitively, and elides it in a method that never runs held.
func TestAnalyzeBarriers(t *testing.T) {
	p := bytecode.MustAssemble(`
class L {
    f
}
method lockUser locals 1 {
    newobj L
    store 0
    sync 0 {
        invoke helper
    }
    return
}
method helper locals 0 {
    invoke leaf
    return
}
method leaf locals 0 {
    getstatic g
    const 1
    add
    putstatic g
    return
}
method standalone locals 0 {
    getstatic g
    putstatic g
    return
}
static g = 0
`)
	if _, n := staticElide(t, p); n != 1 {
		t.Errorf("rewrote %d stores, want 1 (standalone's putstatic)", n)
	}
	for name, want := range map[string]int{
		"leaf":       0, // transitively reachable from inside the region
		"standalone": 1, // never runs in a synchronized context
	} {
		if got := rawStores(t, p, name); got != want {
			t.Errorf("%s: %d raw stores, want %d", name, got, want)
		}
	}
}

// TestAnalyzeBarriersSynchronizedMethodSeed: a synchronized method seeds the
// held set like a region does, so its callee's store keeps its barrier.
func TestAnalyzeBarriersSynchronizedMethodSeed(t *testing.T) {
	p := bytecode.MustAssemble(`
class C {
    f
}
method C.m synchronized args 1 locals 1 {
    invoke callee
    return
}
method callee locals 0 {
    const 2
    putstatic g
    return
}
static g = 0
`)
	staticElide(t, p)
	if got := rawStores(t, p, "callee"); got != 0 {
		t.Errorf("callee: %d raw stores, want 0 — synchronized method not treated as a barrier seed", got)
	}
}

// TestElisionPreservesSemantics runs the same program with and without
// elision on the modified VM; results and logging stats must show elided
// stores never hit the log while semantics are identical.
func TestElisionPreservesSemantics(t *testing.T) {
	src := `
static g = 0
class L {
    f
}
thread t priority 5 run main
method main locals 2 {
    newobj L
    store 0
    const 10
    store 1
  loop:
    load 1
    ifz done
    invoke outside
    load 1
    const 1
    sub
    store 1
    goto loop
  done:
    return
}
method outside locals 0 {
    getstatic g
    const 1
    add
    putstatic g
    return
}
`
	run := func(elide bool) (int64, int64) {
		rt := runStatic(t, src, elide)
		g, _ := rt.Heap().StaticIndex("g")
		return int64(rt.Heap().GetStatic(g)), rt.Stats().BarrierFastPaths
	}
	gPlain, fastPlain := run(false)
	gElided, fastElided := run(true)
	if gPlain != 10 || gElided != 10 {
		t.Fatalf("results differ or wrong: %d vs %d", gPlain, gElided)
	}
	// Un-elided stores outside sections take the barrier fast path (the
	// §1.1 run-time check); elided ones skip even that.
	if fastPlain == 0 {
		t.Fatal("expected fast-path barrier hits without elision")
	}
	if fastElided != 0 {
		t.Fatalf("elided run still hit the barrier %d times", fastElided)
	}
}

// TestRawStoreInsideSectionIsUnsound demonstrates WHY the analysis must be
// conservative: a raw store inside a synchronized section survives a
// rollback, breaking the "never executed" illusion. This documents the
// hazard the elision analysis exists to prevent.
func TestRawStoreInsideSectionIsUnsound(t *testing.T) {
	prog := bytecode.MustAssemble(`
static lockRef = 0
static viaBarrier = 0
static viaRaw = 0
class Lock {
    unused
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
method lowMain locals 1 {
  spin:
    getstatic lockRef
    ifz spin
    getstatic lockRef
    store 0
    sync 0 {
        const 1
        putstatic viaBarrier
        const 1
        putstatic.raw viaRaw
        const 3000
        work
    }
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
`)
	rewritten, err := Rewrite(prog)
	if err != nil {
		t.Fatal(err)
	}
	rt := core.New(core.Config{Mode: core.Revocation, Sched: sched.Config{Quantum: 200}})
	env, err := interp.Run(rt, rewritten, interp.Options{Rewritten: true})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Stats().Rollbacks == 0 {
		t.Fatal("no rollback")
	}
	// The barriered store was undone and re-done exactly once (net 1);
	// the raw store leaked through the rollback. (Final state: both 1,
	// but during high's section the raw one was visible — we assert the
	// mechanism-level difference via the undo log.)
	if rt.Stats().EntriesUndone == 0 {
		t.Fatal("barriered store not in the undo log")
	}
	idxRaw, _ := rewritten.StaticIndex("viaRaw")
	if env.RT.Heap().GetStatic(idxRaw) != 1 {
		t.Fatal("raw store lost entirely?")
	}
}
