package rvm_test

import (
	"testing"

	"repro/revoke"
	"repro/rvm"
)

const program = `
static lockRef = 0
static data = 0
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
        putstatic data
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
        getstatic data
        const 10
        add
        putstatic data
    }
    return
}
`

// TestPublicPipeline drives assemble → verify → rewrite → run through the
// public API only.
func TestPublicPipeline(t *testing.T) {
	prog, err := rvm.Assemble(program)
	if err != nil {
		t.Fatal(err)
	}
	if err := rvm.Verify(prog); err != nil {
		t.Fatal(err)
	}
	prog, err = rvm.Rewrite(prog)
	if err != nil {
		t.Fatal(err)
	}
	rt := revoke.NewRevocationRuntime(revoke.SchedConfig{Quantum: 200})
	env, err := rvm.Run(rt, prog, rvm.Options{Rewritten: true})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Stats().Rollbacks == 0 {
		t.Fatal("no rollback through the public pipeline")
	}
	idx, ok := prog.StaticIndex("data")
	if !ok {
		t.Fatal("static missing")
	}
	// high saw rolled-back 0, wrote 10; low re-executed and wrote 1.
	if got := env.RT.Heap().GetStatic(idx); got != 1 {
		t.Fatalf("data = %d, want 1", got)
	}
}

// TestPublicAnalysis exercises the elision surface.
func TestPublicAnalysis(t *testing.T) {
	prog := rvm.MustAssemble(`
static g = 0
method free locals 0 {
    const 1
    putstatic g
    return
}
`)
	facts, err := rvm.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	if n := rvm.ApplyStaticElision(prog, facts); n != 1 {
		t.Fatalf("elided %d stores, want 1", n)
	}
	if err := rvm.Verify(prog); err != nil {
		t.Fatal(err)
	}
}

// TestPublicDisassemble covers the rendering surface.
func TestPublicDisassemble(t *testing.T) {
	prog := rvm.MustAssemble(program)
	m, _ := prog.Method("lowMain")
	if rvm.Disassemble(m) == "" {
		t.Fatal("empty disassembly")
	}
}
