package rewrite

import (
	"testing"

	"repro/internal/bytecode"
)

func TestLowerSynchronizedMethod(t *testing.T) {
	p := bytecode.MustAssemble(`
class Counter {
    n
}
method Counter.incr synchronized args 1 locals 1 {
    load 0
    load 0
    getfield Counter.n
    const 1
    add
    putfield Counter.n
    return
}
`)
	q, err := Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	wrapper, ok := q.Method("Counter.incr")
	if !ok {
		t.Fatal("wrapper missing")
	}
	if wrapper.Synchronized {
		t.Error("wrapper still flagged synchronized")
	}
	impl, ok := q.Method("Counter.incr$impl")
	if !ok {
		t.Fatal("impl missing")
	}
	if impl.Synchronized {
		t.Error("impl still flagged synchronized")
	}
	if len(wrapper.Regions) != 1 {
		t.Fatalf("wrapper regions = %d", len(wrapper.Regions))
	}
	// The wrapper must invoke the impl inside the monitor.
	sawInvoke := false
	for _, in := range wrapper.Code {
		if in.Op == bytecode.INVOKE && in.S == "Counter.incr$impl" {
			sawInvoke = true
		}
	}
	if !sawInvoke {
		t.Error("wrapper does not invoke the impl")
	}
	// Rollback scope artifacts must exist.
	counts := map[bytecode.Op]int{}
	for _, in := range wrapper.Code {
		counts[in.Op]++
	}
	if counts[bytecode.CHECKTARGET] != 1 || counts[bytecode.RETHROW] != 2 {
		t.Errorf("handler code wrong: %v", counts)
	}
	var rollback, release int
	for _, h := range wrapper.Handlers {
		switch h.Catch {
		case bytecode.RollbackClass:
			rollback++
		case bytecode.CatchAny:
			release++
		}
	}
	if rollback != 1 || release != 1 {
		t.Errorf("handlers: %d rollback, %d release", rollback, release)
	}
}

func TestLowerSynchronizedStaticRejected(t *testing.T) {
	p := &bytecode.Program{Methods: []*bytecode.Method{{
		Name: "s", Synchronized: true, Locals: 0,
		Code: []bytecode.Instr{{Op: bytecode.RETURN}},
	}}}
	if _, err := Rewrite(p); err == nil {
		t.Fatal("static synchronized accepted")
	}
}

func TestInjectSavesNonEmptyStack(t *testing.T) {
	// A sync block entered with two values on the operand stack: the
	// rewriter must inject SAVESTACK/RESTORESTACK around it.
	p := bytecode.MustAssemble(`
class L {
    f
}
method m locals 2 {
    newobj L
    store 0
    const 11
    const 22
    sync 0 {
        load 0
        const 1
        putfield L.f
    }
    add
    pop
    return
}
`)
	q, err := Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := q.Method("m")
	var save, restore *bytecode.Instr
	for i := range m.Code {
		switch m.Code[i].Op {
		case bytecode.SAVESTACK:
			save = &m.Code[i]
		case bytecode.RESTORESTACK:
			restore = &m.Code[i]
		}
	}
	if save == nil || restore == nil {
		t.Fatalf("missing save/restore:\n%s", bytecode.Disassemble(m))
	}
	if save.V != 2 || restore.V != 2 {
		t.Errorf("saved depth = %d/%d, want 2", save.V, restore.V)
	}
	if save.A != restore.A {
		t.Errorf("save/restore bases differ: %d vs %d", save.A, restore.A)
	}
	if m.Locals < 2+2 {
		t.Errorf("locals not extended: %d", m.Locals)
	}
}

func TestInjectRemapsJumps(t *testing.T) {
	p := bytecode.MustAssemble(`
class L {
    f
}
method m locals 2 {
    newobj L
    store 0
    const 3
  loop:
    dup
    ifz done
    const 1
    sub
    sync 0 {
        load 0
        const 9
        putfield L.f
    }
    goto loop
  done:
    pop
    return
}
`)
	q, err := Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite verifies internally; a second verification double-checks
	// that jump remapping kept the program consistent.
	if err := bytecode.Verify(q); err != nil {
		m, _ := q.Method("m")
		t.Fatalf("%v\n%s", err, bytecode.Disassemble(m))
	}
}

func TestNestedRegionsGetInnerFirstHandlers(t *testing.T) {
	p := bytecode.MustAssemble(`
class L {
    f
}
method m locals 2 {
    newobj L
    store 0
    newobj L
    store 1
    sync 0 {
        sync 1 {
            load 0
            const 1
            putfield L.f
        }
    }
    return
}
`)
	q, err := Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := q.Method("m")
	var rollbacks []bytecode.Handler
	for _, h := range m.Handlers {
		if h.Catch == bytecode.RollbackClass {
			rollbacks = append(rollbacks, h)
		}
	}
	if len(rollbacks) != 2 {
		t.Fatalf("rollback handlers = %d", len(rollbacks))
	}
	// Inner region's handler first (smaller range).
	if !(rollbacks[0].To-rollbacks[0].From < rollbacks[1].To-rollbacks[1].From) {
		t.Errorf("handler order not innermost-first: %+v", rollbacks)
	}
}

func TestRewriteIsIdempotentOnPlainMethods(t *testing.T) {
	p := bytecode.MustAssemble(`
method plain locals 1 {
    const 1
    store 0
    return
}
`)
	q, err := Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := q.Method("plain")
	if len(m.Handlers) != 0 || len(m.Regions) != 0 {
		t.Error("plain method gained handlers/regions")
	}
	if len(m.Code) != 3 {
		t.Errorf("plain method code changed: %d instrs", len(m.Code))
	}
}

func TestRewriteDoesNotMutateInput(t *testing.T) {
	p := bytecode.MustAssemble(`
class C {
    f
}
method C.m synchronized args 1 locals 1 {
    return
}
`)
	before := len(p.Methods)
	codeLen := len(p.Methods[0].Code)
	if _, err := Rewrite(p); err != nil {
		t.Fatal(err)
	}
	if len(p.Methods) != before || len(p.Methods[0].Code) != codeLen || !p.Methods[0].Synchronized {
		t.Error("input program mutated")
	}
}
