// Package rewrite implements the paper's bytecode transformations (§3.1.1)
// over internal/bytecode programs:
//
//  1. Synchronized methods are lowered to non-synchronized wrappers whose
//     body is a synchronized block invoking the renamed original ("for
//     each synchronized method we create a non-synchronized wrapper with a
//     signature identical to the original method").
//
//  2. Every synchronized region becomes a rollback scope: the operand
//     stack is saved to fresh locals just before the region's
//     monitorenter (SAVESTACK), and a handler catching the internal
//     rollback exception is appended whose code checks whether the
//     rollback targets this very section (CHECKTARGET), restores the
//     operand stack (RESTORESTACK) and transfers control back to the
//     monitorenter — or re-throws to the next outer scope (RETHROW).
//     A second, ordinary handler releases the monitor when a *user*
//     exception leaves the region, preserving standard Java semantics.
//
//  3. Barrier elision analysis (§1.1: "compiler analyses and optimization
//     may elide these run-time checks"): a reachability pass over the
//     call graph identifies methods that can never execute inside a
//     synchronized section, whose stores therefore never need the
//     write-barrier slow path.
package rewrite

import (
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/bytecode"
)

// Rewrite applies the full pipeline to a copy of p and verifies the
// result. The input program is not modified.
func Rewrite(p *bytecode.Program) (*bytecode.Program, error) {
	q := p.Clone()
	if err := LowerSynchronizedMethods(q); err != nil {
		return nil, err
	}
	if err := InjectRollbackScopes(q); err != nil {
		return nil, err
	}
	if err := bytecode.Verify(q); err != nil {
		return nil, fmt.Errorf("rewrite: output fails verification: %w", err)
	}
	return q, nil
}

// LowerSynchronizedMethods replaces every synchronized method with a
// wrapper holding a synchronized block around a call to the renamed
// original, which is no longer synchronized (§3.1.1). Instance methods
// synchronize on the receiver (local 0); a synchronized method with no
// arguments has no receiver and is rejected.
func LowerSynchronizedMethods(p *bytecode.Program) error {
	var added []*bytecode.Method
	for _, m := range p.Methods {
		if !m.Synchronized {
			continue
		}
		if m.Args < 1 {
			return fmt.Errorf("rewrite: synchronized method %s has no receiver (static synchronized is unsupported)", m.Name)
		}
		implName := m.Name + "$impl"
		if _, exists := p.Method(implName); exists {
			return fmt.Errorf("rewrite: %s already exists", implName)
		}
		// The implementation keeps the body under a new name.
		impl := *m
		impl.Name = implName
		impl.Synchronized = false
		impl.Code = append([]bytecode.Instr(nil), m.Code...)
		impl.Handlers = append([]bytecode.Handler(nil), m.Handlers...)
		impl.Regions = append([]bytecode.SyncRegion(nil), m.Regions...)
		added = append(added, &impl)

		// The wrapper replaces the original in place (same name, same
		// signature), so every call site keeps working unchanged.
		var code []bytecode.Instr
		code = append(code, bytecode.Instr{Op: bytecode.LOAD, A: 0}) // receiver
		enterPC := len(code)
		code = append(code, bytecode.Instr{Op: bytecode.MONITORENTER})
		for i := 0; i < m.Args; i++ {
			code = append(code, bytecode.Instr{Op: bytecode.LOAD, A: i})
		}
		code = append(code, bytecode.Instr{Op: bytecode.INVOKE, S: implName})
		code = append(code, bytecode.Instr{Op: bytecode.LOAD, A: 0})
		exitPC := len(code)
		code = append(code, bytecode.Instr{Op: bytecode.MONITOREXIT})
		if m.Returns {
			code = append(code, bytecode.Instr{Op: bytecode.IRETURN})
		} else {
			code = append(code, bytecode.Instr{Op: bytecode.RETURN})
		}
		m.Synchronized = false
		m.Code = code
		m.Handlers = nil
		m.Locals = m.Args
		m.Regions = []bytecode.SyncRegion{{EnterPC: enterPC - 1, ExitPC: exitPC, ObjLocal: 0}}
	}
	p.Methods = append(p.Methods, added...)
	return nil
}

// InjectRollbackScopes turns every synchronized region into a rollback
// scope (§3.1.1). Regions must have been recorded by the assembler's
// structured `sync` blocks or by LowerSynchronizedMethods.
func InjectRollbackScopes(p *bytecode.Program) error {
	for _, m := range p.Methods {
		if len(m.Regions) == 0 {
			continue
		}
		if err := injectScopes(p, m); err != nil {
			return err
		}
	}
	return nil
}

// injectScopes rewrites one method.
func injectScopes(p *bytecode.Program, m *bytecode.Method) error {
	depths, err := bytecode.VerifyMethod(p, m)
	if err != nil {
		return fmt.Errorf("rewrite: %s: %w", m.Name, err)
	}

	// Plan SAVESTACK insertions and local allocation, one block per
	// region with a non-empty stack at its entry.
	type plan struct {
		region int
		base   int
		depth  int
	}
	plans := make([]plan, len(m.Regions))
	inserts := map[int][]bytecode.Instr{} // old pc -> instrs inserted before it
	for i, r := range m.Regions {
		d := depths[r.EnterPC]
		if d < 0 {
			return fmt.Errorf("rewrite: %s: region %d entry unreachable", m.Name, i)
		}
		plans[i] = plan{region: i, base: m.Locals, depth: d}
		if d > 0 {
			m.Locals += d
			inserts[r.EnterPC] = append(inserts[r.EnterPC],
				bytecode.Instr{Op: bytecode.SAVESTACK, A: plans[i].base, V: int64(d)})
		}
	}

	// Build the remapped code: remap[old] = new pc of the first inserted
	// instruction at old (or of the old instruction itself when nothing
	// was inserted there).
	remap := make([]int, len(m.Code)+1)
	var code []bytecode.Instr
	for old := 0; old < len(m.Code); old++ {
		remap[old] = len(code)
		code = append(code, inserts[old]...)
		code = append(code, m.Code[old])
	}
	remap[len(m.Code)] = len(code)

	// Fix jump targets, handler ranges and region extents.
	for i := range code {
		switch code[i].Op {
		case bytecode.GOTO, bytecode.IFNZ, bytecode.IFZ:
			code[i].A = remap[code[i].A]
		}
	}
	for i := range m.Handlers {
		m.Handlers[i].From = remap[m.Handlers[i].From]
		m.Handlers[i].To = remap[m.Handlers[i].To]
		m.Handlers[i].Target = remap[m.Handlers[i].Target]
	}
	for i := range m.Regions {
		// EnterPC must keep pointing at the LOAD that pushes the monitor
		// object (MONITORENTER follows it): skip past any instructions
		// inserted before it (the region's own SAVESTACK).
		oldEnter := m.Regions[i].EnterPC
		m.Regions[i].EnterPC = remap[oldEnter] + len(inserts[oldEnter])
		oldExit := m.Regions[i].ExitPC
		m.Regions[i].ExitPC = remap[oldExit] + len(inserts[oldExit])
	}

	// Append the handler code per region, innermost (table-order) first:
	//
	//	H: checktarget i          ; does this rollback restart region i?
	//	   ifz R
	//	   restorestack base d    ; rebuild the operand stack (§3.1.1)
	//	   goto enter             ; re-execute from the monitorenter
	//	R: rethrow                ; propagate to the next outer scope
	//	U: load obj               ; user exception: release the monitor,
	//	   monitorexit            ; updates stay (no rollback), rethrow
	//	   rethrow
	for i, r := range m.Regions {
		pl := plans[i]
		monEnter := r.EnterPC + 1 // EnterPC is the LOAD pushing the object
		h := len(code)
		code = append(code, bytecode.Instr{Op: bytecode.CHECKTARGET, A: i})
		rethrowPC := 0 // patched below
		ifz := len(code)
		code = append(code, bytecode.Instr{Op: bytecode.IFZ, A: 0})
		if pl.depth > 0 {
			code = append(code, bytecode.Instr{Op: bytecode.RESTORESTACK, A: pl.base, V: int64(pl.depth)})
		}
		code = append(code, bytecode.Instr{Op: bytecode.GOTO, A: r.EnterPC})
		rethrowPC = len(code)
		code[ifz].A = rethrowPC
		code = append(code, bytecode.Instr{Op: bytecode.RETHROW})

		u := len(code)
		code = append(code, bytecode.Instr{Op: bytecode.LOAD, A: r.ObjLocal})
		code = append(code, bytecode.Instr{Op: bytecode.MONITOREXIT})
		code = append(code, bytecode.Instr{Op: bytecode.RETHROW})

		m.Handlers = append(m.Handlers,
			bytecode.Handler{From: monEnter, To: r.ExitPC + 1, Target: h, Catch: bytecode.RollbackClass},
			bytecode.Handler{From: monEnter + 1, To: r.ExitPC, Target: u, Catch: bytecode.CatchAny},
		)
	}
	m.Code = code
	// Handler-table order must reflect nesting: an entry whose range is
	// nested inside another's must come first, so a user exception thrown
	// inside a synchronized block hits the block's monitor-release
	// handler before any enclosing user handler (and vice versa for user
	// handlers nested inside the block). A stable sort by range size
	// realizes inner-before-outer for properly nested ranges.
	sort.SliceStable(m.Handlers, func(i, j int) bool {
		a, b := m.Handlers[i], m.Handlers[j]
		return a.To-a.From < b.To-b.From
	})
	return nil
}

// ---------------------------------------------------------------------------
// Barrier elision (§1.1).

// ApplyStaticElision rewrites (in place) every store instruction the
// per-instruction analysis proved barrier-free to its raw form — both
// never-runs-held stores and stores whose target object is provably
// allocated inside the current section — realizing the optimization §1.1
// sketches: "Compiler analyses and optimization may elide these run-time
// checks when the update can be shown statically never to occur within a
// synchronized section." Only *write* barriers are elided: read barriers
// feed the §2.2 dependency detection, and a read outside any monitor can
// still observe a speculative value (the paper's Figure 3). facts must come from
// analysis.Analyze over this exact program (same method names and pcs; run
// it after Rewrite, on the program that will execute). The fresh-target
// proofs rely on the runtime logging allocations, so a program elided this
// way must run with interp.Options.Facts set to the same facts. It returns
// the number of stores rewritten.
//
// Each elision is a discharged proof obligation: a store is rewritten only
// when the facts carry a matching elide-barrier certificate, not on the
// strength of the elidable bit alone. A fact set with undischarged
// obligations keeps its barriers here and is rejected outright by
// interp.NewEnv (analysis.Facts.VerifyCertificates).
func ApplyStaticElision(p *bytecode.Program, facts *analysis.Facts) int {
	n := 0
	certified := func(m string, pc int) bool {
		return facts.ElidableStore(m, pc) &&
			facts.RequireCert(m, pc, analysis.CertElideBarrier) == nil
	}
	for _, m := range p.Methods {
		for i := range m.Code {
			switch m.Code[i].Op {
			case bytecode.PUTFIELD:
				if certified(m.Name, i) {
					m.Code[i].Op = bytecode.PUTFIELDRAW
					n++
				}
			case bytecode.PUTSTATIC:
				if certified(m.Name, i) {
					m.Code[i].Op = bytecode.PUTSTATICRAW
					n++
				}
			case bytecode.ASTORE:
				if certified(m.Name, i) {
					m.Code[i].Op = bytecode.ASTORERAW
					n++
				}
			}
		}
	}
	return n
}
