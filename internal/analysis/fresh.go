package analysis

import (
	"repro/internal/bytecode"
)

// Flow-sensitive barrier elision.
//
// A store instruction needs no write-barrier slow path when either
//
//  1. it can never execute while a monitor is held — not inside any section
//     of its own method, the method is not synchronized, and the method is
//     never (transitively) invoked from inside a section; with no monitor
//     held the barrier's logging branch is statically dead; or
//
//  2. its target object is provably fresh: allocated after the current
//     section's MONITORENTER with no intervening operation that could leak
//     it or start a new section. The runtime logs one allocation undo entry
//     for such objects (restoring every slot wholesale on rollback), which
//     subsumes per-field undo entries for all subsequent stores to them.
//
// Freshness is a forward dataflow over (stack, locals) boolean vectors,
// AND-merged at joins. NEWOBJ/NEWARR results are fresh; freshness dies at
// any monitor boundary, wait, native call, or call to a method that is not
// provably monitor-free, because past that point a rollback of the current
// section may not replay the allocation.

// freshState tracks which stack slots and locals hold provably-fresh
// references at one pc. Stack index 0 is the bottom (the interpreter's
// SAVESTACK/RESTORESTACK order).
type freshState struct {
	stack  []bool
	locals []bool
}

func (s *freshState) clone() *freshState {
	c := &freshState{
		stack:  append([]bool(nil), s.stack...),
		locals: append([]bool(nil), s.locals...),
	}
	return c
}

// merge ANDs other into s; reports whether s changed. A stack-shape mismatch
// (impossible in verified code) reports ok=false to abort the analysis.
func (s *freshState) merge(other *freshState) (changed, ok bool) {
	if len(s.stack) != len(other.stack) || len(s.locals) != len(other.locals) {
		return false, false
	}
	for i := range s.stack {
		if s.stack[i] && !other.stack[i] {
			s.stack[i] = false
			changed = true
		}
	}
	for i := range s.locals {
		if s.locals[i] && !other.locals[i] {
			s.locals[i] = false
			changed = true
		}
	}
	return changed, true
}

func (s *freshState) killAll() {
	for i := range s.stack {
		s.stack[i] = false
	}
	for i := range s.locals {
		s.locals[i] = false
	}
}

// freshness computes the in-state for every pc of mi's method, or nil when
// the method contains something the transfer function cannot model (every
// store then simply keeps its barrier).
//
// escapeKills selects the stricter thread-locality variant used by the
// race pass: all freshness dies the moment a fresh value escapes (is
// stored into any object/array/static or passed to any call). The base
// dataflow does not track aliases, so "fresh" alone only proves the object
// was allocated in-section — good enough for rollback elision (the
// allocation undo entry restores it) but not for thread-locality, where a
// published alias would let another thread reach the object.
func (f *Facts) freshness(mi *methodInfo, escapeKills bool) []*freshState {
	m := mi.m
	n := len(m.Code)
	states := make([]*freshState, n)
	var queue []int
	post := func(pc int, st *freshState) bool {
		if states[pc] == nil {
			states[pc] = st.clone()
			queue = append(queue, pc)
			return true
		}
		changed, ok := states[pc].merge(st)
		if !ok {
			return false
		}
		if changed {
			queue = append(queue, pc)
		}
		return true
	}

	entry := &freshState{locals: make([]bool, m.Locals)}
	if !post(0, entry) {
		return nil
	}
	// Handler entries: nothing is fresh (the throwing path is unknown), with
	// the verifier's entry depth for the stack shape.
	for _, h := range m.Handlers {
		if mi.stack[h.Target] < 0 {
			continue
		}
		hs := &freshState{
			stack:  make([]bool, mi.stack[h.Target]),
			locals: make([]bool, m.Locals),
		}
		if !post(h.Target, hs) {
			return nil
		}
	}

	for len(queue) > 0 {
		pc := queue[0]
		queue = queue[1:]
		st := states[pc].clone()
		in := m.Code[pc]
		if !f.transfer(mi, pc, in, st, escapeKills) {
			return nil
		}
		for _, s := range succs(m, pc) {
			if !post(s, st) {
				return nil
			}
		}
	}
	return states
}

// transfer applies one instruction to st in place; reports ok=false when the
// instruction cannot be modelled (stack underflow against the tracked shape).
func (f *Facts) transfer(mi *methodInfo, pc int, in bytecode.Instr, st *freshState, escapeKills bool) bool {
	m := mi.m
	top := func(k int) int { return len(st.stack) - k } // index of k-th from top
	pop := func(k int) bool {
		if len(st.stack) < k {
			return false
		}
		st.stack = st.stack[:len(st.stack)-k]
		return true
	}
	push := func(vals ...bool) { st.stack = append(st.stack, vals...) }

	doKill := false
	if escapeKills {
		escaped := func(k int) bool { return len(st.stack) >= k && st.stack[top(k)] }
		switch in.Op {
		case bytecode.PUTFIELD, bytecode.PUTFIELDRAW, bytecode.PUTSTATIC,
			bytecode.PUTSTATICRAW, bytecode.ASTORE, bytecode.ASTORERAW:
			doKill = escaped(1) // the stored value is on top
		case bytecode.INVOKE:
			if callee := f.methods[in.S]; callee != nil {
				for k := 1; k <= callee.m.Args; k++ {
					if escaped(k) {
						doKill = true
					}
				}
			}
		}
	}
	defer func() {
		if doKill {
			st.killAll()
		}
	}()

	switch in.Op {
	case bytecode.LOAD:
		push(st.locals[in.A])
	case bytecode.STORE:
		if len(st.stack) < 1 {
			return false
		}
		st.locals[in.A] = st.stack[top(1)]
		pop(1)
	case bytecode.DUP:
		if len(st.stack) < 1 {
			return false
		}
		push(st.stack[top(1)])
	case bytecode.SWAP:
		if len(st.stack) < 2 {
			return false
		}
		st.stack[top(1)], st.stack[top(2)] = st.stack[top(2)], st.stack[top(1)]
	case bytecode.NEWOBJ:
		push(true)
	case bytecode.NEWARR:
		if !pop(1) {
			return false
		}
		push(true)
	case bytecode.MONITORENTER, bytecode.MONITOREXIT, bytecode.WAIT, bytecode.NATIVE:
		// A monitor boundary starts/ends a section; a wait releases and
		// re-acquires; a native is opaque. All invalidate freshness.
		pops := 1
		if in.Op == bytecode.NATIVE {
			pops = in.A
		}
		if !pop(pops) {
			return false
		}
		st.killAll()
		if in.Op == bytecode.NATIVE {
			push(false)
		}
	case bytecode.INVOKE:
		callee := f.methods[in.S]
		if callee == nil {
			return false
		}
		if !pop(callee.m.Args) {
			return false
		}
		if !callee.monitorFree {
			st.killAll()
		}
		if callee.m.Returns {
			push(false)
		}
	case bytecode.SPAWN:
		callee := f.methods[in.S]
		if callee == nil {
			return false
		}
		if !pop(callee.m.Args) {
			return false
		}
		// The spawned thread runs concurrently from here on: its arguments
		// are published, and any object it can reach may be mutated outside
		// the current section, so a rollback replaying the allocation would
		// wipe another thread's writes. All freshness dies.
		st.killAll()
	case bytecode.SAVESTACK:
		d := int(in.V)
		if len(st.stack) != d {
			return false
		}
		for i := 0; i < d; i++ {
			st.locals[in.A+i] = st.stack[i]
		}
	case bytecode.RESTORESTACK:
		d := int(in.V)
		for i := 0; i < d; i++ {
			push(st.locals[in.A+i])
		}
	default:
		pops, pushes, _, _, err := bytecode.StackEffect(f.prog, m, pc, in)
		if err != nil || !pop(pops) {
			return false
		}
		for i := 0; i < pushes; i++ {
			push(false)
		}
	}
	return true
}

// computeElision classifies every reachable store instruction. A store to a
// volatile target is never elidable: its barrier is the volatile write's
// release, which a raw store would drop.
func (f *Facts) computeElision() {
	vol := f.volatileFieldIndices()
	for _, m := range f.prog.Methods {
		mi := f.methods[m.Name]
		var fresh []*freshState
		freshDone := false
		for pc, in := range m.Code {
			var receiverDepth int // stack slots from top to the target ref
			switch in.Op {
			case bytecode.PUTFIELD:
				receiverDepth = 2
			case bytecode.ASTORE:
				receiverDepth = 3
			case bytecode.PUTSTATIC:
				receiverDepth = 0 // statics are never fresh
			default:
				continue
			}
			if mi.depth[pc] < 0 {
				continue // unreachable
			}
			f.TotalStores++
			if f.volatileStore(in, vol) {
				continue
			}
			pos := Pos{m.Name, pc}
			if !mi.held[pc] && !mi.mayRunHeld && !m.Synchronized {
				f.neverHeld[pos] = true
				f.elidable[pos] = true
				f.ElidableStores++
				f.NeverHeldStores++
				continue
			}
			if receiverDepth == 0 {
				continue
			}
			if !freshDone {
				fresh = f.freshness(mi, false)
				freshDone = true
			}
			if fresh == nil {
				continue
			}
			st := fresh[pc]
			if st != nil && len(st.stack) >= receiverDepth && st.stack[len(st.stack)-receiverDepth] {
				f.elidable[pos] = true
				f.ElidableStores++
				f.FreshStores++
			}
		}
	}
}

// volatileStore reports whether the store in writes a volatile static or a
// field index that some class declares volatile.
func (f *Facts) volatileStore(in bytecode.Instr, vol map[int]string) bool {
	switch in.Op {
	case bytecode.PUTSTATIC:
		return f.volatileStatic(in.A)
	case bytecode.PUTFIELD:
		_, ok := vol[in.A]
		return ok
	}
	return false
}
