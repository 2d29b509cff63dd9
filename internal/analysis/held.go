package analysis

import (
	"fmt"
	"sort"

	"repro/internal/bytecode"
)

// Section discovery and the revocability classifier.
//
// For every MONITORENTER site the analysis computes the set of instructions
// that may execute while that acquisition is still held, by propagating a
// relative monitor depth from the enter site through the CFG: the depth
// starts at 1 after the enter, rises at nested MONITORENTERs, falls at
// MONITOREXITs, and propagation stops where it reaches 0 (the matching
// exit). Exception-handler targets use a union rule — if ANY covered pc may
// execute while held, the handler target may too — which is deliberately
// more conservative than the verifier's entry-depth rule: a hand-written
// handler spanning a synchronized block genuinely enters while the monitor
// is held, and under-approximating here would unsoundly elide barriers
// inside it.
//
// A section is statically non-revocable when one of the paper's dynamic
// triggers (§2.2) is reachable inside it: a NATIVE call, a volatile read,
// or a WAIT (any wait — even a wait on the section's own monitor leaves the
// section non-revocable at the resume point, so pre-marking at enter only
// denies revocations the runtime would deny moments later). Triggers are
// searched in the section's own instructions and in the whole body of every
// method transitively invocable while the monitor is held.

// succs returns pc's control successors inside the method (handler edges
// excluded; the callers apply their own handler rules).
func succs(m *bytecode.Method, pc int) []int {
	in := m.Code[pc]
	switch in.Op {
	case bytecode.GOTO:
		return []int{in.A}
	case bytecode.IFNZ, bytecode.IFZ:
		return []int{in.A, pc + 1}
	case bytecode.RETURN, bytecode.IRETURN, bytecode.THROW, bytecode.RETHROW:
		return nil
	default:
		if pc+1 < len(m.Code) {
			return []int{pc + 1}
		}
		return nil
	}
}

// heldFrom computes the pcs reachable from the MONITORENTER at ep while
// that acquisition is held. rels[pc] records the relative depths seen
// (depth of this acquisition = 1); a pc is in-section when it has any
// recorded depth ≥ 1.
func heldFrom(m *bytecode.Method, ep int) map[int]bool {
	// visited[pc][rel] marks processed (pc, relative-depth) states. On
	// verified programs rel is bounded by the static monitor depth, but a
	// hand-written handler that loops back through its own covered enter
	// site can grow it without bound; past relCap the analysis gives up
	// and reports every instruction held (conservative: more held pcs only
	// suppress elisions).
	relCap := len(m.Code) + 1
	blowup := false
	visited := make(map[int]map[int]bool)
	type work struct{ pc, rel int }
	var queue []work
	post := func(pc, rel int) {
		if rel < 1 {
			return // the acquisition was released on this path
		}
		if rel > relCap {
			blowup = true
			return
		}
		if visited[pc] == nil {
			visited[pc] = make(map[int]bool, 2)
		}
		if visited[pc][rel] {
			return
		}
		visited[pc][rel] = true
		queue = append(queue, work{pc, rel})
	}
	for _, s := range succs(m, ep) {
		post(s, 1)
	}
	for {
		for len(queue) > 0 {
			w := queue[0]
			queue = queue[1:]
			rel := w.rel
			switch m.Code[w.pc].Op {
			case bytecode.MONITORENTER:
				rel++
			case bytecode.MONITOREXIT:
				rel--
			}
			for _, s := range succs(m, w.pc) {
				post(s, rel)
			}
		}
		// Union handler rule: an exception at any held pc in the range may
		// transfer to the target with the monitor still held. Seed with the
		// maximum depth observed in the range (over-approximating the depth
		// only extends the held region — conservative).
		progressed := false
		for _, h := range m.Handlers {
			if h.Catch == bytecode.RollbackClass {
				// A rollback unwind releases the monitor (and undoes its
				// effects) before control reaches the handler, so the
				// checktarget trampoline runs un-held; seeding it as held
				// would also follow its re-execution back-edge through the
				// enter site again and grow rel without bound.
				continue
			}
			maxRel := 0
			for pc := h.From; pc < h.To && pc < len(m.Code); pc++ {
				for rel := range visited[pc] {
					if rel > maxRel {
						maxRel = rel
					}
				}
			}
			if maxRel >= 1 && !visited[h.Target][maxRel] {
				post(h.Target, maxRel)
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	if blowup {
		all := make(map[int]bool, len(m.Code))
		for pc := range m.Code {
			all[pc] = true
		}
		return all
	}
	held := make(map[int]bool, len(visited))
	for pc := range visited {
		held[pc] = true
	}
	return held
}

// discoverSections builds one Section per MONITORENTER site plus one
// synthetic Section per synchronized method (whose whole body runs held),
// filling methodInfo.held along the way.
func (f *Facts) discoverSections() {
	vol := f.volatileFieldIndices()
	for _, m := range f.prog.Methods {
		mi := f.methods[m.Name]
		mi.held = make([]bool, len(m.Code))
		if m.Synchronized {
			s := &Section{
				Enter:      Pos{m.Name, 0},
				Lock:       "recv:" + baseName(m.Name),
				SyncMethod: true,
			}
			for pc := range m.Code {
				if mi.depth[pc] >= 0 {
					mi.held[pc] = true
					s.PCs = append(s.PCs, pc)
				}
			}
			s.Callees = f.calleeClosure(mi.callees)
			f.classify(s, m, heldAll(mi), vol)
			f.Sections = append(f.Sections, s)
			f.sectionAt[s.Enter] = s
		}
		for pc, in := range m.Code {
			if in.Op != bytecode.MONITORENTER || mi.depth[pc] < 0 {
				continue
			}
			held := heldFrom(m, pc)
			s := &Section{
				Enter: Pos{m.Name, pc},
				Lock:  f.lockID(mi, pc),
			}
			var invoked []string
			for hp := range held {
				mi.held[hp] = true
				s.PCs = append(s.PCs, hp)
				if m.Code[hp].Op == bytecode.INVOKE {
					invoked = append(invoked, m.Code[hp].S)
				}
			}
			sort.Ints(s.PCs)
			s.Callees = f.calleeClosure(invoked)
			f.classify(s, m, held, vol)
			f.Sections = append(f.Sections, s)
			f.sectionAt[s.Enter] = s
		}
	}
}

// heldAll is the trivially-true held set for synchronized-method bodies.
func heldAll(mi *methodInfo) map[int]bool {
	held := make(map[int]bool, len(mi.m.Code))
	for pc := range mi.m.Code {
		if mi.depth[pc] >= 0 {
			held[pc] = true
		}
	}
	return held
}

// classify scans the section's own held pcs and its callee closure for the
// §2.2 triggers and sets NonRevocable/Reasons.
func (f *Facts) classify(s *Section, m *bytecode.Method, held map[int]bool, vol map[int]string) {
	pcs := make([]int, 0, len(held))
	for pc := range held {
		pcs = append(pcs, pc)
	}
	sort.Ints(pcs)
	for _, pc := range pcs {
		f.scanTrigger(s, m, pc, vol)
	}
	for _, callee := range s.Callees {
		cm, ok := f.prog.Method(callee)
		if !ok {
			continue
		}
		for pc := range cm.Code {
			f.scanTrigger(s, cm, pc, vol)
		}
	}
	s.NonRevocable = len(s.Reasons) > 0
}

// scanTrigger appends a Reason when the instruction at (m, pc) is one of
// the paper's non-revocability triggers.
func (f *Facts) scanTrigger(s *Section, m *bytecode.Method, pc int, vol map[int]string) {
	in := m.Code[pc]
	switch in.Op {
	case bytecode.NATIVE:
		s.Reasons = append(s.Reasons, Reason{Kind: "native-call", Pos: Pos{m.Name, pc}, Detail: in.S})
	case bytecode.GETSTATIC:
		if f.volatileStatic(in.A) {
			s.Reasons = append(s.Reasons, Reason{Kind: "volatile-read", Pos: Pos{m.Name, pc}, Detail: f.prog.Statics[in.A].Name})
		}
	case bytecode.GETFIELD:
		// GETFIELD carries only a field index; without receiver types the
		// read is volatile whenever ANY class declares a volatile field at
		// that index (conservative).
		if name, ok := vol[in.A]; ok {
			s.Reasons = append(s.Reasons, Reason{Kind: "volatile-read", Pos: Pos{m.Name, pc}, Detail: name})
		}
	case bytecode.WAIT:
		s.Reasons = append(s.Reasons, Reason{Kind: "nested-wait", Pos: Pos{m.Name, pc}})
	}
}

// volatileStatic reports whether idx names a volatile static.
func (f *Facts) volatileStatic(idx int) bool {
	return idx >= 0 && idx < len(f.prog.Statics) && f.prog.Statics[idx].Volatile
}

// volatileFieldIndices maps field index → "Class.field" for every index at
// which some class declares a volatile field.
func (f *Facts) volatileFieldIndices() map[int]string {
	vol := make(map[int]string)
	for _, c := range f.prog.Classes {
		for i, fld := range c.Fields {
			if fld.Volatile {
				if _, seen := vol[i]; !seen {
					vol[i] = c.Name + "." + fld.Name
				}
			}
		}
	}
	return vol
}

// calleeClosure returns the transitive call-graph closure of the given
// roots, sorted.
func (f *Facts) calleeClosure(roots []string) []string {
	seen := make(map[string]bool)
	var queue []string
	for _, r := range roots {
		if f.methods[r] != nil && !seen[r] {
			seen[r] = true
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		for _, c := range f.methods[name].callees {
			if f.methods[c] != nil && !seen[c] {
				seen[c] = true
				queue = append(queue, c)
			}
		}
	}
	if len(seen) == 0 {
		return nil
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// lockID derives the abstract identity of the monitor object pushed for the
// MONITORENTER at ep. Identities over-merge deliberately ("recv:" merges
// every receiver of a method; "static:" merges by variable) so real
// ordering conflicts surface; the unique "local:" fallback never aliases,
// trading missed cycles for zero false positives on unknown objects.
func (f *Facts) lockID(mi *methodInfo, ep int) string {
	m := mi.m
	if ep == 0 {
		return fmt.Sprintf("local:%s@%d", m.Name, ep)
	}
	switch prev := m.Code[ep-1]; prev.Op {
	case bytecode.GETSTATIC:
		if prev.A >= 0 && prev.A < len(f.prog.Statics) {
			return "static:" + f.prog.Statics[prev.A].Name
		}
	case bytecode.NEWOBJ:
		return fmt.Sprintf("new:%s@%s@%d", prev.S, m.Name, ep-1)
	case bytecode.LOAD:
		return f.localLockID(mi, prev.A, ep)
	}
	return fmt.Sprintf("local:%s@%d", m.Name, ep)
}

// localLockID resolves the identity of a local used as a monitor object: if
// every STORE to the local is fed by the same identifiable source (a
// GETSTATIC or a NEWOBJ immediately preceding it), that source is the
// identity; an unwritten local 0 of an instance method is the receiver.
func (f *Facts) localLockID(mi *methodInfo, local, ep int) string {
	m := mi.m
	var ids []string
	stores := 0
	for pc, in := range m.Code {
		if in.Op != bytecode.STORE || in.A != local {
			continue
		}
		stores++
		if pc == 0 {
			continue
		}
		switch prev := m.Code[pc-1]; prev.Op {
		case bytecode.GETSTATIC:
			if prev.A >= 0 && prev.A < len(f.prog.Statics) {
				ids = append(ids, "static:"+f.prog.Statics[prev.A].Name)
			}
		case bytecode.NEWOBJ:
			ids = append(ids, fmt.Sprintf("new:%s@%s@%d", prev.S, m.Name, pc-1))
		}
	}
	if stores == 0 && local < m.Args {
		// Parameter never overwritten: for local 0 this is the receiver.
		if local == 0 {
			return "recv:" + baseName(m.Name)
		}
		return fmt.Sprintf("arg%d:%s", local, baseName(m.Name))
	}
	if len(ids) == stores && stores > 0 {
		first := ids[0]
		same := true
		for _, id := range ids[1:] {
			if id != first {
				same = false
			}
		}
		if same {
			return first
		}
	}
	return fmt.Sprintf("local:%s@%d", m.Name, ep)
}

// baseName strips the rewriter's $impl suffix so a lowered synchronized
// method and its wrapper share one receiver identity.
func baseName(name string) string {
	const suffix = "$impl"
	if len(name) > len(suffix) && name[len(name)-len(suffix):] == suffix {
		return name[:len(name)-len(suffix)]
	}
	return name
}
