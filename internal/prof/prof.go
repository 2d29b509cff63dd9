// Package prof implements a deterministic virtual-time profiler for the
// reproduction VM, in the style of Go's CPU/block/mutex profiles. Every
// tick a thread charges to the virtual clock is attributed to the thread's
// current (method, PC) site — the runtime's site register, stamped by the
// interpreter at each instruction — and bucketed into one of four profile
// dimensions:
//
//   - Work:  committed execution,
//   - Waste: execution later retracted by a rollback (reclassified from
//     Work when the Rollback event arrives, reconciling exactly with
//     core.Stats.WastedTicks),
//   - Block: virtual time spent parked on a monitor, attributed to both
//     the waiter's site and the contended monitor (like Go's mutex
//     profile),
//   - Sched: scheduler overhead — context-switch cost and discrete-event
//     idle jumps, charged to the clock by no thread.
//
// Work, Waste and Sched partition the virtual timeline exactly: their
// totals sum to the final clock value of a run that profiles every thread.
// Block is overlay accounting — on the uniprocessor the clock advances on
// behalf of whichever thread runs while the waiter is parked, so blocked
// time overlaps Work/Waste of other threads and can exceed wall time when
// several threads wait at once.
//
// A Profiler is a trace.Sink: core.New puts it first in the runtime's event
// fan-out when core.Config.Profiler is set, and everything but the per-tick
// charge comes from that one stream, with threads and monitors matched by
// name as the obs and causal consumers match them. Section enter, commit
// and rollback are MonitorAcquired, MonitorExit and Rollback; Object.wait
// is WaitStart..WaitEnd; a monitor block is MonitorBlocked ended by the
// thread's next ContextSwitch; scheduler overhead is ContextSwitch.N and
// SchedIdle.N. The runtime's only direct calls are ThreadProf.Tick for each
// charge and the interpreter's call-tree mirror (Push, PopTo, Depth). A
// nil Config.Profiler costs nothing.
//
// A charge takes no lock and hashes nothing: Work and Waste live in dense
// atomic cells indexed by interned call-tree node and pc, which only the
// running VM thread writes. A mutex guards interning, cell-table growth and
// the Block and Sched maps, and Snapshot and Total read under it, so a live
// HTTP endpoint can snapshot profiles mid-run.
package prof

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/simtime"
	"repro/internal/trace"
)

// Dim is one of the four profile dimensions.
type Dim int

// Profile dimensions.
const (
	Work Dim = iota
	Waste
	Block
	Sched
	NumDims
)

var dimNames = [NumDims]string{"work", "waste", "block", "sched"}

func (d Dim) String() string {
	if d >= 0 && d < NumDims {
		return dimNames[d]
	}
	return "dim(?)"
}

// Dims lists every dimension, in declaration order.
func Dims() []Dim { return []Dim{Work, Waste, Block, Sched} }

// node is one interned call-tree node: a method activation context. The
// parent chain reconstructs the stack; callPC is the caller's pc at the
// call site (0 for roots).
type node struct {
	parent int32
	fn     int32
	callPC int32
}

// sampleKey keys one accumulation cell: the innermost call node, the
// stamped pc, and (Block dimension only) the interned contended-monitor
// pseudo-frame.
type sampleKey struct {
	node int32
	pc   int32
	aux  int32
}

// cell is one site's Work and Waste ticks, indexed by Dim. Only the running
// VM thread writes a cell; the atomics let a snapshot read it mid-run.
type cell [Waste + 1]atomic.Int64

// Profiler accumulates tick attributions for one VM instance. Safe for
// concurrent use: Snapshot and Total may be called from any goroutine
// (e.g. the live HTTP endpoint) while the VM runs.
//
// The VM side is the only writer of nodes, funcNames and the cell tables,
// and it writes their headers under mu. It reads them without mu: the
// scheduler runs one VM thread at a time, and its coroutine hand-off
// orders each read after the writes. Every other goroutine reads them
// under mu.
type Profiler struct {
	mu        sync.Mutex
	funcIDs   map[string]int32
	funcNames []string // funcNames[id-1]
	nodes     []node   // nodes[id-1]
	nodeIDs   map[node]int32
	// cells[id-1] holds node id's Work and Waste cells, indexed by pc.
	cells [][]cell
	// keyed holds the Block and Sched cells (nil for Work and Waste),
	// written under mu once per park and once per dispatch.
	keyed [NumDims]map[sampleKey]int64

	// threads resolves the event stream's thread names to their handles.
	// Only the VM goroutine registers and reads it, so it takes no lock.
	threads map[string]*ThreadProf

	// sampler, when set, observes every Work tick charge with its leaf
	// frame — the per-tick feed the causal profiler intersects with the
	// critical path for exact (method, pc) attribution. It runs on the VM
	// goroutine.
	sampler func(thread string, end, d simtime.Ticks, fn string, pc int)
}

// New creates an empty profiler.
func New() *Profiler {
	p := &Profiler{
		funcIDs: make(map[string]int32),
		nodeIDs: make(map[node]int32),
		threads: make(map[string]*ThreadProf),
	}
	p.keyed[Block] = make(map[sampleKey]int64)
	p.keyed[Sched] = make(map[sampleKey]int64)
	return p
}

// internFunc interns a function (method, thread, or pseudo-frame) name.
// Caller holds mu.
func (p *Profiler) internFunc(name string) int32 {
	if id, ok := p.funcIDs[name]; ok {
		return id
	}
	p.funcNames = append(p.funcNames, name)
	id := int32(len(p.funcNames))
	p.funcIDs[name] = id
	return id
}

// internNode interns a call-tree node. Caller holds mu.
func (p *Profiler) internNode(n node) int32 {
	if id, ok := p.nodeIDs[n]; ok {
		return id
	}
	p.nodes = append(p.nodes, n)
	p.cells = append(p.cells, nil)
	id := int32(len(p.nodes))
	p.nodeIDs[n] = id
	return id
}

// grow widens node n's cell table to cover pc and returns it. Only the VM
// side calls it. A journal entry names its cell by (node, pc), never by
// pointer, so nothing still points into the old table.
func (p *Profiler) grow(n int32, pc int) []cell {
	if pc < 0 {
		panic(fmt.Sprintf("prof: negative pc %d in the site register", pc))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	old := p.cells[n-1]
	tab := make([]cell, max(pc+1, 2*len(old)))
	for i := range old {
		for d := range old[i] {
			tab[i][d].Store(old[i][d].Load())
		}
	}
	p.cells[n-1] = tab
	return tab
}

// forEach calls f with every nonzero cell of dim. Caller holds mu.
func (p *Profiler) forEach(dim Dim, f func(key sampleKey, v int64)) {
	if dim == Work || dim == Waste {
		for i, tab := range p.cells {
			for pc := range tab {
				if v := tab[pc][dim].Load(); v != 0 {
					f(sampleKey{node: int32(i + 1), pc: int32(pc)}, v)
				}
			}
		}
		return
	}
	for key, v := range p.keyed[dim] {
		if v != 0 {
			f(key, v)
		}
	}
}

// schedTick attributes scheduler-level ticks — context-switch cost or a
// discrete-event idle jump — that no thread charged. The label becomes a
// synthetic root frame ("<context-switch>", "<idle>").
func (p *Profiler) schedTick(label string, d int64) {
	if d <= 0 {
		return
	}
	p.mu.Lock()
	n := p.internNode(node{fn: p.internFunc("<" + label + ">")})
	p.keyed[Sched][sampleKey{node: n}] += d
	p.mu.Unlock()
}

// Emit consumes one runtime event: the profiler's whole view of sections,
// waits, blocking and scheduler overhead. Events of unregistered threads
// and kinds the profiler does not account are ignored.
func (p *Profiler) Emit(ev trace.Event) {
	switch ev.Kind {
	case trace.ContextSwitch:
		p.schedTick("context-switch", ev.N)
		if tp := p.threads[ev.Thread]; tp != nil && tp.parked && !tp.parkWait {
			tp.unpark(ev.At)
		}
		return
	case trace.SchedIdle:
		p.schedTick("idle", ev.N)
		return
	case trace.MonitorAcquired, trace.MonitorExit, trace.Rollback,
		trace.MonitorBlocked, trace.WaitStart, trace.WaitEnd:
	default:
		return
	}
	tp := p.threads[ev.Thread]
	if tp == nil {
		return
	}
	switch ev.Kind {
	case trace.MonitorAcquired:
		tp.marks = append(tp.marks, sectionMark{journal: len(tp.journal), mon: ev.Object})
	case trace.MonitorExit:
		tp.sectionCommit()
	case trace.Rollback:
		// The rolled-back span starts at the outermost frame of the monitor
		// (later frames of it are reentrant). A pending-grant revocation
		// names a monitor no frame holds, and rolls back nothing.
		for i, m := range tp.marks {
			if m.mon == ev.Object {
				tp.sectionRollback(i)
				break
			}
		}
		tp.parked = false // a wait unwound by the rollback charges nothing
	case trace.MonitorBlocked:
		tp.park(ev.At, ev.Object, false)
	case trace.WaitStart:
		tp.waitTruncate()
		tp.park(ev.At, ev.Object, true)
	case trace.WaitEnd:
		if tp.parked && tp.parkWait {
			tp.unpark(ev.At)
		}
	}
}

// Total returns one dimension's accumulated ticks, summed from its cells.
func (p *Profiler) Total(dim Dim) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var t int64
	p.forEach(dim, func(_ sampleKey, v int64) { t += v })
	return t
}

// ---------------------------------------------------------------------------
// Per-thread handle.

// journalEntry records one Work attribution made inside a synchronized
// section, so a later rollback can reclassify it as Waste.
type journalEntry struct {
	node, pc int32
	ticks    int64
}

// sectionMark is the journal length when one section frame was entered,
// and the frame's monitor, by which a Rollback event finds its frame.
type sectionMark struct {
	journal int
	mon     string
}

// ThreadProf is one thread's attribution handle. The call stack, journal
// and parked interval are owned by the VM thread (the scheduler serializes
// all thread execution), so they take no lock.
type ThreadProf struct {
	p     *Profiler
	name  string
	stack []int32 // interned nodes; stack[0] is the thread root
	pc    *int    // the thread's site register: the current bytecode pc

	// journal records Work attributions since the outermost revocable
	// section entry; marks[i] is its length when section frame i was
	// entered.
	journal []journalEntry
	marks   []sectionMark

	// parked is set while the thread is parked on monitor parkMon since
	// parkAt: blocked on entry (closed by its next ContextSwitch) or, with
	// parkWait, in Object.wait (closed by WaitEnd).
	parked   bool
	parkWait bool
	parkMon  string
	parkAt   simtime.Ticks
}

// Thread registers a thread root (named after the thread) and returns its
// attribution handle. pc is the thread's site register, which the
// interpreter stamps with the current bytecode pc before each instruction;
// every charge and call is attributed to its value at that moment.
func (p *Profiler) Thread(name string, pc *int) *ThreadProf {
	p.mu.Lock()
	root := p.internNode(node{fn: p.internFunc(name)})
	p.mu.Unlock()
	tp := &ThreadProf{p: p, name: name, stack: []int32{root}, pc: pc}
	p.threads[name] = tp
	return tp
}

// SetSampler installs the per-charge observer: fn is the leaf method name
// ("" for thread-root charges), end the virtual time at the end of the
// charged [end-d, end) interval. The sampler is called on the VM goroutine
// without the profiler lock held and must not call back into the profiler.
func (p *Profiler) SetSampler(s func(thread string, end, d simtime.Ticks, fn string, pc int)) {
	p.sampler = s
}

func (tp *ThreadProf) top() int32 { return tp.stack[len(tp.stack)-1] }

// Depth returns the number of pushed method frames (the thread root does
// not count).
func (tp *ThreadProf) Depth() int { return len(tp.stack) - 1 }

// Push enters a method: a child node of the current top, recording the
// caller's current pc as the call site.
func (tp *ThreadProf) Push(fn string) {
	p := tp.p
	p.mu.Lock()
	n := p.internNode(node{parent: tp.top(), fn: p.internFunc(fn), callPC: int32(*tp.pc)})
	p.mu.Unlock()
	tp.stack = append(tp.stack, n)
}

// PopTo truncates the method stack to depth frames (as counted by Depth).
// Interpreters call it after any unwinding — return, exception, rollback —
// so multi-frame discards stay in sync.
func (tp *ThreadProf) PopTo(depth int) {
	if depth < 0 {
		depth = 0
	}
	if n := depth + 1; n < len(tp.stack) {
		tp.stack = tp.stack[:n]
	}
}

// Tick attributes d charged CPU ticks, ending at virtual time end, to the
// current site as Work, journaling the attribution when inside a
// synchronized section so a rollback can retract it.
func (tp *ThreadProf) Tick(end, d simtime.Ticks) {
	if d <= 0 {
		return
	}
	p := tp.p
	n, pc := tp.top(), *tp.pc
	tab := p.cells[n-1]
	if uint(pc) >= uint(len(tab)) {
		tab = p.grow(n, pc)
	}
	tab[pc][Work].Add(int64(d))
	if p.sampler != nil {
		var leaf string
		if len(tp.stack) > 1 {
			leaf = p.funcNames[p.nodes[n-1].fn-1]
		}
		p.sampler(tp.name, end, d, leaf, pc)
	}
	if len(tp.marks) > 0 {
		tp.journal = append(tp.journal, journalEntry{node: n, pc: int32(pc), ticks: int64(d)})
	}
}

// park opens the thread's parked interval on monitor mon at virtual time at.
func (tp *ThreadProf) park(at simtime.Ticks, mon string, wait bool) {
	tp.parked, tp.parkWait, tp.parkMon, tp.parkAt = true, wait, mon, at
}

// unpark closes the parked interval at virtual time at and attributes it
// to the current site. The monitor becomes a pseudo-leaf frame
// ("monitor:NAME") so block profiles aggregate both by waiting site and by
// contended monitor. Blocked time is not CPU, so it is never journaled: a
// rollback's wasted ticks are the victim's own charges only.
func (tp *ThreadProf) unpark(at simtime.Ticks) {
	tp.parked = false
	d := int64(at - tp.parkAt)
	if d <= 0 {
		return
	}
	p := tp.p
	p.mu.Lock()
	key := sampleKey{node: tp.top(), pc: int32(*tp.pc), aux: p.internFunc("monitor:" + tp.parkMon)}
	p.keyed[Block][key] += d
	p.mu.Unlock()
}

// sectionCommit pops the innermost section frame. When the outermost frame
// commits, the journaled attributions become permanent Work and the
// journal resets.
func (tp *ThreadProf) sectionCommit() {
	n := len(tp.marks)
	if n == 0 {
		return
	}
	tp.marks = tp.marks[:n-1]
	if n == 1 {
		tp.journal = tp.journal[:0]
	}
}

// sectionRollback reclassifies every attribution journaled since frame idx
// was entered from Work to Waste — the profiler's view of the undo replay.
// The runtime emits Rollback where it computes Stats.WastedTicks, and the
// charges journaled in between (instruction costs, barrier costs, log-entry
// costs, the undo replay itself) are exactly the CPU delta that computation
// measures, so the Waste dimension reconciles tick-for-tick.
func (tp *ThreadProf) sectionRollback(idx int) {
	m := tp.marks[idx].journal
	cells := tp.p.cells
	for _, e := range tp.journal[m:] {
		c := &cells[e.node-1][e.pc]
		c[Work].Add(-e.ticks)
		c[Waste].Add(e.ticks)
	}
	tp.journal = tp.journal[:m]
	tp.marks = tp.marks[:idx]
}

// waitTruncate commits the journal in place: Object.wait released the
// monitor (or marked the nest non-revocable), so no attribution made so
// far can be rolled back anymore (mirrors race.Detector.WaitTruncate).
func (tp *ThreadProf) waitTruncate() {
	tp.journal = tp.journal[:0]
	for i := range tp.marks {
		tp.marks[i].journal = 0
	}
}

// ---------------------------------------------------------------------------
// Snapshots.

// Frame is one resolved stack frame of a sample. PC is the bytecode pc (0
// for thread roots and pseudo-frames).
type Frame struct {
	Func string
	PC   int
}

// Sample is one resolved accumulation cell: a stack (leaf first, thread
// root last) and its tick count.
type Sample struct {
	Stack []Frame
	Value int64
}

// Snapshot is an immutable copy of the profiler's state, safe to export
// while the VM keeps running.
type Snapshot struct {
	Dims   [NumDims][]Sample
	Totals [NumDims]int64
}

// Snapshot resolves every nonzero cell into stacks under the lock and
// returns a deterministic (value-descending, then stack-ordered) copy whose
// totals are the sums of its samples.
func (p *Profiler) Snapshot() *Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := &Snapshot{}
	for d := Dim(0); d < NumDims; d++ {
		var samples []Sample
		p.forEach(d, func(key sampleKey, v int64) {
			samples = append(samples, Sample{Stack: p.resolveStack(key), Value: v})
			s.Totals[d] += v
		})
		sort.Slice(samples, func(i, j int) bool {
			if samples[i].Value != samples[j].Value {
				return samples[i].Value > samples[j].Value
			}
			return stackLess(samples[i].Stack, samples[j].Stack)
		})
		s.Dims[d] = samples
	}
	return s
}

// resolveStack renders a sample key as frames, leaf first. Caller holds mu.
func (p *Profiler) resolveStack(key sampleKey) []Frame {
	var stack []Frame
	if key.aux != 0 {
		stack = append(stack, Frame{Func: p.funcNames[key.aux-1]})
	}
	pc := key.pc
	for id := key.node; id != 0; {
		n := p.nodes[id-1]
		stack = append(stack, Frame{Func: p.funcNames[n.fn-1], PC: int(pc)})
		pc = n.callPC
		id = n.parent
	}
	return stack
}

func stackLess(a, b []Frame) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i].Func != b[i].Func {
			return a[i].Func < b[i].Func
		}
		if a[i].PC != b[i].PC {
			return a[i].PC < b[i].PC
		}
	}
	return len(a) < len(b)
}

// TopSite is one leaf site in a Top ranking.
type TopSite struct {
	Func  string `json:"func"`
	PC    int    `json:"pc"`
	Ticks int64  `json:"ticks"`
}

// Top ranks one dimension's leaf sites by accumulated ticks and returns
// the first n (all when n <= 0). For Block the leaf is the contended
// monitor's pseudo-frame.
func (s *Snapshot) Top(dim Dim, n int) []TopSite {
	agg := make(map[Frame]int64)
	for _, smp := range s.Dims[dim] {
		if len(smp.Stack) == 0 {
			continue
		}
		agg[smp.Stack[0]] += smp.Value
	}
	sites := make([]TopSite, 0, len(agg))
	for f, v := range agg {
		sites = append(sites, TopSite{Func: f.Func, PC: f.PC, Ticks: v})
	}
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].Ticks != sites[j].Ticks {
			return sites[i].Ticks > sites[j].Ticks
		}
		if sites[i].Func != sites[j].Func {
			return sites[i].Func < sites[j].Func
		}
		return sites[i].PC < sites[j].PC
	})
	if n > 0 && len(sites) > n {
		sites = sites[:n]
	}
	return sites
}
