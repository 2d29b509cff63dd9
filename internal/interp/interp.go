// Package interp executes bytecode programs on the revocation runtime. It
// plays the role of the Jikes RVM baseline compiler in the paper: every
// store goes through the runtime's write barrier, yield points sit at every
// instruction boundary, and the exception dispatch implements the paper's
// modification — a rollback exception ignores every handler (including
// finally blocks and catch(Throwable)) that does not explicitly catch it
// (§3.1.2), while user exceptions keep standard Java semantics.
//
// Synchronized-section re-execution uses the artifacts the rewriter
// injects (§3.1.1): SAVESTACK before each rollback-scope's monitorenter,
// handlers catching the internal rollback exception whose code runs
// CHECKTARGET / RESTORESTACK / GOTO monitorenter, and RETHROW to propagate
// to outer scopes. Programs executed on a Revocation-mode runtime should
// first pass through rewrite.Rewrite; unrewritten programs remain runnable
// because their sections are marked irrevocable at entry.
package interp

import (
	"fmt"
	"io"

	"repro/internal/analysis"
	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/monitor"
	"repro/internal/sched"
	"repro/internal/simtime"
)

// NativeFunc implements a NATIVE opcode. Natives run outside the undo
// machinery; calling one makes the enclosing monitors non-revocable.
type NativeFunc func(e *Env, t *core.Task, args []heap.Word) heap.Word

// Tier selects the execution tier. Both tiers are semantically identical —
// same virtual clock, same Stats, same heap — and the property tests pin
// that equivalence over every example program.
type Tier int

const (
	// TierExec is the switch interpreter (the paper's baseline compiler
	// analog) and the reference semantics.
	TierExec Tier = iota
	// TierThreaded compiles every method at its first activation into
	// fused closure streams specialized against the static facts (the
	// paper's optimizing compiler analog). See compile.go.
	TierThreaded
)

func (t Tier) String() string {
	switch t {
	case TierExec:
		return "exec"
	case TierThreaded:
		return "threaded"
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// ParseTier parses a -tier flag value.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "exec":
		return TierExec, nil
	case "threaded":
		return TierThreaded, nil
	}
	return TierExec, fmt.Errorf("interp: unknown tier %q (want exec or threaded)", s)
}

// Options configures an Env.
type Options struct {
	// CostPerInstr is the tick charge per executed instruction (default
	// 1); heap operations additionally pay the runtime's barrier costs.
	CostPerInstr simtime.Ticks
	// Out receives the output of the built-in print natives (default:
	// discarded).
	Out io.Writer
	// Rewritten asserts the program went through rewrite.Rewrite, so
	// synchronized sections have rollback scopes and may be revoked.
	// When false, sections are marked irrevocable at entry to keep
	// un-instrumented code safe on a Revocation-mode runtime.
	Rewritten bool
	// Tier selects the execution tier (default TierExec).
	Tier Tier
	// Facts supplies whole-program static analysis results (from
	// analysis.Analyze over this exact program). When set, monitorenter
	// sites of statically non-revocable sections are pre-marked so they
	// run with zero undo-log entries, and every allocation performed while
	// logging is active gets a whole-allocation undo entry — the runtime
	// support for stores elided by fresh-target proofs.
	//
	// A Facts value whose elisions are not all certificate-backed is
	// rejected by NewEnv — the consumers trust certificates, not the raw
	// fact fields (see analysis.VerifyCertificates).
	Facts *analysis.Facts
	// ElisionAudit, when non-nil, is called for every statically elided
	// operation actually executed — each barrier-free RAW store, each
	// dead-SAVESTACK no-op and each confined-monitor no-op — with the
	// certificate kind that licensed it.
	// The certificate property test uses it to assert executed elisions ⊆
	// certificates. A nil hook adds one predictable branch.
	ElisionAudit func(kind analysis.CertKind, method string, pc int)
}

// Env is the shared execution environment: the program, the runtime, the
// object registry and the native table. One Env hosts every thread of a
// program; the uniprocessor scheduler serializes access.
type Env struct {
	RT   *core.Runtime
	Prog *bytecode.Program
	Opts Options

	natives map[string]NativeFunc
	objects map[heap.Word]*heap.Object
	arrays  map[heap.Word]*heap.Array
	classOf map[heap.Word]*bytecode.Class

	// regionAt maps (method, monitorenter pc) to the static region index.
	regionAt map[*bytecode.Method]map[int]int

	// compiled caches each method's compiled code (TierThreaded).
	compiled map[*bytecode.Method][]opFunc

	// monitors caches, per method, the certificate-gated plan of its
	// MONITORENTER/EXIT sites (Env.monitorPlan).
	monitors map[*bytecode.Method]map[int]monitorSite

	// sites caches Runtime.NeedsSites: every instruction then stamps its
	// bytecode site into the task's site register before its tick charge,
	// and every call/return mirrors into the profiler's call tree.
	sites bool

	// fastStep lets compiled code charge each instruction through the
	// loop-free Task.Step, which equals Work when the per-instruction cost
	// fits in one quantum and no what-if Perturb.Scale rewrites charges.
	fastStep bool

	// spawnCount numbers dynamically spawned threads (SPAWN opcode) so
	// their names are unique and deterministic.
	spawnCount int

	// Printed collects print output when Opts.Out is nil, for tests.
	Printed []heap.Word
}

// NewEnv prepares an environment: statics are defined on the runtime's
// heap in program order, built-in natives are registered.
func NewEnv(rt *core.Runtime, prog *bytecode.Program, opts Options) (*Env, error) {
	if opts.CostPerInstr == 0 {
		opts.CostPerInstr = 1
	}
	if opts.Tier != TierExec && opts.Tier != TierThreaded {
		return nil, fmt.Errorf("interp: unknown %v (want exec or threaded)", opts.Tier)
	}
	if rt.Heap().NumStatics() != 0 {
		return nil, fmt.Errorf("interp: runtime heap already has statics; use a fresh runtime")
	}
	if err := bytecode.Verify(prog); err != nil {
		return nil, err
	}
	if opts.Facts != nil {
		// Hard compile-time gate: every fact a consumer would act on must
		// carry a machine-checked certificate. A tampered or stale Facts
		// value fails here, before any code is compiled against it.
		if err := opts.Facts.VerifyCertificates(); err != nil {
			return nil, err
		}
	}
	perturb := rt.Config().Perturb
	e := &Env{
		RT:       rt,
		Prog:     prog,
		Opts:     opts,
		natives:  map[string]NativeFunc{},
		objects:  map[heap.Word]*heap.Object{},
		arrays:   map[heap.Word]*heap.Array{},
		classOf:  map[heap.Word]*bytecode.Class{},
		regionAt: map[*bytecode.Method]map[int]int{},
		compiled: map[*bytecode.Method][]opFunc{},
		monitors: map[*bytecode.Method]map[int]monitorSite{},
		sites:    rt.NeedsSites(),
		fastStep: opts.CostPerInstr <= rt.Scheduler().Quantum() && (perturb == nil || len(perturb.Scale) == 0),
	}
	for _, s := range prog.Statics {
		rt.Heap().DefineStatic(s.Name, s.Volatile, heap.Word(s.Init))
	}
	e.RegisterNative("print", func(e *Env, t *core.Task, args []heap.Word) heap.Word {
		if e.Opts.Out != nil {
			fmt.Fprintln(e.Opts.Out, args[0])
		} else {
			e.Printed = append(e.Printed, args[0])
		}
		return args[0]
	})
	e.RegisterNative("now", func(e *Env, t *core.Task, args []heap.Word) heap.Word {
		return heap.Word(e.RT.Now())
	})
	e.RegisterNative("threadpriority", func(e *Env, t *core.Task, args []heap.Word) heap.Word {
		return heap.Word(t.Priority())
	})
	return e, nil
}

// RegisterNative installs a native method.
func (e *Env) RegisterNative(name string, fn NativeFunc) { e.natives[name] = fn }

// NewObject allocates an instance of the named class and returns its ref.
func (e *Env) NewObject(class string) (heap.Word, error) {
	cls, ok := e.Prog.Class(class)
	if !ok {
		// Exception classes may be undeclared: allocate a fieldless
		// instance so throw/catch of arbitrary names works.
		cls = &bytecode.Class{Name: class}
	}
	specs := make([]heap.FieldSpec, len(cls.Fields))
	for i, f := range cls.Fields {
		specs[i] = heap.FieldSpec{Name: f.Name, Volatile: f.Volatile, Init: heap.Word(f.Init)}
	}
	o := e.RT.Heap().AllocObject(class, specs...)
	ref := heap.Word(o.ID())
	e.objects[ref] = o
	e.classOf[ref] = cls
	return ref, nil
}

// NewArray allocates an array of n elements and returns its ref.
func (e *Env) NewArray(n int) heap.Word {
	a := e.RT.Heap().AllocArray(n)
	ref := heap.Word(a.ID())
	e.arrays[ref] = a
	return ref
}

// Object resolves an object ref.
func (e *Env) Object(ref heap.Word) (*heap.Object, bool) {
	o, ok := e.objects[ref]
	return o, ok
}

// Array resolves an array ref.
func (e *Env) Array(ref heap.Word) (*heap.Array, bool) {
	a, ok := e.arrays[ref]
	return a, ok
}

// regionIndex returns the static sync-region index whose MONITORENTER sits
// at pc, or -1.
func (e *Env) regionIndex(m *bytecode.Method, pc int) int {
	tbl, ok := e.regionAt[m]
	if !ok {
		tbl = make(map[int]int, len(m.Regions))
		for i, r := range m.Regions {
			tbl[r.EnterPC+1] = i // EnterPC is the LOAD; enter follows
		}
		e.regionAt[m] = tbl
	}
	if i, ok := tbl[pc]; ok {
		return i
	}
	return -1
}

// SpawnDeclaredThreads spawns every thread the program declares.
func (e *Env) SpawnDeclaredThreads() error {
	for _, td := range e.Prog.Threads {
		m, ok := e.Prog.Method(td.Method)
		if !ok {
			return fmt.Errorf("interp: thread %q: unknown method %q", td.Name, td.Method)
		}
		method := m
		e.RT.Spawn(td.Name, sched.Priority(td.Priority), func(tk *core.Task) {
			if _, err := e.Call(tk, method, nil); err != nil {
				panic(fmt.Sprintf("interp: thread %s: %v", tk.Name(), err))
			}
		})
	}
	return nil
}

// Call runs a method to completion on the calling task's thread.
func (e *Env) Call(t *core.Task, m *bytecode.Method, args []heap.Word) (heap.Word, error) {
	if len(args) != m.Args {
		return 0, fmt.Errorf("interp: %s wants %d args, got %d", m.Name, m.Args, len(args))
	}
	in := &Interp{env: e, task: t}
	if e.sites {
		// Nested Call (native re-entry) stacks on the caller's profile
		// frames; popping back to profBase restores them on any exit.
		in.profBase = t.ProfDepth()
	}
	in.pushFrame(m, args)
	return in.Execute()
}

// Run assembles everything: builds an Env over rt, spawns the declared
// threads, and drives the runtime to completion.
func Run(rt *core.Runtime, prog *bytecode.Program, opts Options) (*Env, error) {
	env, err := NewEnv(rt, prog, opts)
	if err != nil {
		return nil, err
	}
	if err := env.SpawnDeclaredThreads(); err != nil {
		return nil, err
	}
	if err := rt.Run(); err != nil {
		return env, err
	}
	return env, nil
}

// ---------------------------------------------------------------------------
// The interpreter proper.

// activeSync is one entered synchronized region instance.
type activeSync struct {
	staticIdx int // index into Method.Regions; -1 when unstructured
	mon       *monitor.Monitor
	coreDepth int
}

// frame is one method activation.
type frame struct {
	m      *bytecode.Method
	pc     int
	locals []heap.Word
	stack  []heap.Word
	syncs  []activeSync
	// fns is the method's compiled code (TierThreaded).
	fns []opFunc
}

func (f *frame) push(v heap.Word) { f.stack = append(f.stack, v) }

func (f *frame) pop() heap.Word {
	v := f.stack[len(f.stack)-1]
	f.stack = f.stack[:len(f.stack)-1]
	return v
}

// inflight is the exception being dispatched (rollback or user).
type inflight struct {
	rollback bool
	// Rollback state.
	info         core.RevokeInfo
	targetFrame  *frame
	targetRegion int
	// User-exception state.
	excClass string
	excRef   heap.Word
	// Dispatch cursor.
	faultPC     int
	nextHandler int
}

// Interp executes one thread's activations.
type Interp struct {
	env    *Env
	task   *core.Task
	frames []*frame

	pending *inflight
	ret     heap.Word
	err     error
	done    bool

	// profBase is the task's profiler call-stack depth when this Interp
	// started; the profiler stack mirrors frames above it.
	profBase int

	// argBuf is scratch for the compiled tier's compile-time-resolved INVOKE:
	// arguments are popped into it and immediately copied out by pushFrame,
	// with no yield point in between, so one buffer serves every call.
	argBuf []heap.Word
}

func (in *Interp) pushFrame(m *bytecode.Method, args []heap.Word) {
	f := &frame{
		m:      m,
		locals: make([]heap.Word, m.Locals),
		stack:  make([]heap.Word, 0, m.MaxStack),
	}
	if in.env.Opts.Tier == TierThreaded {
		f.fns = in.env.compile(m)
	}
	copy(f.locals, args)
	in.frames = append(in.frames, f)
	if in.env.sites {
		in.task.ProfPush(m.Name)
	}
}

// profSync re-aligns the profiler's call stack with in.frames after any
// frame pop — return, exception unwind, rollback discard, error cleanup.
func (in *Interp) profSync() {
	if in.env.sites {
		in.task.ProfPopTo(in.profBase + len(in.frames))
	}
}

func (in *Interp) top() *frame { return in.frames[len(in.frames)-1] }

// Execute drives the interpreter to completion, converting delivered
// revocations into the bytecode-level rollback dispatch.
func (in *Interp) Execute() (heap.Word, error) {
	var pendingRevoke *core.RevokeInfo
	for {
		if pendingRevoke != nil {
			info := *pendingRevoke
			pendingRevoke = nil
			again, ok := in.protect(func() { in.beginRollback(info) })
			if ok {
				pendingRevoke = &again
				continue
			}
		}
		if in.done || in.err != nil {
			in.cleanupOnError()
			return in.ret, in.err
		}
		body := in.loop
		if in.env.Opts.Tier == TierThreaded {
			body = in.loopCompiled
		}
		again, ok := in.protect(body)
		if !ok {
			in.cleanupOnError()
			return in.ret, in.err
		}
		pendingRevoke = &again
	}
}

// cleanupOnError releases the synchronized sections of abandoned frames
// when execution stops with an interpreter error (bad bytecode, uncaught
// condition), so the underlying task is left in a clean state. Updates
// stay committed — an interpreter error is not a rollback.
func (in *Interp) cleanupOnError() {
	if in.err == nil {
		return
	}
	for fi := len(in.frames) - 1; fi >= 0; fi-- {
		f := in.frames[fi]
		for i := len(f.syncs) - 1; i >= 0; i-- {
			in.task.EngineExit(f.syncs[i].mon)
		}
		f.syncs = nil
	}
	in.frames = nil
	in.profSync()
}

// protect runs f, converting a revocation panic into its RevokeInfo.
func (in *Interp) protect(f func()) (info core.RevokeInfo, revoked bool) {
	defer func() {
		if r := recover(); r != nil {
			if ri, ok := core.AsRevocation(r); ok {
				info, revoked = ri, true
				return
			}
			panic(r)
		}
	}()
	f()
	return core.RevokeInfo{}, false
}

// loop runs instructions until every frame returns or an error stops us.
func (in *Interp) loop() {
	for len(in.frames) > 0 && in.err == nil {
		f := in.top()
		if f.pc < 0 || f.pc >= len(f.m.Code) {
			in.err = fmt.Errorf("interp: %s: pc %d out of range", f.m.Name, f.pc)
			return
		}
		in.exec(f, f.m.Code[f.pc])
	}
	in.done = true
}

// fail stops execution with an interpreter error.
func (in *Interp) fail(f string, args ...any) {
	in.err = fmt.Errorf("interp: "+f, args...)
}

// Confined-elision plan markers: monitorSite.confined tags each elidable
// pc with the operation it replaces.
const (
	confinedEnter int8 = 1
	confinedExit  int8 = 2
)

// monitorSite is the static plan of one MONITORENTER or MONITOREXIT pc.
type monitorSite struct {
	// confined is confinedEnter or confinedExit for a certified
	// thread-confined monitor: the instruction is a charge-only no-op.
	confined int8
	// nonRev is the pre-mark reason of a statically non-revocable section
	// entered here ("" for none). certErr is set with it when the fact
	// carries no certificate; the instruction then fails with it.
	nonRev  string
	certErr error
}

// monitorPlan resolves (and caches) the static plan of m's monitor
// instructions, once per method for both tiers:
//
//   - every MONITORENTER the escape analysis proved thread-confined,
//     together with its bracketing MONITOREXIT pcs, becomes a charge-only
//     no-op. Each site is admitted only when the enter and every one of its
//     exits carry a verified confined-monitor certificate — a plan entry
//     without its full certificate set is dropped, never partially applied;
//   - every MONITORENTER of a statically non-revocable section carries its
//     pre-mark reason, or the error of its missing certificate.
func (e *Env) monitorPlan(m *bytecode.Method) map[int]monitorSite {
	if plan, ok := e.monitors[m]; ok {
		return plan
	}
	plan := map[int]monitorSite{}
	if facts := e.Opts.Facts; facts != nil {
		for pc, ins := range m.Code {
			if ins.Op != bytecode.MONITORENTER {
				continue
			}
			if s := facts.SectionAt(m.Name, pc); s != nil && s.NonRevocable {
				plan[pc] = monitorSite{
					nonRev:  s.ReasonSummary(),
					certErr: facts.RequireCert(m.Name, pc, analysis.CertNonRevocable),
				}
			}
			exits, ok := facts.ConfinedExits(m.Name, pc)
			if !ok {
				continue
			}
			good := facts.RequireCert(m.Name, pc, analysis.CertConfined) == nil
			for _, ep := range exits {
				if facts.RequireCert(m.Name, ep, analysis.CertConfined) != nil {
					good = false
				}
			}
			if !good {
				continue
			}
			enter := plan[pc]
			enter.confined = confinedEnter
			plan[pc] = enter
			for _, ep := range exits {
				plan[ep] = monitorSite{confined: confinedExit}
			}
		}
	}
	e.monitors[m] = plan
	return plan
}

// monitorFor resolves an object ref to its monitor, raising
// NullPointerException for a bad ref.
func (in *Interp) monitorFor(ref heap.Word) (*monitor.Monitor, bool) {
	o, ok := in.env.objects[ref]
	if !ok {
		in.raiseUser("NullPointerException")
		return nil, false
	}
	return in.env.RT.MonitorFor(o), true
}

// exec runs one instruction, updating f.pc.
func (in *Interp) exec(f *frame, instr bytecode.Instr) {
	// Every instruction boundary is a yield point; delivery of a pending
	// revocation happens inside Work via the runtime. The site is stamped
	// first so the instruction's own ticks land on its pc.
	if in.env.sites {
		in.task.SetSite(f.m.Name, f.pc)
	}
	in.task.Work(in.env.Opts.CostPerInstr)

	next := f.pc + 1
	switch instr.Op {
	case bytecode.NOP:

	case bytecode.CONST:
		f.push(heap.Word(instr.V))
	case bytecode.LOAD:
		f.push(f.locals[instr.A])
	case bytecode.STORE:
		f.locals[instr.A] = f.pop()
	case bytecode.DUP:
		v := f.pop()
		f.push(v)
		f.push(v)
	case bytecode.POP:
		f.pop()
	case bytecode.SWAP:
		a, b := f.pop(), f.pop()
		f.push(a)
		f.push(b)

	case bytecode.ADD, bytecode.SUB, bytecode.MUL, bytecode.DIV, bytecode.MOD,
		bytecode.CMPEQ, bytecode.CMPNE, bytecode.CMPLT, bytecode.CMPLE,
		bytecode.CMPGT, bytecode.CMPGE:
		b, a := f.pop(), f.pop()
		v, ok := arith(instr.Op, a, b)
		if !ok {
			in.raiseUser("ArithmeticException")
			return
		}
		f.push(v)
	case bytecode.NEG:
		f.push(-f.pop())

	case bytecode.GOTO:
		next = instr.A
	case bytecode.IFNZ:
		if f.pop() != 0 {
			next = instr.A
		}
	case bytecode.IFZ:
		if f.pop() == 0 {
			next = instr.A
		}

	case bytecode.NEWOBJ:
		ref, err := in.env.NewObject(instr.S)
		if err != nil {
			in.fail("%v", err)
			return
		}
		if in.env.Opts.Facts != nil {
			if o, ok := in.env.objects[ref]; ok {
				in.task.RegisterAllocObject(o)
			}
		}
		f.push(ref)
	case bytecode.NEWARR:
		n := f.pop()
		if n < 0 {
			in.raiseUser("NegativeArraySizeException")
			return
		}
		ref := in.env.NewArray(int(n))
		if in.env.Opts.Facts != nil {
			if a, ok := in.env.arrays[ref]; ok {
				in.task.RegisterAllocArray(a)
			}
		}
		f.push(ref)
	case bytecode.ARRAYLEN:
		a, ok := in.array(f.pop())
		if !ok {
			return
		}
		f.push(heap.Word(a.Len()))

	case bytecode.GETFIELD:
		o, ok := in.object(f.pop())
		if !ok {
			return
		}
		if instr.A >= o.NumFields() {
			in.fail("%s: field %d out of range on %v", f.m.Name, instr.A, o)
			return
		}
		f.push(in.task.ReadField(o, instr.A))
	case bytecode.PUTFIELD:
		v := f.pop()
		o, ok := in.object(f.pop())
		if !ok {
			return
		}
		if instr.A >= o.NumFields() {
			in.fail("%s: field %d out of range on %v", f.m.Name, instr.A, o)
			return
		}
		in.task.WriteField(o, instr.A, v)
	case bytecode.GETSTATIC:
		f.push(in.task.ReadStatic(instr.A))
	case bytecode.PUTSTATIC:
		in.task.WriteStatic(instr.A, f.pop())
	case bytecode.ALOAD:
		idx := f.pop()
		a, ok := in.array(f.pop())
		if !ok {
			return
		}
		if idx < 0 || int(idx) >= a.Len() {
			in.raiseUser("ArrayIndexOutOfBoundsException")
			return
		}
		f.push(in.task.ReadElem(a, int(idx)))
	case bytecode.ASTORE:
		v := f.pop()
		idx := f.pop()
		a, ok := in.array(f.pop())
		if !ok {
			return
		}
		if idx < 0 || int(idx) >= a.Len() {
			in.raiseUser("ArrayIndexOutOfBoundsException")
			return
		}
		in.task.WriteElem(a, int(idx), v)

	// Raw stores (barrier elided by rewrite.ApplyStaticElision): the store
	// cost is still charged, but the in-section check, undo logging and
	// speculation registration are skipped.
	case bytecode.PUTFIELDRAW:
		v := f.pop()
		o, ok := in.object(f.pop())
		if !ok {
			return
		}
		if instr.A >= o.NumFields() {
			in.fail("%s: field %d out of range on %v", f.m.Name, instr.A, o)
			return
		}
		in.task.Work(in.env.RT.Config().CostWrite)
		in.task.CountRawStore()
		if audit := in.env.Opts.ElisionAudit; audit != nil {
			audit(analysis.CertElideBarrier, f.m.Name, f.pc)
		}
		o.Set(instr.A, v)
		in.task.RaceRawWriteField(o, instr.A)
	case bytecode.PUTSTATICRAW:
		in.task.Work(in.env.RT.Config().CostWrite)
		in.task.CountRawStore()
		if audit := in.env.Opts.ElisionAudit; audit != nil {
			audit(analysis.CertElideBarrier, f.m.Name, f.pc)
		}
		in.env.RT.Heap().SetStatic(instr.A, f.pop())
		in.task.RaceRawWriteStatic(instr.A)
	case bytecode.ASTORERAW:
		v := f.pop()
		idx := f.pop()
		a, ok := in.array(f.pop())
		if !ok {
			return
		}
		if idx < 0 || int(idx) >= a.Len() {
			in.raiseUser("ArrayIndexOutOfBoundsException")
			return
		}
		in.task.Work(in.env.RT.Config().CostWrite)
		in.task.CountRawStore()
		if audit := in.env.Opts.ElisionAudit; audit != nil {
			audit(analysis.CertElideBarrier, f.m.Name, f.pc)
		}
		a.Set(int(idx), v)
		in.task.RaceRawWriteElem(a, int(idx))

	case bytecode.MONITORENTER:
		site := in.env.monitorPlan(f.m)[f.pc]
		if site.confined == confinedEnter {
			// Certified thread-confined monitor: no second thread can ever
			// reach the object, so acquisition is a charge-only no-op. The
			// ref is still popped and null-checked for NPE parity.
			if _, ok := in.object(f.pop()); !ok {
				return
			}
			in.task.CountConfinedElision()
			if audit := in.env.Opts.ElisionAudit; audit != nil {
				audit(analysis.CertConfined, f.m.Name, f.pc)
			}
			break
		}
		m, ok := in.monitorFor(f.pop())
		if !ok {
			return
		}
		depth := in.task.EngineFrameDepth()
		in.task.EngineEnter(m)
		if site.certErr != nil {
			in.fail("%v", site.certErr)
			return
		}
		if site.nonRev != "" {
			in.task.PreMarkNonRevocable(site.nonRev)
		}
		if !in.env.Opts.Rewritten {
			// No rollback scopes exist: revoking would strand control.
			in.task.MarkIrrevocable("unrewritten bytecode")
		}
		f.syncs = append(f.syncs, activeSync{
			staticIdx: in.env.regionIndex(f.m, f.pc),
			mon:       m,
			coreDepth: depth,
		})
	case bytecode.MONITOREXIT:
		if in.env.monitorPlan(f.m)[f.pc].confined == confinedExit {
			if _, ok := in.object(f.pop()); !ok {
				return
			}
			in.task.CountConfinedElision()
			if audit := in.env.Opts.ElisionAudit; audit != nil {
				audit(analysis.CertConfined, f.m.Name, f.pc)
			}
			break
		}
		m, ok := in.monitorFor(f.pop())
		if !ok {
			return
		}
		if len(f.syncs) == 0 || f.syncs[len(f.syncs)-1].mon != m {
			in.fail("%s@%d: monitorexit does not match innermost monitorenter", f.m.Name, f.pc)
			return
		}
		f.syncs = f.syncs[:len(f.syncs)-1]
		in.task.EngineExit(m)

	case bytecode.WAIT:
		m, ok := in.monitorFor(f.pop())
		if !ok {
			return
		}
		in.task.Wait(m)
	case bytecode.NOTIFY:
		m, ok := in.monitorFor(f.pop())
		if !ok {
			return
		}
		in.task.Notify(m)
	case bytecode.NOTIFYALL:
		m, ok := in.monitorFor(f.pop())
		if !ok {
			return
		}
		in.task.NotifyAll(m)

	case bytecode.INVOKE:
		callee, ok := in.env.Prog.Method(instr.S)
		if !ok {
			in.fail("%s@%d: unknown method %q", f.m.Name, f.pc, instr.S)
			return
		}
		args := make([]heap.Word, callee.Args)
		for i := callee.Args - 1; i >= 0; i-- {
			args[i] = f.pop()
		}
		// The caller's pc stays at the INVOKE while the callee runs, so
		// an exception propagating out of the callee dispatches against
		// the call site; RETURN advances it.
		in.pushFrame(callee, args)
		return
	case bytecode.RETURN, bytecode.IRETURN:
		var v heap.Word
		if instr.Op == bytecode.IRETURN {
			v = f.pop()
		}
		if len(f.syncs) != 0 {
			in.fail("%s: return with %d synchronized sections active", f.m.Name, len(f.syncs))
			return
		}
		in.frames = in.frames[:len(in.frames)-1]
		in.profSync()
		if len(in.frames) == 0 {
			in.ret = v
			return
		}
		caller := in.top()
		if f.m.Returns {
			caller.push(v)
		}
		caller.pc++ // step past the INVOKE
		return

	case bytecode.THROW:
		in.raiseUser(instr.S)
		return
	case bytecode.RETHROW:
		in.rethrow()
		return

	case bytecode.NATIVE:
		fn, ok := in.env.natives[instr.S]
		if !ok {
			in.fail("%s@%d: unknown native %q", f.m.Name, f.pc, instr.S)
			return
		}
		args := make([]heap.Word, instr.A)
		for i := instr.A - 1; i >= 0; i-- {
			args[i] = f.pop()
		}
		var ret heap.Word
		in.task.Native(instr.S, func() { ret = fn(in.env, in.task, args) })
		f.push(ret)

	case bytecode.WORK:
		in.task.Work(simtime.Ticks(f.pop()))
	case bytecode.SLEEP:
		in.task.Sleep(simtime.Ticks(f.pop()))

	case bytecode.SPAWN:
		callee, ok := in.env.Prog.Method(instr.S)
		if !ok {
			in.fail("%s@%d: spawn of unknown method %q", f.m.Name, f.pc, instr.S)
			return
		}
		args := make([]heap.Word, callee.Args)
		for i := callee.Args - 1; i >= 0; i-- {
			args[i] = f.pop()
		}
		in.env.spawnCount++
		name := fmt.Sprintf("%s#%d", instr.S, in.env.spawnCount)
		env := in.env
		in.env.RT.Spawn(name, sched.Priority(instr.A), func(tk *core.Task) {
			if _, err := env.Call(tk, callee, args); err != nil {
				panic(fmt.Sprintf("interp: thread %s: %v", tk.Name(), err))
			}
		})

	case bytecode.SAVESTACK:
		d := int(instr.V)
		for i := 0; i < d; i++ {
			f.locals[instr.A+i] = f.stack[i]
		}
	case bytecode.RESTORESTACK:
		d := int(instr.V)
		for i := 0; i < d; i++ {
			f.push(f.locals[instr.A+i])
		}
	case bytecode.CHECKTARGET:
		p := in.pending
		if p != nil && p.rollback && p.targetFrame == f && p.targetRegion == instr.A {
			in.pending = nil // rollback caught; the handler re-enters
			f.push(1)
		} else {
			f.push(0)
		}

	default:
		in.fail("%s@%d: unimplemented opcode %v", f.m.Name, f.pc, instr.Op)
		return
	}
	f.pc = next
}

// arith evaluates a binary operator; ok is false on division by zero.
func arith(op bytecode.Op, a, b heap.Word) (heap.Word, bool) {
	switch op {
	case bytecode.ADD:
		return a + b, true
	case bytecode.SUB:
		return a - b, true
	case bytecode.MUL:
		return a * b, true
	case bytecode.DIV:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case bytecode.MOD:
		if b == 0 {
			return 0, false
		}
		return a % b, true
	case bytecode.CMPEQ:
		return bool2w(a == b), true
	case bytecode.CMPNE:
		return bool2w(a != b), true
	case bytecode.CMPLT:
		return bool2w(a < b), true
	case bytecode.CMPLE:
		return bool2w(a <= b), true
	case bytecode.CMPGT:
		return bool2w(a > b), true
	case bytecode.CMPGE:
		return bool2w(a >= b), true
	}
	panic("unreachable")
}

func bool2w(b bool) heap.Word {
	if b {
		return 1
	}
	return 0
}

// object resolves an object ref, raising NullPointerException on failure.
func (in *Interp) object(ref heap.Word) (*heap.Object, bool) {
	o, ok := in.env.objects[ref]
	if !ok {
		in.raiseUser("NullPointerException")
		return nil, false
	}
	return o, true
}

// array resolves an array ref, raising NullPointerException on failure.
func (in *Interp) array(ref heap.Word) (*heap.Array, bool) {
	a, ok := in.env.arrays[ref]
	if !ok {
		in.raiseUser("NullPointerException")
		return nil, false
	}
	return a, true
}

// ---------------------------------------------------------------------------
// Exception dispatch.

// raiseUser throws a user (or VM) exception of the given class from the
// current pc, using standard Java dispatch: the innermost handler whose
// range covers the pc and whose catch type matches (exact name or "*").
// Handlers for the internal rollback exception never match.
func (in *Interp) raiseUser(class string) {
	ref, err := in.env.NewObject(class)
	if err != nil {
		in.fail("%v", err)
		return
	}
	in.pending = &inflight{
		excClass:    class,
		excRef:      ref,
		faultPC:     in.top().pc,
		nextHandler: 0,
	}
	in.dispatchUser()
}

// rethrow re-raises the in-flight exception to the next outer scope.
func (in *Interp) rethrow() {
	p := in.pending
	if p == nil {
		in.fail("rethrow with no in-flight exception")
		return
	}
	if p.rollback {
		in.dispatchRollback()
		return
	}
	in.dispatchUser()
}

// dispatchUser finds the next handler for the in-flight user exception.
func (in *Interp) dispatchUser() {
	p := in.pending
	for len(in.frames) > 0 {
		f := in.top()
		for h := p.nextHandler; h < len(f.m.Handlers); h++ {
			hd := f.m.Handlers[h]
			if hd.Catch == bytecode.RollbackClass {
				continue
			}
			if p.faultPC < hd.From || p.faultPC >= hd.To {
				continue
			}
			if hd.Catch != bytecode.CatchAny && hd.Catch != p.excClass {
				continue
			}
			f.stack = f.stack[:0]
			f.push(p.excRef)
			f.pc = hd.Target
			p.nextHandler = h + 1
			return
		}
		// No handler here: this activation dies. Java semantics release
		// the monitors of abandoned synchronized blocks (updates stay —
		// exceptions do not roll back).
		for i := len(f.syncs) - 1; i >= 0; i-- {
			in.task.EngineExit(f.syncs[i].mon)
		}
		in.frames = in.frames[:len(in.frames)-1]
		in.profSync()
		if len(in.frames) > 0 {
			p.faultPC = in.top().pc
			p.nextHandler = 0
		}
	}
	in.pending = nil
	in.err = fmt.Errorf("interp: uncaught exception %s in thread %s", p.excClass, in.task.Name())
}

// beginRollback starts bytecode-level dispatch of a delivered revocation:
// discard the rolled-back core frames, purge the dead region instances,
// locate the target region, and find the first rollback handler.
func (in *Interp) beginRollback(info core.RevokeInfo) {
	in.task.EngineUnwind(info)

	// Locate the target region instance and purge everything at or above
	// the target depth — those sections' effects and monitors are gone.
	var targetFrame *frame
	targetRegion := -1
	for fi := len(in.frames) - 1; fi >= 0; fi-- {
		f := in.frames[fi]
		keep := f.syncs[:0]
		for _, s := range f.syncs {
			if s.coreDepth == info.Target {
				targetFrame = f
				targetRegion = s.staticIdx
			}
			if s.coreDepth < info.Target {
				keep = append(keep, s)
			}
		}
		f.syncs = keep
	}
	if targetFrame == nil {
		in.fail("rollback target %d has no active region (thread %s)", info.Target, in.task.Name())
		return
	}
	if targetRegion < 0 {
		in.fail("rollback targeted an unstructured synchronized section (thread %s)", in.task.Name())
		return
	}
	in.pending = &inflight{
		rollback:     true,
		info:         info,
		targetFrame:  targetFrame,
		targetRegion: targetRegion,
		faultPC:      in.top().pc,
		nextHandler:  0,
	}
	in.dispatchRollback()
}

// dispatchRollback finds the next handler explicitly catching the rollback
// exception. Per §3.1.2, every other handler — finally blocks,
// catch(Throwable) — is ignored while a rollback is in flight.
func (in *Interp) dispatchRollback() {
	p := in.pending
	for len(in.frames) > 0 {
		f := in.top()
		for h := p.nextHandler; h < len(f.m.Handlers); h++ {
			hd := f.m.Handlers[h]
			if hd.Catch != bytecode.RollbackClass {
				continue // the modified exception dispatch
			}
			if p.faultPC < hd.From || p.faultPC >= hd.To {
				continue
			}
			f.stack = f.stack[:0]
			f.pc = hd.Target
			p.nextHandler = h + 1
			return
		}
		// The activation was called inside the doomed section: discard it.
		// Its monitors were already force-released by the rollback.
		in.frames = in.frames[:len(in.frames)-1]
		in.profSync()
		if len(in.frames) > 0 {
			p.faultPC = in.top().pc
			p.nextHandler = 0
		}
	}
	in.pending = nil
	in.err = fmt.Errorf("interp: rollback escaped every scope in thread %s (program not rewritten?)", in.task.Name())
}
