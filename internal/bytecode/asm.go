package bytecode

import (
	"fmt"
	"strconv"
	"strings"
)

// Assemble parses the textual program form. The syntax is line-based;
// '#' and '//' start comments. Example:
//
//	static flag volatile = 0
//	static total = 100
//
//	class Point {
//	    x
//	    y volatile
//	    z = 7
//	}
//
//	thread worker priority 2 run workerMain
//
//	method workerMain locals 2 {
//	    const 10
//	    store 0
//	  loop:
//	    load 0
//	    ifz done
//	    load 0
//	    const 1
//	    sub
//	    store 0
//	    goto loop
//	  done:
//	    return
//	}
//
//	method Point.get synchronized args 1 locals 1 returns {
//	    load 0
//	    getfield Point.x
//	    ireturn
//	}
//
//	handler workerMain from loop to done target done catch *
//
// Field operands may be written as Class.field (resolved to an offset) or
// as a bare integer offset. Static operands may be a name or an offset.
// Branch targets are labels or absolute instruction indices. Class,
// static, method and thread names are each unique within their kind.
func Assemble(src string) (*Program, error) {
	p := &Program{}
	lines := strings.Split(src, "\n")
	i := 0
	var pendingHandlers []handlerDecl
	labelsByMethod := map[string]map[string]int{}
	declaredAt := map[[2]string]int{} // (kind, name) -> line of its declaration
	declare := func(kind, name string, line int) error {
		if first, ok := declaredAt[[2]string{kind, name}]; ok {
			return asmErr(line, fmt.Errorf("duplicate %s %q (first declared at line %d)", kind, name, first))
		}
		declaredAt[[2]string{kind, name}] = line
		return nil
	}
	for i < len(lines) {
		line := stripComment(lines[i])
		i++
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "static":
			s, err := parseStatic(fields[1:])
			if err != nil {
				return nil, asmErr(i, err)
			}
			if err := declare("static", s.Name, i); err != nil {
				return nil, err
			}
			p.Statics = append(p.Statics, s)
		case "class":
			cls, consumed, err := parseClass(fields[1:], lines[i:])
			if err != nil {
				return nil, asmErr(i, err)
			}
			if err := declare("class", cls.Name, i); err != nil {
				return nil, err
			}
			p.Classes = append(p.Classes, cls)
			i += consumed
		case "thread":
			t, err := parseThread(fields[1:])
			if err != nil {
				return nil, asmErr(i, err)
			}
			if err := declare("thread", t.Name, i); err != nil {
				return nil, err
			}
			p.Threads = append(p.Threads, t)
		case "method":
			m, labels, consumed, err := parseMethod(fields[1:], lines[i:])
			if err != nil {
				return nil, asmErr(i, err)
			}
			if err := declare("method", m.Name, i); err != nil {
				return nil, err
			}
			p.Methods = append(p.Methods, m)
			labelsByMethod[m.Name] = labels
			i += consumed
		case "handler":
			h, err := parseHandlerDecl(fields[1:])
			if err != nil {
				return nil, asmErr(i, err)
			}
			pendingHandlers = append(pendingHandlers, h)
		default:
			return nil, asmErr(i, fmt.Errorf("unknown directive %q", fields[0]))
		}
	}
	// Resolve symbolic operands now that all classes/statics/methods exist.
	for _, m := range p.Methods {
		if err := resolveSymbols(p, m); err != nil {
			return nil, err
		}
	}
	for _, h := range pendingHandlers {
		m, ok := p.Method(h.method)
		if !ok {
			return nil, fmt.Errorf("asm: handler for unknown method %q", h.method)
		}
		labels := labelsByMethod[m.Name]
		from, err := resolveLabel(m, labels, h.from)
		if err != nil {
			return nil, err
		}
		to, err := resolveLabel(m, labels, h.to)
		if err != nil {
			return nil, err
		}
		target, err := resolveLabel(m, labels, h.target)
		if err != nil {
			return nil, err
		}
		m.Handlers = append(m.Handlers, Handler{From: from, To: to, Target: target, Catch: h.catch})
	}
	return p, nil
}

// MustAssemble is Assemble panicking on error; for tests and examples.
func MustAssemble(src string) *Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

type handlerDecl struct {
	method, from, to, target, catch string
}

func asmErr(line int, err error) error {
	return fmt.Errorf("asm: line %d: %w", line, err)
}

func stripComment(s string) string {
	if i := strings.Index(s, "#"); i >= 0 {
		s = s[:i]
	}
	if i := strings.Index(s, "//"); i >= 0 {
		s = s[:i]
	}
	return strings.TrimSpace(s)
}

// parseStatic: NAME [volatile] [= INIT]
func parseStatic(f []string) (Static, error) {
	if len(f) == 0 {
		return Static{}, fmt.Errorf("static needs a name")
	}
	s := Static{Name: f[0]}
	rest := f[1:]
	for len(rest) > 0 {
		switch rest[0] {
		case "volatile":
			s.Volatile = true
			rest = rest[1:]
		case "=":
			if len(rest) < 2 {
				return s, fmt.Errorf("static %s: missing initializer", s.Name)
			}
			v, err := strconv.ParseInt(rest[1], 10, 64)
			if err != nil {
				return s, fmt.Errorf("static %s: %v", s.Name, err)
			}
			s.Init = v
			rest = rest[2:]
		default:
			return s, fmt.Errorf("static %s: unexpected %q", s.Name, rest[0])
		}
	}
	return s, nil
}

// parseClass: NAME { field-lines } — fields one per line: NAME [volatile] [= INIT]
func parseClass(f []string, body []string) (*Class, int, error) {
	if len(f) < 1 {
		return nil, 0, fmt.Errorf("class needs a name")
	}
	cls := &Class{Name: f[0]}
	if len(f) < 2 || f[1] != "{" {
		return nil, 0, fmt.Errorf("class %s: expected '{'", cls.Name)
	}
	if len(f) > 2 {
		return nil, 0, fmt.Errorf("class %s: unexpected %q after '{' (fields go on following lines)", cls.Name, f[2])
	}
	for n, raw := range body {
		line := stripComment(raw)
		if line == "" {
			continue
		}
		if line == "}" {
			return cls, n + 1, nil
		}
		fs := strings.Fields(line)
		fld := Field{Name: fs[0]}
		rest := fs[1:]
		for len(rest) > 0 {
			switch rest[0] {
			case "volatile":
				fld.Volatile = true
				rest = rest[1:]
			case "=":
				if len(rest) < 2 {
					return nil, 0, fmt.Errorf("field %s.%s: missing initializer", cls.Name, fld.Name)
				}
				v, err := strconv.ParseInt(rest[1], 10, 64)
				if err != nil {
					return nil, 0, err
				}
				fld.Init = v
				rest = rest[2:]
			default:
				return nil, 0, fmt.Errorf("field %s.%s: unexpected %q", cls.Name, fld.Name, rest[0])
			}
		}
		cls.Fields = append(cls.Fields, fld)
	}
	return nil, 0, fmt.Errorf("class %s: missing '}'", cls.Name)
}

// parseThread: NAME priority N run METHOD
func parseThread(f []string) (ThreadDecl, error) {
	t := ThreadDecl{Priority: 5}
	if len(f) == 0 {
		return t, fmt.Errorf("thread needs a name")
	}
	t.Name = f[0]
	rest := f[1:]
	for len(rest) > 0 {
		switch rest[0] {
		case "priority":
			if len(rest) < 2 {
				return t, fmt.Errorf("thread %s: missing priority", t.Name)
			}
			v, err := strconv.Atoi(rest[1])
			if err != nil {
				return t, err
			}
			t.Priority = v
			rest = rest[2:]
		case "run":
			if len(rest) < 2 {
				return t, fmt.Errorf("thread %s: missing method", t.Name)
			}
			t.Method = rest[1]
			rest = rest[2:]
		default:
			return t, fmt.Errorf("thread %s: unexpected %q", t.Name, rest[0])
		}
	}
	if t.Method == "" {
		return t, fmt.Errorf("thread %s: no run method", t.Name)
	}
	return t, nil
}

// parseHandlerDecl: METHOD from LABEL to LABEL target LABEL catch CLASS
func parseHandlerDecl(f []string) (handlerDecl, error) {
	var h handlerDecl
	if len(f) != 9 || f[1] != "from" || f[3] != "to" || f[5] != "target" || f[7] != "catch" {
		return h, fmt.Errorf("handler wants: METHOD from L to L target L catch CLASS")
	}
	h.method, h.from, h.to, h.target, h.catch = f[0], f[2], f[4], f[6], f[8]
	return h, nil
}

// parseMethod: NAME [synchronized] [args N] [locals N] [returns] { body }
// It returns the method, its label table, and the number of body lines
// consumed.
func parseMethod(f []string, body []string) (*Method, map[string]int, int, error) {
	if len(f) < 1 {
		return nil, nil, 0, fmt.Errorf("method needs a name")
	}
	m := &Method{Name: f[0], Locals: 0}
	rest := f[1:]
	for len(rest) > 0 && rest[0] != "{" {
		switch rest[0] {
		case "synchronized":
			m.Synchronized = true
			rest = rest[1:]
		case "returns":
			m.Returns = true
			rest = rest[1:]
		case "args":
			if len(rest) < 2 {
				return nil, nil, 0, fmt.Errorf("method %s: missing args count", m.Name)
			}
			v, err := strconv.Atoi(rest[1])
			if err != nil {
				return nil, nil, 0, err
			}
			m.Args = v
			rest = rest[2:]
		case "locals":
			if len(rest) < 2 {
				return nil, nil, 0, fmt.Errorf("method %s: missing locals count", m.Name)
			}
			v, err := strconv.Atoi(rest[1])
			if err != nil {
				return nil, nil, 0, err
			}
			m.Locals = v
			rest = rest[2:]
		default:
			return nil, nil, 0, fmt.Errorf("method %s: unexpected %q", m.Name, rest[0])
		}
	}
	if len(rest) == 0 || rest[0] != "{" {
		return nil, nil, 0, fmt.Errorf("method %s: expected '{'", m.Name)
	}
	if len(rest) > 1 {
		return nil, nil, 0, fmt.Errorf("method %s: unexpected %q after '{' (body starts on the next line)", m.Name, rest[1])
	}
	if m.Locals < m.Args {
		m.Locals = m.Args
	}
	labels := map[string]int{}
	var pending []pendingBranch
	// Structured synchronized blocks: `sync N {` ... `}` lower to
	// LOAD N; MONITORENTER ... LOAD N; MONITOREXIT with the extent
	// recorded in m.Regions so the rewriter can build rollback scopes.
	type openSync struct {
		objLocal int
		loadPC   int
	}
	var syncStack []openSync
	for n, raw := range body {
		line := stripComment(raw)
		if line == "" {
			continue
		}
		if line == "}" {
			if len(syncStack) > 0 {
				os := syncStack[len(syncStack)-1]
				syncStack = syncStack[:len(syncStack)-1]
				m.Code = append(m.Code, Instr{Op: LOAD, A: os.objLocal})
				exitPC := len(m.Code)
				m.Code = append(m.Code, Instr{Op: MONITOREXIT})
				m.Regions = append(m.Regions, SyncRegion{EnterPC: os.loadPC, ExitPC: exitPC, ObjLocal: os.objLocal})
				continue
			}
			for _, pb := range pending {
				pc, ok := labels[pb.label]
				if !ok {
					return nil, nil, 0, fmt.Errorf("method %s: undefined label %q", m.Name, pb.label)
				}
				m.Code[pb.at].A = pc
			}
			return m, labels, n + 1, nil
		}
		if fs := strings.Fields(line); fs[0] == "sync" {
			if len(fs) != 3 || fs[2] != "{" {
				return nil, nil, 0, fmt.Errorf("method %s: sync wants `sync LOCAL {`", m.Name)
			}
			local, err := strconv.Atoi(fs[1])
			if err != nil {
				return nil, nil, 0, fmt.Errorf("method %s: sync local: %v", m.Name, err)
			}
			loadPC := len(m.Code)
			m.Code = append(m.Code, Instr{Op: LOAD, A: local})
			m.Code = append(m.Code, Instr{Op: MONITORENTER})
			syncStack = append(syncStack, openSync{objLocal: local, loadPC: loadPC})
			continue
		}
		if strings.HasSuffix(line, ":") && len(strings.Fields(line)) == 1 {
			labels[strings.TrimSuffix(line, ":")] = len(m.Code)
			continue
		}
		in, pb, err := parseInstr(line, len(m.Code))
		if err != nil {
			return nil, nil, 0, fmt.Errorf("method %s: %w", m.Name, err)
		}
		m.Code = append(m.Code, in)
		if pb != nil {
			pending = append(pending, *pb)
		}
	}
	return nil, nil, 0, fmt.Errorf("method %s: missing '}'", m.Name)
}

type pendingBranch struct {
	at    int
	label string
}

// parseInstr parses one instruction line.
func parseInstr(line string, pc int) (Instr, *pendingBranch, error) {
	f := strings.Fields(line)
	op, ok := opByName[f[0]]
	if !ok {
		return Instr{}, nil, fmt.Errorf("unknown opcode %q", f[0])
	}
	in := Instr{Op: op}
	arg := func(i int) (string, error) {
		if len(f) <= i {
			return "", fmt.Errorf("%s: missing operand", f[0])
		}
		return f[i], nil
	}
	switch op {
	case CONST:
		s, err := arg(1)
		if err != nil {
			return in, nil, err
		}
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return in, nil, err
		}
		in.V = v
	case LOAD, STORE:
		s, err := arg(1)
		if err != nil {
			return in, nil, err
		}
		v, err := strconv.Atoi(s)
		if err != nil {
			return in, nil, err
		}
		in.A = v
	case GOTO, IFNZ, IFZ:
		s, err := arg(1)
		if err != nil {
			return in, nil, err
		}
		if v, err := strconv.Atoi(s); err == nil {
			in.A = v
			return in, nil, nil
		}
		return in, &pendingBranch{at: pc, label: s}, nil
	case GETFIELD, PUTFIELD, GETSTATIC, PUTSTATIC, PUTFIELDRAW, PUTSTATICRAW:
		s, err := arg(1)
		if err != nil {
			return in, nil, err
		}
		if v, err := strconv.Atoi(s); err == nil {
			in.A = v
		} else {
			in.S = s // resolved later (Class.field or static name)
			in.A = -1
		}
	case NEWOBJ, INVOKE, THROW:
		s, err := arg(1)
		if err != nil {
			return in, nil, err
		}
		in.S = s
	case NATIVE:
		s, err := arg(1)
		if err != nil {
			return in, nil, err
		}
		// native NAME [nargs]
		in.S = s
		if len(f) > 2 {
			v, err := strconv.Atoi(f[2])
			if err != nil {
				return in, nil, err
			}
			in.A = v
		}
	case SPAWN:
		s, err := arg(1)
		if err != nil {
			return in, nil, err
		}
		// spawn METHOD [priority]  (priority defaults to 5, Java-style)
		in.S = s
		in.A = 5
		if len(f) > 2 {
			v, err := strconv.Atoi(f[2])
			if err != nil {
				return in, nil, err
			}
			in.A = v
		}
	}
	return in, nil, nil
}

// resolveSymbols turns Class.field / static-name operands into offsets.
func resolveSymbols(p *Program, m *Method) error {
	for i := range m.Code {
		in := &m.Code[i]
		if in.A != -1 || in.S == "" {
			continue
		}
		switch in.Op {
		case GETFIELD, PUTFIELD, PUTFIELDRAW:
			cls, fieldName, ok := strings.Cut(in.S, ".")
			if !ok {
				return fmt.Errorf("asm: %s@%d: field operand %q wants Class.field", m.Name, i, in.S)
			}
			c, okc := p.Class(cls)
			if !okc {
				return fmt.Errorf("asm: %s@%d: unknown class %q", m.Name, i, cls)
			}
			idx, okf := c.FieldIndex(fieldName)
			if !okf {
				return fmt.Errorf("asm: %s@%d: unknown field %q", m.Name, i, in.S)
			}
			in.A = idx
		case GETSTATIC, PUTSTATIC, PUTSTATICRAW:
			idx, ok := p.StaticIndex(in.S)
			if !ok {
				return fmt.Errorf("asm: %s@%d: unknown static %q", m.Name, i, in.S)
			}
			in.A = idx
		}
	}
	return nil
}

// resolveLabel resolves a label or absolute index within a method.
func resolveLabel(m *Method, labels map[string]int, s string) (int, error) {
	if v, err := strconv.Atoi(s); err == nil {
		return v, nil
	}
	if pc, ok := labels[s]; ok {
		return pc, nil
	}
	return 0, fmt.Errorf("asm: method %s: undefined label %q", m.Name, s)
}

// Disassemble renders a method for debugging.
func Disassemble(m *Method) string {
	var b strings.Builder
	fmt.Fprintf(&b, "method %s args=%d locals=%d maxstack=%d", m.Name, m.Args, m.Locals, m.MaxStack)
	if m.Synchronized {
		b.WriteString(" synchronized")
	}
	if m.Returns {
		b.WriteString(" returns")
	}
	b.WriteString("\n")
	for pc, in := range m.Code {
		fmt.Fprintf(&b, "  %3d: %v\n", pc, in)
	}
	for _, h := range m.Handlers {
		fmt.Fprintf(&b, "  handler [%d,%d) -> %d catch %s\n", h.From, h.To, h.Target, h.Catch)
	}
	return b.String()
}
