package bytecode

import (
	"strings"
	"testing"
)

// TestAssembleErrorMessages checks each parse-failure path produces a
// located, descriptive error.
func TestAssembleErrorMessages(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"static x = notanumber", "invalid syntax"},
		{"static x volatile extra", "unexpected"},
		{"class C {\n f = bad\n}", "invalid syntax"},
		{"class C {\n f extra\n}", "unexpected"},
		{"class C {\n f\n", "missing '}'"},
		{"class C junk {\n}", "expected '{'"},
		{"class C { inline }", "unexpected"},
		{"thread t priority x run m", "invalid syntax"},
		{"thread t priority", "missing priority"},
		{"thread t run", "missing method"},
		{"thread t oops m", "unexpected"},
		{"method m args {\n}", "invalid syntax"},
		{"method m locals {\n}", "invalid syntax"},
		{"method m wrongtoken {\n return\n}", "unexpected"},
		{"method m { trailing\n return\n}", "body starts on the next line"},
		{"method m locals 0 {\n const\n return\n}", "missing operand"},
		{"method m locals 0 {\n load\n return\n}", "missing operand"},
		{"method m locals 0 {\n sync {\n }\n return\n}", "sync wants"},
		{"method m locals 1 {\n sync x {\n }\n return\n}", "invalid syntax"},
		{"method m locals 1 {\n getfield NoDot\n return\n}", "wants Class.field"},
		{"method m locals 1 {\n getfield No.f\n return\n}", "unknown class"},
		{"class C {\n g\n}\nmethod m locals 1 {\n getfield C.missing\n return\n}", "unknown field"},
		{"method m locals 0 {\n getstatic nope\n return\n}", "unknown static"},
		{"handler nosuch from a to b target c catch X", "unknown method"},
		{"method m locals 0 {\n return\n}\nhandler m from nowhere to 0 target 0 catch X", "undefined label"},
	}
	for _, c := range cases {
		_, err := Assemble(c.src)
		if err == nil {
			t.Errorf("Assemble(%q): no error, want %q", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Assemble(%q): error %q, want substring %q", c.src, err, c.want)
		}
	}
}

// TestAssembleNumericOperandForms: field/static operands as raw offsets and
// branch targets as absolute indices.
func TestAssembleNumericOperandForms(t *testing.T) {
	p := MustAssemble(`
static s = 0
class C {
    f
}
method m locals 1 {
    newobj C
    store 0
    load 0
    const 1
    putfield 0
    const 2
    putstatic 0
    goto 7
    return
}
`)
	m, _ := p.Method("m")
	if m.Code[4].Op != PUTFIELD || m.Code[4].A != 0 {
		t.Errorf("numeric putfield = %+v", m.Code[4])
	}
	if m.Code[7].Op != GOTO && m.Code[7].Op != RETURN {
		t.Errorf("unexpected code layout")
	}
	if err := Verify(p); err != nil {
		t.Fatal(err)
	}
}

// TestAssembleRawStoreMnemonics round-trips the raw store opcodes.
func TestAssembleRawStoreMnemonics(t *testing.T) {
	p := MustAssemble(`
static s = 0
class C {
    f
}
method m locals 1 {
    newobj C
    store 0
    load 0
    const 1
    putfield.raw C.f
    const 2
    putstatic.raw s
    const 1
    newarr
    const 0
    const 3
    astore.raw
    return
}
`)
	if err := Verify(p); err != nil {
		t.Fatal(err)
	}
	m, _ := p.Method("m")
	ops := map[Op]bool{}
	for _, in := range m.Code {
		ops[in.Op] = true
	}
	for _, want := range []Op{PUTFIELDRAW, PUTSTATICRAW, ASTORERAW} {
		if !ops[want] {
			t.Errorf("missing %v", want)
		}
	}
}

// TestVerifyHandlerValidation covers the handler-range checks.
func TestVerifyHandlerValidation(t *testing.T) {
	mk := func(h Handler) *Program {
		return &Program{Methods: []*Method{{
			Name: "m", Locals: 0,
			Code:     []Instr{{Op: NOP}, {Op: RETURN}},
			Handlers: []Handler{h},
		}}}
	}
	bad := []Handler{
		{From: -1, To: 1, Target: 0, Catch: "X"},
		{From: 1, To: 1, Target: 0, Catch: "X"},
		{From: 0, To: 5, Target: 0, Catch: "X"},
		{From: 0, To: 1, Target: 9, Catch: "X"},
	}
	for i, h := range bad {
		if err := Verify(mk(h)); err == nil {
			t.Errorf("handler case %d accepted: %+v", i, h)
		}
	}
}

// TestVerifySaveRestoreBounds covers the save/restore local-range checks.
func TestVerifySaveRestoreBounds(t *testing.T) {
	p := &Program{Methods: []*Method{{
		Name: "m", Locals: 1,
		Code: []Instr{
			{Op: CONST, V: 1},
			{Op: SAVESTACK, A: 0, V: 5}, // locals [0,5) out of range
			{Op: POP},
			{Op: RETURN},
		},
	}}}
	if err := Verify(p); err == nil {
		t.Fatal("out-of-range savestack accepted")
	}
	p.Methods[0].Code[1] = Instr{Op: SAVESTACK, A: 0, V: 0}
	p.Methods[0].Code[1].V = 2 // depth mismatch: stack has 1
	p.Methods[0].Locals = 4
	if err := Verify(p); err == nil {
		t.Fatal("savestack depth mismatch accepted")
	}
}

// TestVerifyNativeArity rejects negative arity.
func TestVerifyNativeArity(t *testing.T) {
	p := &Program{Methods: []*Method{{
		Name: "m", Locals: 0,
		Code: []Instr{{Op: NATIVE, S: "x", A: -1}, {Op: POP}, {Op: RETURN}},
	}}}
	if err := Verify(p); err == nil {
		t.Fatal("negative native arity accepted")
	}
}

// TestVerifyThrowValidation rejects empty and reserved classes.
func TestVerifyThrowValidation(t *testing.T) {
	for _, cls := range []string{"", RollbackClass} {
		p := &Program{Methods: []*Method{{
			Name: "m", Locals: 0,
			Code: []Instr{{Op: THROW, S: cls}},
		}}}
		if err := Verify(p); err == nil {
			t.Errorf("throw %q accepted", cls)
		}
	}
}

// TestAssembleRejectsDuplicateNames: a class, static, method or thread
// name declared twice is an assembly error naming both declarations'
// lines. Names of different kinds may coincide (a thread is usually named
// after its entry method).
func TestAssembleRejectsDuplicateNames(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		// Once crashed analysis.(*Facts).computeElision: the second method
		// shadowed the first in the name-keyed fact tables.
		{"method", `static flag
thread t priority 5 run e
method e {
const 0
putstatic flag
return
}
method e {
return
}`, `asm: line 8: duplicate method "e" (first declared at line 3)`},
		// Once made rvmrun -critpath fail with a duplicate thread-start,
		// the event stream naming both threads "t".
		{"thread", `thread t priority 2 run body
thread t priority 8 run body
method body {
return
}`, `asm: line 2: duplicate thread "t" (first declared at line 1)`},
		{"static", "static s\n# a comment line\nstatic s volatile = 1", `asm: line 3: duplicate static "s" (first declared at line 1)`},
		{"class", "class C {\n f\n}\nclass C {\n g\n}", `asm: line 4: duplicate class "C" (first declared at line 1)`},
	}
	for _, c := range cases {
		_, err := Assemble(c.src)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: Assemble error %v, want %q", c.name, err, c.want)
		}
	}

	// One name across kinds is fine.
	if _, err := Assemble("static m\nclass m {\n f\n}\nthread m priority 5 run m\nmethod m {\nreturn\n}"); err != nil {
		t.Errorf("one name across kinds: %v", err)
	}
}
