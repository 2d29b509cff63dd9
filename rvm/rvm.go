// Package rvm is the public face of the reproduction's bytecode toolchain:
// the assembler, the verifier, the paper's §3.1.1 rewriting passes and the
// two execution tiers. It lets a downstream user write programs for the
// simulated virtual machine without touching internal packages:
//
//	prog, err := rvm.Assemble(src)          // parse + resolve
//	prog, err = rvm.Rewrite(prog)           // inject rollback scopes
//	rt := revoke.NewRevocationRuntime(revoke.SchedConfig{})
//	env, err := rvm.Run(rt, prog, rvm.Options{Rewritten: true})
//
// See examples/bytecode/inversion.rvm for the assembler syntax and
// cmd/rvmrun for a complete driver.
package rvm

import (
	"repro/internal/analysis"
	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/rewrite"
)

// Program model types.
type (
	// Program is a complete assembled unit.
	Program = bytecode.Program
	// Method is one method body.
	Method = bytecode.Method
	// Class declares object fields.
	Class = bytecode.Class
	// Instr is one instruction.
	Instr = bytecode.Instr
	// Handler is one exception-table entry.
	Handler = bytecode.Handler
	// Op is an opcode.
	Op = bytecode.Op
	// Env is the execution environment hosting a program's threads.
	Env = interp.Env
	// Options configures execution (tier, output, instruction cost).
	Options = interp.Options
	// NativeFunc implements a native method.
	NativeFunc = interp.NativeFunc
	// Facts is the whole-program static analysis result: sections and
	// their static revocability, lock-order cycles, elidable stores.
	Facts = analysis.Facts
)

// Assemble parses the textual program form (see bytecode.Assemble for the
// grammar) and resolves symbols.
func Assemble(src string) (*Program, error) { return bytecode.Assemble(src) }

// MustAssemble is Assemble panicking on error.
func MustAssemble(src string) *Program { return bytecode.MustAssemble(src) }

// Verify checks the program and computes stack depths.
func Verify(p *Program) error { return bytecode.Verify(p) }

// Disassemble renders a method in assembler form.
func Disassemble(m *Method) string { return bytecode.Disassemble(m) }

// Rewrite applies the paper's transformations (synchronized-method
// lowering + rollback scopes) to a copy of the program.
func Rewrite(p *Program) (*Program, error) { return rewrite.Rewrite(p) }

// Analyze runs the whole-program static analysis (held regions, static
// revocability, lock-order cycles, per-instruction elision). Pass the
// result to execution via Options.Facts to pre-mark non-revocable monitors
// and keep fresh-target elision sound (allocation logging).
func Analyze(p *Program) (*Facts, error) { return analysis.Analyze(p) }

// ApplyStaticElision rewrites every store Analyze proved barrier-free to
// its raw form; returns the number rewritten. The program must then run
// with Options.Facts set to the same facts.
func ApplyStaticElision(p *Program, f *Facts) int { return rewrite.ApplyStaticElision(p, f) }

// NewEnv prepares an execution environment over a fresh runtime.
func NewEnv(rt *core.Runtime, p *Program, opts Options) (*Env, error) {
	return interp.NewEnv(rt, p, opts)
}

// Run builds an Env, spawns the program's declared threads and drives the
// runtime to completion.
func Run(rt *core.Runtime, p *Program, opts Options) (*Env, error) {
	return interp.Run(rt, p, opts)
}
