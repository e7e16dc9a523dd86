// Package lint is anonylint's rule table: the conventions of this
// repository that the compiler cannot see, each declared once — a
// name, a one-line summary, the packages it covers, and the function
// that checks one package (whose comment is the rule's full
// statement). cmd/anonylint and the fixture tests both run this table
// through the engine in internal/lint/analysis, so the command and the
// tests cannot disagree about what is checked where.
package lint

import "spatialanon/internal/lint/analysis"

// Rules is the suite, in the order findings are printed within a
// package. Five rules are whole-repository invariants (three of them
// bite only where their directives appear). The scoped ones cover every
// internal/ package and every command (rowconfine the examples too), so
// a new package is checked without anyone remembering to list it; the
// exemptions are:
//
//   - internal/lint, from all of them: the tooling is not under the
//     determinism contract, and an analyzer crashing on a malformed
//     AST is a programmer error by construction;
//   - internal/experiments, from detrand: it is a timing harness whose
//     every figure reads the wall clock around the run it measures;
//   - internal/anonmodel and internal/core, from rowconfine: they lay rows out.
//
// Commands drive the deterministic harnesses, so their randomness
// must be seeded too (their latency measurements carry
// anonylint:wall-clock), and they exit through run() + os.Exit, which
// panicpolicy permits.
var Rules = []analysis.Rule{
	{Name: "pagerconfine", Doc: "flag pager use reachable from worker goroutines", Run: pagerconfine},
	{Name: "kparam", Doc: "flag anonymity parameters accepted without a k < 2 rejection path", Run: kparam},
	{Name: "pubfreeze", Doc: "flag writes to published view types after construction", Run: pubfreeze},
	{Name: "noalloc", Doc: "flag allocation-inducing ops in anonylint:zero-alloc functions", Run: noalloc},
	{Name: "errwrap", Doc: "enforce errors.Is / %w discipline around taxonomy sentinels", Run: errwrap},
	{Name: "detrand", Doc: "flag wall-clock reads, global math/rand use and order-leaking map iteration", Run: detrand,
		Scope: analysis.Scope{In: []string{"internal", "cmd"}, Except: []string{"internal/experiments", "internal/lint"}}},
	{Name: "panicpolicy", Doc: "flag unjustified panics in library packages", Run: panicpolicy,
		Scope: analysis.Scope{In: []string{"internal", "cmd"}, Except: []string{"internal/lint"}}},
	{Name: "rowconfine", Doc: "flag reads and writes of anonmodel.Partition.Records outside the packages that lay rows out", Run: rowconfine,
		Scope: analysis.Scope{In: []string{"internal", "cmd", "examples"}, Except: []string{"internal/anonmodel", "internal/core", "internal/lint"}}},
}
