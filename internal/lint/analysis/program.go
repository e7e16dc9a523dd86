package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package of the module.
type Package struct {
	// Rel is the directory relative to the module root, slash-separated
	// ("" for the root package) — what a rule's Scope is matched against.
	Rel string
	// Files are the parsed non-test sources, in file-name order.
	Files []*ast.File
	Types *types.Package
}

// Program is every package one Load call reached: the ones its
// patterns named (Roots) and each module package they import, parsed
// once and type-checked once in import order, so a function or type
// is one types.Object wherever it is mentioned and a rule can follow a
// call, or ask for a directive, across a package boundary. Test files
// are excluded: the conventions anonylint enforces are about library
// and binary code.
type Program struct {
	Fset *token.FileSet
	// Info holds the type-checker's facts for the files of every
	// loaded package (its maps are keyed by AST node).
	Info *types.Info
	// Roots are the packages the patterns named, in pattern order.
	Roots []*Package
	// Directives is the registry the rules consult: the doc comment of
	// every function, method and type declared in a loaded package.
	Directives Directives

	modRoot, modPath string
	// std resolves what the module does not declare: the standard
	// library, from source.
	std   types.Importer
	pkgs  map[string]*Package // by import path; nil while being checked
	decls map[*types.Func]*ast.FuncDecl
	files map[*token.File]*ast.File
	// lines memoizes DirectiveLines per marker and file.
	lines map[lineKey]map[int]bool
}

type lineKey struct {
	marker string
	file   *token.File
}

// Directives maps a declared function, method or type to its doc
// comment (for a type, its own or that of a single-spec declaration).
type Directives map[types.Object]*ast.CommentGroup

// Has reports whether obj's declaration carries directive.
func (d Directives) Has(obj types.Object, directive string) bool {
	return DeclDirective(d[obj], directive)
}

// Load expands go-style package patterns relative to dir and loads
// every matched package. Supported forms: "./..." and "all" (the whole
// module below dir), "./x/..." (a subtree), and plain relative
// directories ("./internal/query"; one without Go files is skipped).
// Directories named testdata, vendor or starting with "." or "_" are
// never matched by "..." patterns, mirroring the go tool; naming one
// outright loads it, which is how fixtures are reached.
func Load(dir string, patterns []string) (*Program, error) {
	modRoot, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	prog := &Program{
		Fset: fset,
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		},
		Directives: make(Directives),
		modRoot:    modRoot,
		modPath:    modPath,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		decls:      make(map[*types.Func]*ast.FuncDecl),
		files:      make(map[*token.File]*ast.File),
		lines:      make(map[lineKey]map[int]bool),
	}
	var dirs []string
	for _, pat := range patterns {
		if pat == "all" {
			pat = "./..."
		}
		root, tree := strings.CutSuffix(pat, "...")
		root = filepath.Join(dir, root)
		if !tree {
			dirs = append(dirs, root)
			continue
		}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			dirs = append(dirs, path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	seen := make(map[*Package]bool)
	for _, d := range dirs {
		abs, err := filepath.Abs(d)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(modRoot, abs)
		if err != nil {
			return nil, err
		}
		pkg, err := prog.load(strings.TrimSuffix(modPath+"/"+filepath.ToSlash(rel), "/."))
		if err != nil {
			return nil, err
		}
		if pkg != nil && !seen[pkg] {
			seen[pkg] = true
			prog.Roots = append(prog.Roots, pkg)
		}
	}
	return prog, nil
}

// Import implements types.Importer: a module package comes from the
// program, loading it on first mention, so each is checked once and
// keeps its syntax; everything else is the standard library's.
func (prog *Program) Import(path string) (*types.Package, error) {
	if path != prog.modPath && !strings.HasPrefix(path, prog.modPath+"/") {
		return prog.std.Import(path)
	}
	pkg, err := prog.load(path)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("load %s: no Go files", path)
	}
	return pkg.Types, nil
}

// load parses and type-checks the module package with the given import
// path, once. A directory with no buildable non-test Go files yields
// (nil, nil); a directory holding a package plus its external test
// package keeps only the former.
func (prog *Program) load(path string) (*Package, error) {
	if pkg, ok := prog.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("load %s: import cycle", path)
		}
		return pkg, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, prog.modPath), "/")
	dir := filepath.Join(prog.modRoot, filepath.FromSlash(rel))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Rel: rel}
	for _, e := range entries { // ReadDir sorts by name
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if match, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !match {
			continue
		}
		f, err := parser.ParseFile(prog.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	prog.pkgs[path] = nil
	var typeErrs []string
	conf := types.Config{
		Importer: prog,
		Error:    func(err error) { typeErrs = append(typeErrs, err.Error()) },
	}
	pkg.Types, _ = conf.Check(path, prog.Fset, pkg.Files, prog.Info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("load %s: type errors:\n\t%s", path, strings.Join(typeErrs, "\n\t"))
	}
	prog.pkgs[path] = pkg
	prog.index(pkg)
	return pkg, nil
}

// index records pkg's declarations: where each function's body is,
// and what each function's and type's doc comment says.
func (prog *Program) index(pkg *Package) {
	for _, f := range pkg.Files {
		prog.files[prog.Fset.File(f.FileStart)] = f
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if fn, ok := prog.Info.Defs[d.Name].(*types.Func); ok {
					prog.decls[fn] = d
					prog.Directives[fn] = d.Doc
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					// The doc comment attaches to the TypeSpec in a grouped
					// declaration, but to the GenDecl for the common
					// single-spec `type Name struct { ... }` form.
					doc := ts.Doc
					if doc == nil && len(d.Specs) == 1 {
						doc = d.Doc
					}
					prog.Directives[prog.Info.Defs[ts.Name]] = doc
				}
			}
		}
	}
}

// Decl returns the declaration of a function or method of a loaded
// package, or nil.
func (prog *Program) Decl(fn *types.Func) *ast.FuncDecl { return prog.decls[fn] }

// Run applies each rule to every root package its scope covers and
// returns the findings in package order, rule order within a package,
// position order within a rule.
func (prog *Program) Run(rules []Rule) []Finding {
	var out []Finding
	for _, pkg := range prog.Roots {
		for _, r := range rules {
			if r.Scope.Covers(pkg.Rel) {
				out = append(out, prog.Check(pkg, r)...)
			}
		}
	}
	return out
}

// Check applies one rule to one package, whatever the rule's scope.
func (prog *Program) Check(pkg *Package, r Rule) []Finding {
	pass := &Pass{Program: prog, Pkg: pkg, rule: r.Name}
	r.Run(pass)
	sort.SliceStable(pass.found, func(i, j int) bool { return pass.found[i].Pos < pass.found[j].Pos })
	return pass.found
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, path string, err error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("load: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("load: no go.mod above %s", dir)
		}
		d = parent
	}
}
