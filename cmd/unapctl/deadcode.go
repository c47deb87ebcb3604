package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// symbol is one package-level declaration or method of the module.
type symbol struct {
	name string   // "unap2p/internal/chaos.Report.Err"
	node ast.Node // its declaration: what mentioning it makes reachable
	live bool
}

// deadcode type-checks every non-test file of the module under root in
// one universe — bench/, a nested module that is all benchmark surface,
// with its tests — and walks the reference graph from every main, init,
// blank declaration and all of bench/. It loads the module's packages
// from source itself; everything else comes from one shared importer.
type deadcode struct {
	fset         *token.FileSet
	root, module string
	std          types.Importer
	info         types.Info
	pkgs         map[string]*types.Package
	syms         map[types.Object]*symbol
	roots        []ast.Node
	ifaces       map[*types.Interface]bool // what a method can be called through
	called       map[*types.Func]bool      // module interface methods reached code calls
	liveTypes    []*types.TypeName         // in the order they became live
}

func (d *deadcode) Import(path string) (*types.Package, error) {
	if path != d.module && !strings.HasPrefix(path, d.module+"/") {
		p, err := d.std.Import(path)
		if err == nil {
			for _, name := range p.Scope().Names() {
				d.callable(p.Scope().Lookup(name).Type())
			}
		}
		return p, err
	}
	if p, ok := d.pkgs[path]; ok {
		return p, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, d.module), "/")
	bench := rel == "bench" || strings.HasPrefix(rel, "bench/")
	parsed, err := parser.ParseDir(d.fset, filepath.Join(d.root, rel), func(fi fs.FileInfo) bool {
		return bench || !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	var files []*ast.File
	for _, p := range parsed {
		for _, f := range p.Files {
			files = append(files, f)
		}
	}
	pkg, cerr := (&types.Config{Importer: d}).Check(path, d.fset, files, &d.info)
	if err != nil || cerr != nil {
		return nil, fmt.Errorf("%s: %v %v", path, err, cerr)
	}
	d.pkgs[path] = pkg
	declare := func(node ast.Node, ids ...*ast.Ident) {
		for _, id := range ids {
			obj := d.info.Defs[id]
			f, _ := obj.(*types.Func)
			if bench || id.Name == "_" || id.Name == "init" || id.Name == "main" && pkg.Name() == "main" {
				d.roots = append(d.roots, node)
			} else if f != nil { // pkg.Func, or (*pkg.T).Method as pkg.T.Method
				d.syms[obj] = &symbol{name: strings.NewReplacer("(", "", ")", "", "*", "").Replace(f.FullName()), node: node}
			} else {
				d.syms[obj] = &symbol{name: path + "." + id.Name, node: node}
			}
		}
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				declare(decl, decl.Name)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declare(spec, spec.Name)
					case *ast.ValueSpec:
						declare(spec, spec.Names...)
					}
				}
			}
		}
	}
	return pkg, nil
}

// callable records t if it is an interface with methods.
func (d *deadcode) callable(t types.Type) {
	if i, ok := t.Underlying().(*types.Interface); ok && types.IsInterface(t) && i.NumMethods() > 0 {
		d.ifaces[i] = true
	}
}

// walk makes everything node mentions live.
func (d *deadcode) walk(node ast.Node) {
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			d.reach(d.info.Uses[id])
		}
		return true
	})
}

// reach makes obj live, and with it what its declaration mentions. A
// type takes along the methods it answers interface calls with: every
// method of an interface declared outside the module that it implements
// (sort.Interface, fmt.Stringer, …), since code there may call any of
// them, but of a module interface only the methods reached code calls
// through it. Calling such a method the first time re-checks the types
// already live.
func (d *deadcode) reach(obj types.Object) {
	if f, ok := obj.(*types.Func); ok {
		f = f.Origin() // a generic's method, not its instantiation
		if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) && d.inModule(f) {
			if !d.called[f] {
				d.called[f] = true
				for _, tn := range d.liveTypes {
					d.dispatch(tn, f)
				}
			}
			return
		}
		obj = f
	}
	s := d.syms[obj]
	if s == nil || s.live {
		return
	}
	s.live = true
	d.walk(s.node)
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return
	}
	d.liveTypes = append(d.liveTypes, tn)
	for i := range d.ifaces {
		for m := 0; m < i.NumMethods(); m++ {
			if f := i.Method(m); !d.inModule(f) || d.called[f] {
				d.dispatch(tn, f)
			}
		}
	}
}

// dispatch reaches tn's implementation of interface method f, if tn or
// *tn implements the interface f belongs to.
func (d *deadcode) dispatch(tn *types.TypeName, f *types.Func) {
	i := f.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	if types.Implements(tn.Type(), i) || types.Implements(types.NewPointer(tn.Type()), i) {
		m, _, _ := types.LookupFieldOrMethod(tn.Type(), true, tn.Pkg(), f.Name())
		d.reach(m)
	}
}

// inModule reports whether f is declared in the module.
func (d *deadcode) inModule(f *types.Func) bool {
	p := f.Pkg()
	return p != nil && (p.Path() == d.module || strings.HasPrefix(p.Path(), d.module+"/"))
}

// cmdDeadcode prints every symbol of the module under args[0] (default
// ".") that no root reaches, beside its verdict from <root>/deadcode.keep
// (symbol<TAB>verdict<TAB>reason per line, # for comments), and returns
// how many have no verdict plus how many verdicts name no dead symbol.
func cmdDeadcode(args []string, w io.Writer) (int, error) {
	root := "."
	if len(args) > 0 {
		root = args[0]
	}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	fields := strings.Fields(string(mod))
	if err != nil || len(fields) < 2 || fields[0] != "module" {
		return 0, fmt.Errorf("%s: no module line (%v)", filepath.Join(root, "go.mod"), err)
	}
	fset := token.NewFileSet()
	d := &deadcode{fset: fset, root: root, module: fields[1], std: importer.ForCompiler(fset, "source", nil),
		info: types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		pkgs: map[string]*types.Package{}, syms: map[types.Object]*symbol{}, ifaces: map[*types.Interface]bool{},
		called: map[*types.Func]bool{}}
	err = filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if n := e.Name(); err == nil && e.IsDir() && path != root && (n[0] == '.' || n[0] == '_' || n == "testdata") {
			return filepath.SkipDir
		}
		if err == nil && strings.HasSuffix(path, ".go") {
			rel, _ := filepath.Rel(root, filepath.Dir(path))
			_, err = d.Import(strings.TrimSuffix(d.module+"/"+filepath.ToSlash(rel), "/."))
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	for _, tv := range d.info.Types {
		d.callable(tv.Type)
	}
	for _, n := range d.roots {
		d.walk(n)
	}
	keep, err := os.ReadFile(filepath.Join(root, "deadcode.keep"))
	if err != nil && !os.IsNotExist(err) {
		return 0, err
	}
	verdict := map[string]string{}
	for _, line := range strings.Split(string(keep), "\n") {
		if f := strings.Split(line, "\t"); len(f) >= 2 && !strings.HasPrefix(line, "#") {
			verdict[f[0]] = f[1]
		}
	}
	var out []string
	dead, lines, bad := 0, 0, 0
	for _, s := range d.syms {
		if s.live {
			continue
		}
		name := strings.TrimPrefix(s.name, d.module+"/")
		v := verdict[name]
		if v == "" {
			v, bad = "UNTRIAGED", bad+1
		}
		delete(verdict, name)
		from, to := d.fset.Position(s.node.Pos()), d.fset.Position(s.node.End())
		out = append(out, fmt.Sprintf("%-58s %-13s %4d  %s:%d", name, v, to.Line-from.Line+1, from.Filename, from.Line))
		dead, lines = dead+1, lines+to.Line-from.Line+1
	}
	for name := range verdict {
		out = append(out, fmt.Sprintf("%-58s STALE: reached from a root, or gone", name))
		bad++
	}
	sort.Strings(out)
	fmt.Fprintf(w, "%s\n%d symbols, %d lines only tests reach; %d un-triaged or stale\n", strings.Join(out, "\n"), dead, lines, bad)
	return bad, nil
}
