package emtrust_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryDeclarationReachable keeps dead code from growing back. It
// type-checks the module from source (the perfbench module included)
// and reports every function, method and type under internal/ that none
// of these roots reaches through references:
//
//   - main and init of every main package, and every package-level
//     variable and init function elsewhere (they run whenever a binary
//     links the package);
//   - every exported identifier of package emtrust, plus the exported
//     methods of the types it re-exports by alias;
//   - any production declaration that another package's tests use.
//
// A method is reached with its receiver type when its name matches a
// method of an interface that production code declares or imports from
// the standard library, since a call through that interface leaves no
// static reference. Constants and variables are not reported.
//
// Code that only the owning package's tests use belongs in its _test.go
// files; a hook that another package's tests call counts as reached.
func TestEveryDeclarationReachable(t *testing.T) {
	m, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range m.unreachable() {
		p := m.fset.Position(d.pos)
		if rel, err := filepath.Rel(m.root, p.Filename); err == nil {
			p.Filename = rel
		}
		t.Errorf("%s:%d: %s %s is reached by no binary, no emtrust API and no other package's tests",
			p.Filename, p.Line, d.kind, d.name)
	}
}

// modPkg is one directory's package: its production files and, kept
// apart, its in-package and external test files with the type
// information each was checked with.
type modPkg struct {
	dir, path   string
	prod        []*ast.File
	test, xtest []*ast.File
	types       *types.Package // production files only
	info        *types.Info
	testInfo    map[*ast.File]*types.Info
}

// decl is one package-level declaration of a production file, keyed by
// the position of its name.
type decl struct {
	pos      token.Pos
	kind     string // "func", "method", "type", "var" or "const"
	name     string
	node     ast.Node // walked for the declarations it references
	info     *types.Info
	internal bool // declared under internal/
}

// module is the type-checked module with the reference graph over its
// production declarations.
type module struct {
	root, path string
	fset       *token.FileSet
	std        types.Importer
	pkgs       map[string]*modPkg // by import path
	// underTest, while an external test package is checked, resolves
	// the package under test to its build with in-package test files.
	underTest  map[string]*types.Package
	ifaceNames map[string]bool
	errs       []error

	decls   map[token.Pos]*decl
	methods map[token.Pos][]*decl // by receiver type
}

// loadModule parses and type-checks every package under root, the
// module's directory, skipping dot-directories and testdata.
func loadModule(root string) (*module, error) {
	m, err := parseModule(root)
	if err != nil {
		return nil, err
	}
	// Production packages first, so that no package's check starts while
	// checkTests resolves a package under test to its test build.
	for _, p := range m.pkgs {
		m.check(p)
	}
	for _, p := range m.pkgs {
		m.checkTests(p)
	}
	if len(m.errs) > 0 {
		return nil, fmt.Errorf("type-checking the module: %v", m.errs)
	}
	for _, p := range m.pkgs {
		for _, f := range p.prod {
			m.addDecls(p, f)
		}
		for _, imp := range p.types.Imports() {
			if m.pkgs[imp.Path()] == nil {
				m.addInterfaceNames(imp)
			}
		}
	}
	return m, nil
}

// parseModule parses every package under root, the module's directory,
// skipping dot-directories and testdata, without type-checking.
func parseModule(root string) (*module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	first := strings.SplitN(string(gomod), "\n", 2)[0]
	fset := token.NewFileSet()
	m := &module{
		root:       root,
		path:       strings.TrimSpace(strings.TrimPrefix(first, "module")),
		fset:       fset,
		std:        importer.ForCompiler(fset, "gc", nil),
		pkgs:       map[string]*modPkg{},
		ifaceNames: map[string]bool{"Error": true}, // the predeclared error
		decls:      map[token.Pos]*decl{},
		methods:    map[token.Pos][]*decl{},
	}
	err = filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if path != root && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
			return filepath.SkipDir
		}
		return m.parseDir(path)
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

func (m *module) parseDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	rel, err := filepath.Rel(m.root, dir)
	if err != nil {
		return err
	}
	p := &modPkg{dir: dir, path: m.path, testInfo: map[*ast.File]*types.Info{}}
	if rel != "." {
		p.path += "/" + filepath.ToSlash(rel)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		switch {
		case strings.HasSuffix(f.Name.Name, "_test"):
			p.xtest = append(p.xtest, f)
		case strings.HasSuffix(name, "_test.go"):
			p.test = append(p.test, f)
		default:
			p.prod = append(p.prod, f)
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, fld := range it.Methods.List {
						for _, id := range fld.Names {
							m.ifaceNames[id.Name] = true
						}
					}
				}
				return true
			})
		}
	}
	if len(p.prod)+len(p.test)+len(p.xtest) > 0 {
		m.pkgs[p.path] = p
	}
	return nil
}

// Import resolves module packages to their production build (or, for
// the package under test, its build with in-package test files) and
// anything else to the standard library's export data.
func (m *module) Import(path string) (*types.Package, error) {
	if tp := m.underTest[path]; tp != nil {
		return tp, nil
	}
	if p := m.pkgs[path]; p != nil {
		m.check(p)
		return p.types, nil
	}
	return m.std.Import(path)
}

// addInterfaceNames records the method names of the interfaces a
// standard library package that production code imports declares.
func (m *module) addInterfaceNames(tp *types.Package) {
	for _, name := range tp.Scope().Names() {
		obj, ok := tp.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if it, ok := obj.Type().Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				m.ifaceNames[it.Method(i).Name()] = true
			}
		}
	}
}

func (m *module) check(p *modPkg) {
	if p.types == nil {
		p.types, p.info = m.typeCheck(p.path, p.prod)
	}
}

// checkTests checks the in-package test files together with the
// production files, then the external test files against that build.
func (m *module) checkTests(p *modPkg) {
	if len(p.test) > 0 {
		files := append(append([]*ast.File(nil), p.prod...), p.test...)
		tp, info := m.typeCheck(p.path, files)
		for _, f := range p.test {
			p.testInfo[f] = info
		}
		m.underTest = map[string]*types.Package{p.path: tp}
		defer func() { m.underTest = nil }()
	}
	if len(p.xtest) > 0 {
		_, info := m.typeCheck(p.path+"_test", p.xtest)
		for _, f := range p.xtest {
			p.testInfo[f] = info
		}
	}
}

func (m *module) typeCheck(path string, files []*ast.File) (*types.Package, *types.Info) {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
	if len(files) == 0 {
		return types.NewPackage(path, ""), info
	}
	conf := types.Config{Importer: m, Error: func(err error) { m.errs = append(m.errs, err) }}
	tp, _ := conf.Check(path, m.fset, files, info)
	return tp, info
}

// addDecls indexes the package-level declarations of one production
// file.
func (m *module) addDecls(p *modPkg, f *ast.File) {
	internal := strings.HasPrefix(p.path, m.path+"/internal/")
	add := func(id *ast.Ident, kind, name string, node ast.Node) *decl {
		d := &decl{pos: id.Pos(), kind: kind, name: name, node: node, info: p.info, internal: internal}
		m.decls[d.pos] = d
		return d
	}
	for _, gd := range f.Decls {
		switch gd := gd.(type) {
		case *ast.FuncDecl:
			if gd.Recv == nil {
				add(gd.Name, "func", gd.Name.Name, gd)
				continue
			}
			recv := receiverType(p.info.Defs[gd.Name])
			d := add(gd.Name, "method", recv.Name()+"."+gd.Name.Name, gd)
			m.methods[recv.Pos()] = append(m.methods[recv.Pos()], d)
		case *ast.GenDecl:
			for _, spec := range gd.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add(spec.Name, "type", spec.Name.Name, spec)
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						add(id, gd.Tok.String(), id.Name, spec)
					}
				}
			}
		}
	}
}

// receiverType returns the type name a method is declared on.
func receiverType(obj types.Object) *types.TypeName {
	t := obj.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.(*types.Named).Origin().Obj()
}

// unreachable walks the reference graph from the roots and returns the
// in-scope declarations it never visits, in file order.
func (m *module) unreachable() []*decl {
	reached := map[token.Pos]bool{}
	var queue []*decl
	reach := func(pos token.Pos) {
		if d := m.decls[pos]; d != nil && !reached[pos] {
			reached[pos] = true
			queue = append(queue, d)
		}
	}
	for _, d := range m.decls {
		if d.kind == "var" || d.kind == "func" && d.name == "init" {
			reach(d.pos)
		}
	}
	for _, p := range m.pkgs {
		switch {
		case p.types.Name() == "main":
			if main := p.types.Scope().Lookup("main"); main != nil {
				reach(main.Pos())
			}
		case p.path == m.path:
			m.rootAPI(p.types, reach)
		}
		// Production declarations of other packages used by p's tests.
		for f, info := range p.testInfo {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
					pos := info.Uses[id].Pos()
					if d := m.decls[pos]; d != nil && filepath.Dir(m.fset.File(pos).Name()) != p.dir {
						reach(pos)
					}
				}
				return true
			})
		}
	}
	for len(queue) > 0 {
		d := queue[0]
		queue = queue[1:]
		ast.Inspect(d.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := d.info.Uses[id]; obj != nil {
					reach(obj.Pos())
				}
			}
			return true
		})
		if d.kind == "type" {
			for _, md := range m.methods[d.pos] {
				if m.ifaceNames[md.node.(*ast.FuncDecl).Name.Name] {
					reach(md.pos)
				}
			}
		}
	}
	var out []*decl
	for pos, d := range m.decls {
		if d.internal && !reached[pos] && d.kind != "var" && d.kind != "const" {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// rootAPI reaches every exported identifier of the root package and the
// exported methods (promoted ones included) of its types, aliased ones
// included.
func (m *module) rootAPI(tp *types.Package, reach func(token.Pos)) {
	scope := tp.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		reach(obj.Pos())
		if _, ok := obj.(*types.TypeName); !ok {
			continue
		}
		mset := types.NewMethodSet(types.NewPointer(obj.Type()))
		for i := 0; i < mset.Len(); i++ {
			if fn := mset.At(i).Obj(); fn.Exported() {
				reach(fn.(*types.Func).Origin().Pos())
			}
		}
	}
}
