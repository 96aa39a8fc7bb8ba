package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// unit is one type-checked body of code an analyzer pass runs over: a
// package's non-test files, the package augmented with its in-package
// test files, or its external _test package.
type unit struct {
	pkgPath string // import path of the underlying package
	dir     string
	files   []*ast.File
	pkg     *types.Package
	info    *types.Info
}

// loader resolves and type-checks packages from source. It is the
// module-aware source importer of the framework: module-local import
// paths map onto the module tree, everything else resolves against
// GOROOT/src (with the std vendor directory as fallback), matching the
// repo's zero-dependency policy. Loading is single-threaded, and so is
// the analysis that follows over the loaded units.
type loader struct {
	fset    *token.FileSet
	ctxt    build.Context
	modRoot string
	modPath string
	goroot  string
	pkgs    map[string]*types.Package
	loading map[string]bool

	// local retains the parsed files and type info of module-local
	// packages, so a package imported as a dependency and later analyzed
	// as a unit is one and the same *types.Package (anything else breaks
	// type identity across units).
	local map[string]*unit
}

// newLoader finds the module root at or above dir and returns a loader
// for it.
func newLoader(dir string) (*loader, error) {
	root, path, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	ctxt := build.Default
	ctxt.CgoEnabled = false // pure-Go variants only; nothing here needs cgo
	return &loader{
		fset:    token.NewFileSet(),
		ctxt:    ctxt,
		modRoot: root,
		modPath: path,
		goroot:  runtime.GOROOT(),
		pkgs:    map[string]*types.Package{},
		loading: map[string]bool{},
		local:   map[string]*unit{},
	}, nil
}

// findModule walks upward from dir to the enclosing go.mod and reads the
// module path from it.
func findModule(dir string) (root, path string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: no module line in %s/go.mod", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("lint: no go.mod at or above %s", abs)
		}
	}
}

// relPos converts a position to a module-root-relative slash path plus
// line and column, the stable coordinates diagnostics use.
func (ld *loader) relPos(pos token.Pos) (string, int, int) {
	p := ld.fset.Position(pos)
	rel, err := filepath.Rel(ld.modRoot, p.Filename)
	if err != nil {
		rel = p.Filename
	}
	return filepath.ToSlash(rel), p.Line, p.Column
}

// Import implements types.Importer over the module tree and GOROOT
// sources.
func (ld *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := ld.pkgs[path]; ok {
		return p, nil
	}
	if ld.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	ld.loading[path] = true
	defer delete(ld.loading, path)

	dir, err := ld.resolveDir(path)
	if err != nil {
		return nil, err
	}
	bp, err := ld.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %v", path, err)
	}
	files, err := ld.parseFiles(dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	// Keep analysis facts for module-local packages: if this package is
	// later requested as a unit it must be this exact *types.Package.
	var info *types.Info
	if path == ld.modPath || strings.HasPrefix(path, ld.modPath+"/") {
		info = newInfo()
	}
	pkg, err := ld.check(ld, path, files, info)
	if err != nil {
		return nil, err
	}
	ld.pkgs[path] = pkg
	if info != nil {
		ld.local[path] = &unit{pkgPath: path, dir: dir, files: files, pkg: pkg, info: info}
	}
	return pkg, nil
}

// resolveDir maps an import path to a source directory.
func (ld *loader) resolveDir(path string) (string, error) {
	if path == ld.modPath {
		return ld.modRoot, nil
	}
	if rest, ok := strings.CutPrefix(path, ld.modPath+"/"); ok {
		return filepath.Join(ld.modRoot, filepath.FromSlash(rest)), nil
	}
	for _, d := range []string{
		filepath.Join(ld.goroot, "src", filepath.FromSlash(path)),
		filepath.Join(ld.goroot, "src", "vendor", filepath.FromSlash(path)),
	} {
		if st, err := os.Stat(d); err == nil && st.IsDir() {
			return d, nil
		}
	}
	return "", fmt.Errorf("lint: cannot resolve import %q (module %q, GOROOT %q)", path, ld.modPath, ld.goroot)
}

func (ld *loader) parseFiles(dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks files as package path against imp, filling info.
func (ld *loader) check(imp types.Importer, path string, files []*ast.File, info *types.Info) (*types.Package, error) {
	conf := types.Config{
		Importer:    imp,
		FakeImportC: true,
		Sizes:       types.SizesFor("gc", runtime.GOARCH),
	}
	pkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %v", path, err)
	}
	return pkg, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// loadUnits type-checks each package directory as up to three units:
// the plain package, the package augmented with its in-package test
// files, and the external _test package. Dirs must already be sorted
// (expandPatterns sorts) so downstream work is deterministic.
func (ld *loader) loadUnits(dirs []string) ([]*unit, error) {
	var units []*unit
	for _, dir := range dirs {
		bp, err := ld.ctxt.ImportDir(dir, 0)
		if err != nil {
			if _, nogo := err.(*build.NoGoError); nogo {
				continue
			}
			return nil, fmt.Errorf("lint: %s: %v", dir, err)
		}
		pkgPath := ld.importPath(dir)

		// Plain package, via the importer so a dependency loaded earlier
		// and a unit are the same *types.Package.
		var base []*ast.File
		if len(bp.GoFiles) > 0 {
			if _, err := ld.Import(pkgPath); err != nil {
				return nil, err
			}
			u := ld.local[pkgPath]
			base = u.files
			units = append(units, u)
		}

		// Package augmented with in-package test files.
		var augPkg *types.Package
		if len(bp.TestGoFiles) > 0 {
			testFiles, err := ld.parseFiles(dir, bp.TestGoFiles)
			if err != nil {
				return nil, err
			}
			all := append(append([]*ast.File{}, base...), testFiles...)
			info := newInfo()
			augPkg, err = ld.check(ld, pkgPath, all, info)
			if err != nil {
				return nil, err
			}
			units = append(units, &unit{pkgPath: pkgPath, dir: dir, files: all, pkg: augPkg, info: info})
		}

		// External _test package, checked as `go test` builds it, so its
		// imports see the in-package test helpers (testVariant).
		if len(bp.XTestGoFiles) > 0 {
			xfiles, err := ld.parseFiles(dir, bp.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			var imp types.Importer = ld
			if augPkg != nil {
				imp = &testVariant{ld: ld, path: pkgPath, pkgs: map[string]*types.Package{pkgPath: augPkg}}
			}
			info := newInfo()
			xpkg, err := ld.check(imp, pkgPath+"_test", xfiles, info)
			if err != nil {
				return nil, err
			}
			units = append(units, &unit{pkgPath: pkgPath, dir: dir, files: xfiles, pkg: xpkg, info: info})
		}
	}
	return units, nil
}

// testVariant imports for one external test package as `go test` builds
// it: path resolves to its test-augmented copy, every package that
// imports path, directly or not, is checked again against that copy, and
// every other package is the loader's shared one. The variants are
// thrown away with the test package, so the shared loader never holds a
// package built against the augmented copy.
type testVariant struct {
	ld   *loader
	path string
	pkgs map[string]*types.Package // the augmented package and the re-checked dependents
}

func (v *testVariant) Import(path string) (*types.Package, error) {
	if p, ok := v.pkgs[path]; ok {
		return p, nil
	}
	pkg, err := v.ld.Import(path)
	if err != nil || !v.dependsOn(pkg) {
		return pkg, err
	}
	if pkg, err = v.ld.check(v, path, v.ld.local[path].files, nil); err != nil {
		return nil, err
	}
	v.pkgs[path] = pkg
	return pkg, nil
}

// dependsOn reports whether pkg, as the shared loader built it, imports
// the package under test, directly or not. Only module-local packages
// can.
func (v *testVariant) dependsOn(pkg *types.Package) bool {
	if v.ld.local[pkg.Path()] == nil {
		return false
	}
	for _, imp := range pkg.Imports() {
		if imp.Path() == v.path || v.dependsOn(imp) {
			return true
		}
	}
	return false
}

// importPath maps a module-local directory back to its import path.
func (ld *loader) importPath(dir string) string {
	rel, err := filepath.Rel(ld.modRoot, dir)
	if err != nil || rel == "." {
		return ld.modPath
	}
	return ld.modPath + "/" + filepath.ToSlash(rel)
}

// expandPatterns resolves go-style package patterns — "./...",
// "./dir/...", "./dir", or a module-local import path — to the sorted
// set of directories containing Go files. Directories named testdata or
// vendor, and those starting with "." or "_", are skipped, matching the
// go tool. An unmatched "..." pattern yields no directories (and no
// error): linting nothing is clean.
func (ld *loader) expandPatterns(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := map[string]bool{}
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		rec := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			rec, pat = true, rest
		} else if pat == "..." {
			rec, pat = true, "."
		}
		if rest, ok := strings.CutPrefix(pat, ld.modPath); ok && (rest == "" || strings.HasPrefix(rest, "/")) {
			pat = "." + rest
		}
		root := filepath.Join(ld.modRoot, filepath.FromSlash(pat))
		st, err := os.Stat(root)
		if err != nil || !st.IsDir() {
			if rec {
				continue // pattern matched nothing: clean, not an error
			}
			return nil, fmt.Errorf("lint: no such package directory %q", pat)
		}
		if !rec {
			add(root)
			continue
		}
		err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}
