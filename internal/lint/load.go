// Package loading: a stdlib-only substitute for golang.org/x/tools
// packages.Load. Packages of this module are mapped import-path → directory
// and type-checked from source; imports outside the module (the stdlib)
// fall back to go/importer's source importer, which resolves them under
// GOROOT/src. Everything is cached in one loader so a ./... run
// type-checks each package exactly once.
package lint

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
)

// modulePath is this repository's module path; verified against go.mod by
// newLoader so a rename fails loudly instead of silently skipping scope
// rules.
const modulePath = "convexagreement"

// FindModuleRoot walks up from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("calint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// loader loads and type-checks packages, caching by import path.
type loader struct {
	root   string
	fset   *token.FileSet
	cache  map[string]*types.Package // by import path, for the importer
	passes map[string]*Pass          // by module-relative dir
	src    types.Importer
	ctx    build.Context
	// overlay is a test seam: a file named here is parsed from these
	// bytes instead of from disk (the mutation table seeds one bug at a
	// time into real packages without touching the tree).
	overlay map[string][]byte
}

func newLoader(root string) (*loader, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("calint: %w", err)
	}
	first := strings.SplitN(string(mod), "\n", 2)[0]
	if got := strings.TrimSpace(strings.TrimPrefix(first, "module")); got != modulePath {
		return nil, fmt.Errorf("calint: module is %q, linter configured for %q", got, modulePath)
	}
	fset := token.NewFileSet()
	ctx := build.Default
	ctx.CgoEnabled = false // protocol code is pure Go; keeps loading hermetic
	return &loader{
		root:   root,
		fset:   fset,
		cache:  map[string]*types.Package{},
		passes: map[string]*Pass{},
		src:    importer.ForCompiler(fset, "source", nil),
		ctx:    ctx,
	}, nil
}

// Import implements types.Importer over the module + stdlib split.
func (l *loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if isModulePkg(path) {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/")
		pass, err := l.loadRel(rel)
		if err != nil {
			return nil, err
		}
		return pass.Pkg, nil
	}
	pkg, err := l.src.Import(path)
	if err != nil {
		return nil, err
	}
	l.cache[path] = pkg
	return pkg, nil
}

// loadRel parses and type-checks the package in the module-relative
// directory rel (non-test files only) and returns its Pass.
func (l *loader) loadRel(rel string) (*Pass, error) {
	if pass, ok := l.passes[rel]; ok {
		return pass, nil
	}
	importPath := modulePath
	if rel != "" {
		importPath = modulePath + "/" + filepath.ToSlash(rel)
	}
	pass, err := l.loadDir(filepath.Join(l.root, rel), importPath)
	if err != nil {
		return nil, err
	}
	pass.RelPkg = filepath.ToSlash(rel)
	l.passes[rel] = pass
	return pass, nil
}

// loadDir loads the package in dir under the given import path. It is the
// workhorse for both module packages and the golden-test fixtures (which
// live under testdata/ and are loaded with synthetic import paths).
func (l *loader) loadDir(dir, importPath string) (*Pass, error) {
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		path := filepath.Join(dir, name)
		var src any // nil: read the file
		if b, ok := l.overlay[path]; ok {
			src = b
		}
		f, err := parser.ParseFile(l.fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var firstErr error
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	pkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		if firstErr != nil {
			err = firstErr
		}
		return nil, fmt.Errorf("typecheck: %w", err)
	}
	l.cache[importPath] = pkg
	return &Pass{Fset: l.fset, Files: files, Pkg: pkg, Info: info}, nil
}

// expand resolves go-style package patterns rooted at the module into
// sorted module-relative directories. Supported forms: ".", "./...",
// "./x", "./x/...", and bare relative paths without the "./" prefix.
func (l *loader) expand(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := map[string]bool{}
	var out []string
	add := func(rel string) {
		if !seen[rel] {
			seen[rel] = true
			out = append(out, rel)
		}
	}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		recursive := false
		if pat == "..." || strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
		}
		pat = strings.TrimPrefix(pat, "./")
		if pat == "." {
			pat = ""
		}
		base := filepath.Join(l.root, pat)
		if !recursive {
			if !l.hasGoFiles(base) {
				return nil, fmt.Errorf("no Go files in %s", relOrDot(pat))
			}
			add(pat)
			continue
		}
		err := filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			if l.hasGoFiles(path) {
				rel, err := filepath.Rel(l.root, path)
				if err != nil {
					return err
				}
				if rel == "." {
					rel = ""
				}
				add(filepath.ToSlash(rel))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

// hasGoFiles reports whether dir holds at least one buildable non-test
// Go file.
func (l *loader) hasGoFiles(dir string) bool {
	bp, err := l.ctx.ImportDir(dir, 0)
	return err == nil && len(bp.GoFiles) > 0
}
