// Package deadcode fails the build's tests on any function that no program
// of the repository links.
//
// TestEveryFunctionIsLinked links every main package (the commands, the
// examples and the perfbench module) with inlining off, so that every call
// leaves an edge, and reads the linker's dependency dump
// (-ldflags=-dumpdep). Every symbol on either side of an edge counts as
// reached. Each function and method declared in a non-test file of the
// default build must be reached under its linker name (path.F,
// path.(*T).M or path.T.M); a closure F.funcN, a method value or a generic
// instance F[...] counts as a use of F. A main package is checked against
// its own binary only, where its symbols are named main.F.
//
// The pass is a lower bound on dead code: the linker keeps every method of
// a type stored in an interface when some reachable interface call uses
// that method's name, so such a method reads as reached. The comparison
// covers function symbols only, because linkers of different releases keep
// different sets of type and interface data.
//
// Test support that only tests call is listed in allowlist.txt, one
// linker name per line followed by the reason it stays. An entry that
// names a function no longer declared fails the test too.
package deadcode

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// decl is one function declared in a non-test file.
type decl struct {
	sym string // linker name, e.g. hummingbird/internal/core.(*Analyzer).Run
	pos string // file:line relative to the repository root
}

// mainPkg is one program: the directory its module is built from and the
// package directory relative to it.
type mainPkg struct {
	modDir, rel string
	funcs       []decl // its own functions, named main.F
}

func TestEveryFunctionIsLinked(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	var lib []decl
	var mains []*mainPkg
	modules := []string{root}
	for i := 0; i < len(modules); i++ {
		modDir := modules[i]
		modPath, err := modulePath(modDir)
		if err != nil {
			t.Fatal(err)
		}
		err = filepath.WalkDir(modDir, func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			name := d.Name()
			if dir != modDir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if dir != modDir {
				if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
					modules = append(modules, dir)
					return filepath.SkipDir
				}
			}
			pkg, err := build.ImportDir(dir, 0)
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(modDir, dir)
			prefix := modPath
			if rel != "." {
				prefix = path.Join(modPath, filepath.ToSlash(rel))
			}
			if pkg.Name == "main" {
				prefix = "main"
			}
			var funcs []decl
			fset := token.NewFileSet()
			for _, name := range pkg.GoFiles {
				file := filepath.Join(dir, name)
				f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
				if err != nil {
					return err
				}
				for _, fd := range f.Decls {
					fn, ok := fd.(*ast.FuncDecl)
					if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
						continue
					}
					p := fset.Position(fn.Pos())
					relFile, _ := filepath.Rel(root, p.Filename)
					funcs = append(funcs, decl{
						sym: prefix + "." + funcName(fn),
						pos: fmt.Sprintf("%s:%d", filepath.ToSlash(relFile), p.Line),
					})
				}
			}
			if pkg.Name == "main" {
				mains = append(mains, &mainPkg{modDir: modDir, rel: "./" + filepath.ToSlash(rel), funcs: funcs})
			} else {
				lib = append(lib, funcs...)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	reached := map[string]bool{}
	var dead []decl
	for _, m := range mains {
		own, err := linkedSymbols(m.modDir, m.rel, reached)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range m.funcs {
			if !own[d.sym] {
				dead = append(dead, d)
			}
		}
	}
	declared := map[string]bool{}
	for _, d := range lib {
		declared[d.sym] = true
		if !reached[d.sym] {
			dead = append(dead, d)
		}
	}

	allowed, err := readAllowlist("allowlist.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		if _, ok := allowed[d.sym]; !ok {
			t.Errorf("%s: %s is linked by no program; delete it, or list it in internal/deadcode/allowlist.txt with the reason it stays", d.pos, d.sym)
		}
	}
	var stale []string
	for sym, line := range allowed {
		if !declared[sym] {
			stale = append(stale, fmt.Sprintf("allowlist.txt:%d: %s is not declared in any non-test file", line, sym))
		}
	}
	sort.Strings(stale)
	for _, s := range stale {
		t.Error(s)
	}
}

// funcName is a function's linker name within its package: F, (*T).M or
// T.M, with any type parameters dropped.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	ptr := false
	if star, ok := typ.(*ast.StarExpr); ok {
		ptr, typ = true, star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	recv := typ.(*ast.Ident).Name
	if ptr {
		recv = "(*" + recv + ")"
	}
	return recv + "." + fn.Name.Name
}

// linkedSymbols links the main package rel of the module in modDir and
// adds every function name its dump reaches to lib, except the main
// package's own, which it returns.
func linkedSymbols(modDir, rel string, lib map[string]bool) (map[string]bool, error) {
	cmd := exec.Command("go", "build", "-gcflags=all=-l", "-ldflags=-dumpdep", "-o", os.DevNull, rel)
	cmd.Dir = modDir
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build %s in %s: %v\n%s", rel, modDir, err, out.Bytes())
	}
	own := map[string]bool{}
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		from, to, ok := strings.Cut(sc.Text(), " -> ")
		if !ok {
			continue
		}
		for _, sym := range []string{from, to} {
			sym, _, _ = strings.Cut(sym, " ")
			if sym == "" || strings.Contains(sym, ":") {
				continue // type, string and other data symbols
			}
			sym = dropBrackets(sym)
			start := strings.LastIndex(sym, "/") + 1
			dot := strings.Index(sym[start:], ".")
			if dot < 0 {
				continue
			}
			set := lib
			if strings.HasPrefix(sym, "main.") {
				set = own
			}
			// pkg.(*T).M.func1.2 uses pkg.(*T).M.func1 and pkg.(*T).M, and
			// pkg.(*T).M-fm, a method value, uses pkg.(*T).M. Other
			// suffixes, such as .stkobj or .arginfo1, name data that
			// functions with the same layout share, so they use nothing.
			for pkgEnd := start + dot; ; {
				set[sym] = true
				i := strings.LastIndexAny(sym, ".-")
				if i <= pkgEnd || sym[i] == '.' && !isClosure(sym[i+1:]) {
					break
				}
				sym = sym[:i]
			}
		}
	}
	return own, sc.Err()
}

// isClosure reports whether c names a closure or a go or defer wrapper
// within its enclosing function: funcN, gowrapN, deferwrapN or, for a
// closure nested in a closure, N.
func isClosure(c string) bool {
	for _, p := range []string{"func", "gowrap", "deferwrap"} {
		if rest, ok := strings.CutPrefix(c, p); ok {
			c = rest
			break
		}
	}
	if c == "" {
		return false
	}
	for _, r := range c {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// dropBrackets removes every bracketed type-argument list from a symbol,
// so that pkg.(*T[go.shape.int]).M reads pkg.(*T).M.
func dropBrackets(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func modulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod: no module line", dir)
}

// readAllowlist reads "symbol reason..." lines, skipping blank lines and
// # comments, and returns each symbol's line number.
func readAllowlist(file string) (map[string]int, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	entries := map[string]int{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", file, i+1, sym)
		}
		if _, dup := entries[sym]; dup {
			return nil, fmt.Errorf("%s:%d: %s is listed twice", file, i+1, sym)
		}
		entries[sym] = i + 1
	}
	return entries, nil
}
