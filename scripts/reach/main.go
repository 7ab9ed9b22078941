// Command reach fails on a function or method of a non-test file of
// internal/ that no binary links, unless allow.txt lists it as `name —
// reason (ROADMAP item N)`, and on an allow.txt line whose function is
// linked or gone. It reads the symbols of every main and bench/, built
// without inlining, with `go tool nm`. A method of a type converted to an
// interface from outside the module counts as linked (math/rand.Source
// needs Seed, called or not).
//
//	go run ./scripts/reach
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strings"
)

const (
	module = "recycle/"
	prefix = module + "internal/"
	allow  = "scripts/reach/allow.txt"
)

var (
	typeArgs = regexp.MustCompile(`\[[^\[\]]*\]`)
	closure  = regexp.MustCompile(`\.(func|gowrap|deferwrap)\d+.*$`)
	entry    = regexp.MustCompile(`^(\S+) — \S.* \(ROADMAP item \d+\)$`)
)

// decl is a function or method of internal/; recv is pkg.T for a method.
type decl struct {
	pos  token.Position
	recv string
}

// bins is the temporary directory of built binaries; check removes it.
var bins string

func main() {
	var err error
	bins, err = os.MkdirTemp("", "reach")
	check(err)
	run("go", "build", "-gcflags=all=-l", "-o", bins+"/", "./...")
	run("go", "build", "-C", "bench", "-gcflags=all=-l", "-o", bins+"/bench", ".")
	linked := map[string]bool{} // linker names, and the pkg.T of converted types
	entries, err := os.ReadDir(bins)
	check(err)
	for _, e := range entries {
		for _, line := range strings.Split(run("go", "tool", "nm", bins+"/"+e.Name()), "\n") {
			if f := strings.Fields(line); len(f) >= 3 {
				linked[symbolName(strings.Join(f[2:], " "))] = true
			}
		}
	}
	check(os.RemoveAll(bins))
	decls := walk()
	for name, d := range decls {
		linked[name] = linked[name] || d.recv != "" && linked[d.recv]
	}

	data, err := os.ReadFile(allow)
	check(err)
	var bad []string
	allowed := map[string]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		if m := entry.FindStringSubmatch(line); m != nil {
			if _, ok := decls[m[1]]; !ok || linked[m[1]] {
				bad = append(bad, fmt.Sprintf("%s:%d: %s is linked or declared nowhere; drop its line", allow, i+1, m[1]))
			}
			allowed[m[1]] = true
		} else if line != "" && line[0] != '#' {
			bad = append(bad, fmt.Sprintf("%s:%d: want `name — reason (ROADMAP item N)`", allow, i+1))
		}
	}
	for name, d := range decls {
		if !linked[name] && !allowed[name] {
			bad = append(bad, fmt.Sprintf("%s: %s is linked by no binary", d.pos, name))
		}
	}
	sort.Strings(bad)
	fmt.Fprint(os.Stderr, strings.Join(append(bad, ""), "\n"))
	fmt.Printf("reach: %d functions in internal/, %d allowlisted\n", len(decls), len(allowed))
	if len(bad) > 0 {
		os.Exit(1)
	}
}

// symbolName maps a linker symbol to the internal/ function whose code it
// is, a closure or go/defer wrapper to the function that holds it, and an
// itab of an internal/ type for an interface outside the module to the
// type; type arguments are dropped. Any other symbol maps to "".
func symbolName(sym string) string {
	sym = dropTypeArgs(strings.TrimSuffix(sym, "-fm"))
	if rest, ok := strings.CutPrefix(sym, "go:itab."); ok {
		typ, iface, _ := strings.Cut(strings.TrimPrefix(rest, "*"), ",")
		if typ, ok := strings.CutPrefix(typ, prefix); ok && !strings.HasPrefix(iface, module) {
			return typ
		}
		return ""
	}
	rest, ok := strings.CutPrefix(sym, prefix)
	if pkg, fn, _ := strings.Cut(rest, "."); ok && fn != "" && fn[0] != '.' {
		return pkg + "." + closure.ReplaceAllString(fn, "")
	}
	return ""
}

// dropTypeArgs removes every bracketed type-argument list, innermost first.
func dropTypeArgs(s string) string {
	for t := ""; t != s; {
		t, s = s, typeArgs.ReplaceAllString(s, "")
	}
	return s
}

// declName is the linker's name of fd in package pkg (pkg.F, pkg.(*T).M or
// pkg.T.M, without type parameters) and, for a method, its type pkg.T.
func declName(pkg string, fd *ast.FuncDecl) (name, recv string) {
	if fd.Recv == nil {
		return pkg + "." + fd.Name.Name, ""
	}
	typ := dropTypeArgs(types.ExprString(fd.Recv.List[0].Type))
	if recv = pkg + "." + strings.TrimPrefix(typ, "*"); typ[0] == '*' {
		typ = "(" + typ + ")"
	}
	return pkg + "." + typ + "." + fd.Name.Name, recv
}

// walk returns, by linker name, the functions and methods of the non-test
// files that a default build of internal/ compiles, init functions aside.
func walk() map[string]decl {
	decls := map[string]decl{}
	fset := token.NewFileSet()
	files := run("go", "list", "-f", `{{range .GoFiles}}{{$.ImportPath}} {{$.Dir}}/{{.}}{{"\n"}}{{end}}`, "./internal/...")
	for _, line := range strings.Split(strings.TrimSpace(files), "\n") {
		pkg, path, _ := strings.Cut(strings.TrimPrefix(line, prefix), " ")
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		check(err)
		for _, x := range f.Decls {
			if fd, ok := x.(*ast.FuncDecl); ok && fd.Body != nil && (fd.Recv != nil || fd.Name.Name != "init") {
				name, recv := declName(pkg, fd)
				decls[name] = decl{fset.Position(fd.Pos()), recv}
			}
		}
	}
	return decls
}

// run returns a command's standard output.
func run(name string, args ...string) string {
	cmd := exec.Command(name, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	check(err)
	return string(out)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.RemoveAll(bins)
		os.Exit(1)
	}
}
