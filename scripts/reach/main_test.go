package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// TestDeclName checks that a declaration maps to the linker's name of its
// function: pointer and value receivers, and type parameters dropped.
func TestDeclName(t *testing.T) {
	const src = `package p
func F() {}
func G[T any](T) {}
func (T) Value() {}
func (*T) Pointer() {}
func (L[E]) Generic() {}
func (*M[K, V]) Both() {}
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ name, recv string }{
		{"x/p.F", ""},
		{"x/p.G", ""},
		{"x/p.T.Value", "x/p.T"},
		{"x/p.(*T).Pointer", "x/p.T"},
		{"x/p.L.Generic", "x/p.L"},
		{"x/p.(*M).Both", "x/p.M"},
	}
	for i, d := range f.Decls {
		name, recv := declName("x/p", d.(*ast.FuncDecl))
		if name != want[i].name || recv != want[i].recv {
			t.Errorf("decl %d: (%q, %q), want (%q, %q)", i, name, recv, want[i].name, want[i].recv)
		}
	}
}

// TestSymbolName checks that a linker symbol maps to the function whose
// code it is, and an itab for an interface outside the module to its type.
func TestSymbolName(t *testing.T) {
	for sym, want := range map[string]string{
		"recycle/internal/engine.New":                                          "engine.New",
		"recycle/internal/engine.(*Engine).best":                               "engine.(*Engine).best",
		"recycle/internal/nn.MBKey.Less":                                       "nn.MBKey.Less",
		"recycle/internal/replay.Replay.func1":                                 "replay.Replay",
		"recycle/internal/replay.Replay.func2.3":                               "replay.Replay",
		"recycle/internal/engine.(*Engine).Warm.gowrap1":                       "engine.(*Engine).Warm",
		"recycle/internal/obs.(*Trace).Close.deferwrap1":                       "obs.(*Trace).Close",
		"recycle/internal/obs.(*Trace).Record-fm":                              "obs.(*Trace).Record",
		"recycle/internal/schedule.sortBy[go.shape.int64]":                     "schedule.sortBy",
		"recycle/internal/schedule.sortBy[go.shape.int64].func1":               "schedule.sortBy",
		"recycle/internal/schedule.(*heap[go.shape.map[int]string]).Push":      "schedule.(*heap).Push",
		"recycle/internal/schedule..dict.sortBy[int64]":                        "",
		"recycle/cmd/x.main":                                                   "",
		"fmt.Println":                                                          "",
		"go:itab.*recycle/internal/dtrain.splitmix,math/rand.Source":           "dtrain.splitmix",
		"go:itab.recycle/internal/x.P[int,string],fmt.Stringer":                "x.P",
		"go:itab.recycle/internal/obs.Nop,recycle/internal/obs.Recorder":       "",
		"go:itab.*recycle/internal/x.T[recycle/internal/y.U],recycle/z.I[int]": "",
		"go:itab.*os.File,io.Writer":                                           "",
	} {
		if got := symbolName(sym); got != want {
			t.Errorf("symbolName(%q) = %q, want %q", sym, got, want)
		}
	}
}
