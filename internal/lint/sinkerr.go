package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Sinkerr enforces the loud-failure contract PR 3's /dev/full tests pin
// down: a command that was asked to write an event stream (-events,
// -archive) must exit nonzero when the bytes did not reach disk. The
// JSONL sink latches its first write error and reports it from Close,
// together with the buffer's flush and the file's close errors — so the
// one way to lose the error is for a command to drop the return value of
// Close (or of Flush, on a sink that has one).
//
// Flagged shapes, for methods named Flush or Close returning an error
// whose receiver type is declared in an event-sink package (internal/obs,
// internal/obs/runlog, internal/cliutil — or any package path ending in
// /obs, /runlog or /cliutil):
//
//	stream.Close()          // bare call
//	defer stream.Close()    // deferred, error unrecoverable
//	go stream.Close()       // goroutine, error unrecoverable
//	_ = stream.Close()      // explicit discard
//
// A deferred Close that exists only as a backstop for early error
// returns — with the success path checking Close explicitly — is the
// legitimate exception; annotate it with //lint:allow sinkerr <reason>.
var Sinkerr = &Analyzer{
	Name: "sinkerr",
	Doc:  "commands must not drop the error from an event-sink Flush/Close",
	Run:  runSinkerr,
}

func runSinkerr(p *Pass) error {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				checkDroppedSinkErr(p, s.X, "")
			case *ast.DeferStmt:
				checkDroppedSinkErr(p, s.Call, "deferred ")
			case *ast.GoStmt:
				checkDroppedSinkErr(p, s.Call, "")
			case *ast.AssignStmt:
				allBlank := true
				for _, lhs := range s.Lhs {
					if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
						allBlank = false
						break
					}
				}
				if allBlank {
					for _, rhs := range s.Rhs {
						checkDroppedSinkErr(p, rhs, "")
					}
				}
			}
			return true
		})
	}
	return nil
}

func checkDroppedSinkErr(p *Pass, e ast.Expr, how string) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	if name := sel.Sel.Name; name != "Flush" && name != "Close" {
		return
	}
	selection := p.TypesInfo.Selections[sel]
	if selection == nil {
		return
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok || !returnsError(fn) {
		return
	}
	named := receiverNamedType(fn)
	if named == nil {
		return
	}
	pkg := named.Obj().Pkg()
	if pkg == nil || !isSinkPackagePath(pkg.Path()) {
		return
	}
	p.Reportf(call.Pos(), "%serror from (*%s).%s is dropped; event-sink flush/close failures must surface (check the error, or annotate with //lint:allow sinkerr <reason>)", how, named.Obj().Name(), sel.Sel.Name)
}

func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	return last.String() == "error"
}

func receiverNamedType(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// isSinkPackagePath reports whether path declares event-sink types: the
// obs layer and its runlog archive writer. cliutil, whose Obs session
// owns the -events stream, stays in scope so a sink type it declares is
// checked too. Matching by path suffix keeps the analyzer testable
// against fixture packages named plain "obs".
func isSinkPackagePath(path string) bool {
	for _, suffix := range []string{"obs", "runlog", "cliutil"} {
		if path == suffix || strings.HasSuffix(path, "/"+suffix) {
			return true
		}
	}
	return false
}
