package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Parshare machine-checks the determinism contract that every
// internal/par call site in the repository hand-follows today: the
// closure handed to a par entry point runs concurrently on many workers
// in scheduling order, so it may write only
//
//   - state owned by its index — an element reached through an index
//     expression that depends on the closure's index parameter
//     (out[i] = ..., m[row][i].Field = ...), or
//   - a documented shared sink guarded by a captured sync.Mutex /
//     sync.RWMutex, between a Lock() and the matching Unlock() (a
//     deferred Unlock keeps the window open to the end of the closure).
//
// Everything else — appending to a captured slice, bumping a captured
// counter, folding into a captured accumulator — lands in
// worker-scheduling order and silently breaks the bit-identical-at-any-
// worker-count invariant; it is also exactly the shape the race detector
// only catches when the schedule cooperates. Parshare is the static
// complement: it flags the write every time.
var Parshare = &Analyzer{
	Name: "parshare",
	Doc:  "closures passed to internal/par entry points may write only per-index slots or mutex-guarded sinks",
	Run:  runParshare,
}

// parEntryPoints are the internal/par functions that fan a closure out
// across workers.
var parEntryPoints = map[string]bool{
	"For": true, "ForShards": true, "ForErr": true, "Map": true,
}

// isParPackage matches internal/par by path, the way hotloop matches
// gap, so fixtures under testdata/src/par exercise the analyzer without
// the module prefix.
func isParPackage(path string) bool {
	return path == "par" || strings.HasSuffix(path, "/par")
}

func runParshare(p *Pass) error {
	for _, f := range p.Files {
		// Collect every par closure in the file first, so that when one
		// par call nests inside another's closure, each body is checked
		// only against its own index parameter.
		type parClosure struct {
			entry string
			lit   *ast.FuncLit
		}
		var closures []parClosure
		isParClosure := make(map[*ast.FuncLit]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := parEntryPointCall(p.TypesInfo, call)
			if !ok || len(call.Args) == 0 {
				return true
			}
			lit, ok := call.Args[len(call.Args)-1].(*ast.FuncLit)
			if !ok {
				return true
			}
			closures = append(closures, parClosure{entry: name, lit: lit})
			isParClosure[lit] = true
			return true
		})
		for _, c := range closures {
			checkParClosure(p, c.entry, c.lit, isParClosure)
		}
	}
	return nil
}

// parEntryPointCall reports whether call invokes a par entry point and
// returns its name.
func parEntryPointCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	if !isParPackage(fn.Pkg().Path()) || !parEntryPoints[fn.Name()] {
		return "", false
	}
	return fn.Name(), true
}

func checkParClosure(p *Pass, entry string, lit *ast.FuncLit, isParClosure map[*ast.FuncLit]bool) {
	// inspect is ast.Inspect over the closure body, stopping at nested
	// par closures — those are checked separately against their own
	// index parameter.
	inspect := func(fn func(ast.Node) bool) {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok && fl != lit && isParClosure[fl] {
				return false
			}
			return fn(n)
		})
	}

	// The index parameter is the closure's first parameter; writes
	// indexed by it own their slot.
	var idxObj types.Object
	if params := lit.Type.Params; params != nil && len(params.List) > 0 && len(params.List[0].Names) > 0 {
		name := params.List[0].Names[0]
		if name.Name != "_" {
			idxObj = p.TypesInfo.Defs[name]
		}
	}

	captured := func(obj types.Object) bool {
		if obj == nil {
			return false
		}
		if _, ok := obj.(*types.Var); !ok {
			return false
		}
		return obj.Pos() < lit.Pos() || obj.Pos() >= lit.End()
	}

	// Mutex windows: Lock/Unlock calls on captured sync mutexes, with
	// deferred Unlocks excluded so `mu.Lock(); defer mu.Unlock()` keeps
	// the window open to the end of the closure.
	deferredCalls := make(map[*ast.CallExpr]bool)
	inspect(func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			deferredCalls[d.Call] = true
		}
		return true
	})
	var locks, unlocks []token.Pos
	inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "Unlock" && sel.Sel.Name != "RLock" && sel.Sel.Name != "RUnlock") {
			return true
		}
		fn, _ := objectOf(p.TypesInfo, sel.Sel).(*types.Func)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
			return true
		}
		root := rootIdent(sel.X)
		if root == nil || !captured(objectOf(p.TypesInfo, root)) {
			return true // a closure-local mutex guards nothing across workers
		}
		switch sel.Sel.Name {
		case "Lock", "RLock":
			locks = append(locks, call.Pos())
		default:
			if !deferredCalls[call] {
				unlocks = append(unlocks, call.Pos())
			}
		}
		return true
	})
	guarded := func(pos token.Pos) bool {
		last := token.NoPos
		for _, l := range locks {
			if l < pos && l > last {
				last = l
			}
		}
		if last == token.NoPos {
			return false
		}
		for _, u := range unlocks {
			if u > last && u < pos {
				return false
			}
		}
		return true
	}

	perIndexSlot := func(lhs ast.Expr) bool {
		if idxObj == nil {
			return false
		}
		for {
			switch e := lhs.(type) {
			case *ast.ParenExpr:
				lhs = e.X
			case *ast.IndexExpr:
				if mentionsObject(p.TypesInfo, e.Index, idxObj) {
					return true
				}
				lhs = e.X
			case *ast.SelectorExpr:
				lhs = e.X
			case *ast.StarExpr:
				lhs = e.X
			default:
				return false
			}
		}
	}

	check := func(lhs ast.Expr, isAppend bool) {
		root := rootIdent(lhs)
		if root == nil {
			return
		}
		obj := objectOf(p.TypesInfo, root)
		if !captured(obj) || perIndexSlot(lhs) || guarded(lhs.Pos()) {
			return
		}
		if isAppend {
			p.Reportf(lhs.Pos(), "append to captured slice %q inside a par.%s closure grows shared state in worker-scheduling order; write per-index slots (out[i] = ...) instead, or annotate with //lint:allow parshare <reason>", root.Name, entry)
			return
		}
		p.Reportf(lhs.Pos(), "par.%s closure writes captured variable %q; workers run in nondeterministic order — write only per-index slots (out[i] = ...) or a mutex-guarded sink, or annotate with //lint:allow parshare <reason>", entry, root.Name)
	}

	inspect(func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE {
				return true // := declares closure-locals; nothing captured is written
			}
			for i, lhs := range st.Lhs {
				isAppend := false
				if st.Tok == token.ASSIGN && len(st.Lhs) == len(st.Rhs) {
					isAppend = isSelfAppend(p.TypesInfo, lhs, st.Rhs[i])
				}
				check(lhs, isAppend)
			}
		case *ast.IncDecStmt:
			check(st.X, false)
		}
		return true
	})
}

// rootIdent walks an lvalue to its base identifier: out[i] -> out,
// a.b[k].c -> a, (*p).f -> p. Nil for anything rooted elsewhere (a call
// result, a composite literal).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isSelfAppend reports whether rhs is append(x, ...) growing the same
// variable lhs writes — the shared-slice growth pattern that lands
// elements in scheduling order.
func isSelfAppend(info *types.Info, lhs, rhs ast.Expr) bool {
	call, ok := rhs.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	if _, ok := objectOf(info, id).(*types.Builtin); !ok {
		return false
	}
	lroot, aroot := rootIdent(lhs), rootIdent(call.Args[0])
	if lroot == nil || aroot == nil {
		return false
	}
	lobj := objectOf(info, lroot)
	return lobj != nil && lobj == objectOf(info, aroot)
}
