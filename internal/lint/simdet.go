package lint

import (
	"go/ast"
	"go/types"
	"path"
	"strings"

	"omegasm/internal/lint/analysis"
)

// SimDet checks that code reachable from the deterministic simulator
// stays a pure function of (seed, config): no wall-clock reads, no
// global math/rand, no bare goroutine spawns (all concurrency must be
// engine machines the seeded adversary schedules), and no iteration
// over a map in unsorted order unless the loop body is provably
// order-insensitive (pure key collection for later sorting, keyed map/
// index writes, deletes, and commutative accumulator updates).
//
// Scope: packages whose import path ends in one of simdetPackages, plus
// files whose path ends in one of simdetFiles in any package. The live
// engine (internal/engine/live.go) is wall-clock by design and carries
// a file-wide allow directive rather than an exemption here, so the
// suppression — like every other — is visible in the source it covers.
var SimDet = &analysis.Analyzer{
	Name: "simdet",
	Doc: "sim-reachable code must be deterministic: no wall clock, no global rand, " +
		"no goroutine spawns, no unordered map iteration",
	Run: runSimDet,
}

// simdetPackages lists the import-path suffixes of packages that are
// wholly sim-reachable.
var simdetPackages = []string{
	"internal/engine",
	"internal/consensus",
	"internal/sched",
	"internal/core",
	"omegasm/load",
	"omegasm/check",
}

// simdetFiles lists file-path suffixes that are sim-reachable (or must
// emit byte-stable output) regardless of package: the public simulator
// surface, the replica group both engines run, and the bench-table
// renderer the docs-sync CI gate replays.
var simdetFiles = []string{
	"sim.go",
	"replica.go",
	"omegabench/readme.go",
	"campaign.go",
	"faults.go",
	"shmem/fault.go",
	"san/gray.go",
}

// forbiddenTimeFuncs are the time package functions that read or
// schedule against the wall clock.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// allowedRandFuncs are the math/rand package functions that construct
// seeded generators rather than draw from the global one.
var allowedRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

// simdetPackageScoped reports whether the whole package is
// sim-reachable.
func simdetPackageScoped(pkgPath string) bool {
	for _, s := range simdetPackages {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}

// simdetFileScoped reports whether the single file is in scope by
// name.
func simdetFileScoped(filename string) bool {
	fn := strings.ReplaceAll(filename, "\\", "/")
	for _, s := range simdetFiles {
		if fn == s || strings.HasSuffix(fn, "/"+s) {
			return true
		}
	}
	return false
}

// runSimDet applies the determinism checks to every in-scope file.
func runSimDet(pass *analysis.Pass) (any, error) {
	pkgScoped := simdetPackageScoped(pass.Pkg.Path())
	for _, f := range pass.Files {
		filename := pass.Fset.Position(f.Pos()).Filename
		if !pkgScoped && !simdetFileScoped(filename) {
			continue
		}
		checkSimDetFile(pass, f, path.Base(filename))
	}
	return nil, nil
}

// checkSimDetFile scans one in-scope file.
func checkSimDetFile(pass *analysis.Pass, f *ast.File, base string) {
	info := pass.TypesInfo
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Pos(),
				"goroutine spawn in sim-reachable code; schedule an engine.Machine so the seeded adversary controls the interleaving")
		case *ast.CallExpr:
			if pkg, name, ok := packageLevelCallee(info, n); ok {
				switch {
				case pkg == "time" && forbiddenTimeFuncs[name]:
					pass.Reportf(n.Pos(),
						"time.%s in sim-reachable code reads the wall clock; use the engine's virtual now", name)
				case pkg == "math/rand" && !allowedRandFuncs[name]:
					pass.Reportf(n.Pos(),
						"global math/rand.%s in sim-reachable code; draw from a seeded *rand.Rand instead", name)
				}
			}
		case *ast.RangeStmt:
			if t := info.Types[n.X].Type; t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap && !orderInsensitiveBody(info, n) {
					pass.Reportf(n.Pos(),
						"iteration over map %s in sim-reachable code is unordered; iterate sorted keys (or keep the body order-insensitive)",
						types.ExprString(n.X))
				}
			}
		}
		return true
	})
}

// packageLevelCallee resolves a call of the form pkgname.Func and
// returns the package path and function name.
func packageLevelCallee(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// orderInsensitiveBody reports whether a range-over-map body cannot
// leak iteration order: every statement (recursively through if/block
// nesting) is a keyed map or index write, a delete, a pure key
// collection append, a commutative accumulator update, or a continue.
// Anything order-dependent — emitting inside the loop, early return or
// break, appending values — fails the test.
func orderInsensitiveBody(info *types.Info, rng *ast.RangeStmt) bool {
	keyName := ""
	if id, ok := rng.Key.(*ast.Ident); ok && id.Name != "_" {
		keyName = id.Name
	}
	var stmtOK func(s ast.Stmt) bool
	stmtOK = func(s ast.Stmt) bool {
		switch s := s.(type) {
		case *ast.AssignStmt:
			return assignOK(info, s, keyName)
		case *ast.IncDecStmt:
			_, isIndex := s.X.(*ast.IndexExpr)
			_, isIdent := s.X.(*ast.Ident)
			return isIdent || isIndex
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" {
					if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
						return true
					}
				}
			}
			return false
		case *ast.IfStmt:
			if s.Init != nil && !stmtOK(s.Init) {
				return false
			}
			if !blockStmtsOK(s.Body, stmtOK) {
				return false
			}
			switch e := s.Else.(type) {
			case nil:
				return true
			case *ast.BlockStmt:
				return blockStmtsOK(e, stmtOK)
			case *ast.IfStmt:
				return stmtOK(e)
			default:
				return false
			}
		case *ast.BlockStmt:
			return blockStmtsOK(s, stmtOK)
		case *ast.BranchStmt:
			return s.Tok.String() == "continue" && s.Label == nil
		case *ast.DeclStmt:
			return true
		default:
			return false
		}
	}
	return blockStmtsOK(rng.Body, stmtOK)
}

// blockStmtsOK applies stmtOK to every statement of b.
func blockStmtsOK(b *ast.BlockStmt, stmtOK func(ast.Stmt) bool) bool {
	for _, s := range b.List {
		if !stmtOK(s) {
			return false
		}
	}
	return true
}

// assignOK accepts keyed writes (m[k] = v), commutative op-assignments
// to plain variables (sum += x, flags |= f, n-- forms), short variable
// declarations of locals, and key-collection appends
// (keys = append(keys, k) where the appended values mention only the
// ranged key — the collect-then-sort idiom).
func assignOK(info *types.Info, s *ast.AssignStmt, keyName string) bool {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return false
	}
	switch s.Tok.String() {
	case "=":
		if _, ok := s.Lhs[0].(*ast.IndexExpr); ok {
			return true
		}
		// xs = append(xs, <key-only exprs>...)
		if call, ok := s.Rhs[0].(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && len(call.Args) >= 2 {
					for _, a := range call.Args[1:] {
						if !mentionsOnlyKey(a, keyName) {
							return false
						}
					}
					lhs, lok := s.Lhs[0].(*ast.Ident)
					base, bok := call.Args[0].(*ast.Ident)
					return lok && bok && lhs.Name == base.Name
				}
			}
		}
		return false
	case ":=":
		return true
	case "+=", "-=", "|=", "&=", "^=", "*=":
		_, ok := s.Lhs[0].(*ast.Ident)
		return ok
	default:
		return false
	}
}

// mentionsOnlyKey reports whether expr references no identifier other
// than the ranged key (conversions and literals around it are fine).
func mentionsOnlyKey(expr ast.Expr, keyName string) bool {
	ok := true
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, isIdent := n.(*ast.Ident); isIdent {
			if id.Name != keyName && !isTypeName(id) {
				ok = false
			}
		}
		return ok
	})
	return ok && keyName != ""
}

// isTypeName reports whether the identifier names a type (allowed in
// conversions like int(k)).
func isTypeName(id *ast.Ident) bool {
	switch id.Name {
	case "int", "int8", "int16", "int32", "int64",
		"uint", "uint8", "uint16", "uint32", "uint64", "uintptr",
		"float32", "float64", "string", "byte", "rune":
		return true
	}
	return false
}
