// Package endian enforces the codec contracts of the .imsnap /
// .imdelta / .impool formats and the wire protocol: the byte order is
// little-endian everywhere, checksums are CRC32 with the Castagnoli
// polynomial everywhere, and functions that write sections compute a
// checksum.
//
// Three checks:
//
//  1. Any use of binary.BigEndian or binary.NativeEndian is flagged.
//     The on-disk and on-wire formats are defined as little-endian;
//     NativeEndian would make snapshots non-portable between hosts,
//     and a single BigEndian field silently corrupts every CRC that
//     covers it.
//  2. Any use of the IEEE or Koopman CRC32 polynomial — crc32.IEEE,
//     crc32.NewIEEE, crc32.ChecksumIEEE, crc32.IEEETable, or a
//     crc32.MakeTable argument other than crc32.Castagnoli — is
//     flagged. Mixing polynomials between writer and reader produces
//     checksums that never match; Castagnoli (hardware-accelerated
//     SSE4.2/ARMv8) is the repo-wide choice.
//  3. A writer function — name starting with "write"/"Write", taking
//     an io.Writer, and actually calling Write — must reference a
//     CRC32 operation or table, so a new section writer cannot land
//     without checksum coverage. Writers whose checksums are computed
//     by a sibling (the container's section writeTo / crc) or that emit
//     padding outside CRC coverage carry an //imlint:ignore endian
//     suppression explaining exactly that.
package endian

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "endian",
	Doc:  "codec packages are little-endian only, CRC32-Castagnoli only, and section writers must checksum",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		checkByteOrderAndPolynomial(pass, f)
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				checkWriterHasCRC(pass, fn)
			}
		}
	}
	return nil
}

// forbiddenCRCNames are hash/crc32 identifiers that hard-code a
// non-Castagnoli polynomial.
var forbiddenCRCNames = map[string]bool{
	"IEEE": true, "IEEETable": true, "NewIEEE": true, "ChecksumIEEE": true,
	"Koopman": true,
}

func checkByteOrderAndPolynomial(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			obj := pass.TypesInfo.Uses[n.Sel]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			switch obj.Pkg().Path() {
			case "encoding/binary":
				if obj.Name() == "BigEndian" || obj.Name() == "NativeEndian" {
					pass.Reportf(n.Pos(), "binary.%s in a codec package; the .imsnap/.impool/wire formats are defined as little-endian", obj.Name())
				}
			case "hash/crc32":
				if forbiddenCRCNames[obj.Name()] {
					pass.Reportf(n.Pos(), "crc32.%s uses a non-Castagnoli polynomial; codec checksums are CRC32-Castagnoli everywhere", obj.Name())
				}
			}
		case *ast.CallExpr:
			if analysis.IsPkgFunc(pass.TypesInfo, n, "hash/crc32", "MakeTable") && len(n.Args) == 1 {
				if sel, ok := n.Args[0].(*ast.SelectorExpr); ok {
					if obj := pass.TypesInfo.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "hash/crc32" {
						// crc32.Castagnoli is the contract; any other
						// crc32.* polynomial constant was already
						// flagged by the selector check above.
						return true
					}
				}
				pass.Reportf(n.Pos(), "crc32.MakeTable with a non-Castagnoli polynomial; codec checksums are CRC32-Castagnoli everywhere")
			}
		}
		return true
	})
}

// checkWriterHasCRC flags section-writer functions with no checksum
// reference.
func checkWriterHasCRC(pass *analysis.Pass, fn *ast.FuncDecl) {
	name := fn.Name.Name
	if !strings.HasPrefix(name, "write") && !strings.HasPrefix(name, "Write") {
		return
	}
	if !hasWriterParam(pass, fn) || !callsWrite(fn.Body) {
		return
	}
	if referencesCRC(pass, fn.Body) {
		return
	}
	pass.Reportf(fn.Pos(), "%s writes to an io.Writer but never touches a CRC32 checksum; every codec section write pairs with a CRC32-Castagnoli update", name)
}

func hasWriterParam(pass *analysis.Pass, fn *ast.FuncDecl) bool {
	for _, field := range fn.Type.Params.List {
		t := pass.TypesInfo.TypeOf(field.Type)
		if t == nil {
			continue
		}
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil && obj.Pkg().Path() == "io" && obj.Name() == "Writer" {
				return true
			}
		}
	}
	return false
}

func callsWrite(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && strings.HasPrefix(sel.Sel.Name, "Write") {
				found = true
				return false
			}
		}
		return !found
	})
	return found
}

// referencesCRC reports whether body mentions any hash/crc32 object or
// any value whose type involves crc32.Table (the cached package-level
// castagnoli table).
func referencesCRC(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return !found
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			return !found
		}
		if obj.Pkg() != nil && obj.Pkg().Path() == "hash/crc32" {
			found = true
			return false
		}
		if t := obj.Type(); t != nil && strings.Contains(t.String(), "hash/crc32.Table") {
			found = true
			return false
		}
		return true
	})
	return found
}
