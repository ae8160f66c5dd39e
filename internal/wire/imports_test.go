package wire

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoProtocolLogicInWire guards two decisions with one scan of the
// non-test files' imports:
//
//   - the single site implementation: the networked sites drive one-site
//     internal/core trackers, so no file of this package may import the
//     sketch structures the protocols are built from. An import of one of
//     them means a second copy of some site logic is growing back here.
//   - binary v2 as the only wire framing: no file of package codec may
//     import encoding/gob. Gob stays the checkpoint format only.
func TestNoProtocolLogicInWire(t *testing.T) {
	for _, g := range []struct {
		dir    string
		banned []string
		why    string
	}{
		{".", []string{
			"distwindow/internal/meh",
			"distwindow/internal/eh",
			"distwindow/internal/iwmt",
			"distwindow/internal/fd",
		}, "site logic belongs in internal/core"},
		{"codec", []string{"encoding/gob"}, "binary v2 is the only wire framing"},
	} {
		files, err := filepath.Glob(filepath.Join(g.dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			ast, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			checked++
			for _, imp := range ast.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				for _, b := range g.banned {
					if path == b {
						t.Errorf("%s imports %s: %s", f, path, g.why)
					}
				}
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no non-test files found; the guard checked nothing", g.dir)
		}
	}
}
