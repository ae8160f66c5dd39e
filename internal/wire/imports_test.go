package wire

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoProtocolLogicInWire guards the single site implementation: the
// networked sites drive one-site internal/core trackers, so no non-test
// file of this package may import the sketch structures the protocols are
// built from. An import of one of them means a second copy of some site
// logic is growing back here.
func TestNoProtocolLogicInWire(t *testing.T) {
	banned := map[string]bool{
		"distwindow/internal/meh":  true,
		"distwindow/internal/eh":   true,
		"distwindow/internal/iwmt": true,
		"distwindow/internal/fd":   true,
	}
	files, err := filepath.Glob("*.go")
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
			if path, _ := strconv.Unquote(imp.Path.Value); banned[path] {
				t.Errorf("%s imports %s: site logic belongs in internal/core", f, path)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no non-test files found; the guard checked nothing")
	}
}
