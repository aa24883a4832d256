package perfknow_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// goStatements names every go statement of the program, by file and
// enclosing function, with the reason it exists. Nothing else starts a
// goroutine: a simulation, a fact builder, an analysis operation and an
// admitted daemon request all run on their caller.
var goStatements = map[string]string{
	"internal/experiments/experiments.go RunAll":   "the -j workers of the experiment fan-out",
	"internal/cluster/env.go goFanout":             "one call per peer, so a replicated write or a fan-out read waits for the slowest peer, not the sum",
	"internal/cluster/agent.go Start":              "the gossip and repair loops of a cluster member",
	"internal/dmfclient/stream.go SubscribeAlerts": "the SSE reader behind an alert subscription",
	"cmd/perfdmfd/main.go run":                     "the API and debug listeners",
	"examples/remote_diagnosis/main.go main":       "the example's in-process daemon",
}

// TestEnginesStartNoGoroutines holds the one grain of concurrency
// statically: it parses every non-test Go file outside bench/ and fails on
// a go statement goStatements does not name, and on a name it no longer
// finds.
func TestEnginesStartNoGoroutines(t *testing.T) {
	fset := token.NewFileSet()
	seen := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			where := filepath.ToSlash(path)
			if fn, ok := decl.(*ast.FuncDecl); ok {
				where += " " + fn.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					if _, ok := goStatements[where]; !ok {
						t.Errorf("%s: go statement in %s, which goStatements does not name", fset.Position(g.Pos()), where)
					}
					seen[where] = true
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for where := range goStatements {
		if !seen[where] {
			t.Errorf("goStatements names %s, which starts no goroutine", where)
		}
	}
}
