package dmfwire

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var wildcard = regexp.MustCompile(`\{(\w+)\}`)

// TestRoutePath: on a ServeMux holding every pattern of the table, the path
// Route.Path builds is matched by its own row, and each wildcard comes back
// from r.PathValue as it went in.
func TestRoutePath(t *testing.T) {
	names := []string{"plain", "a/b", "50% c", "ü t", "x?y#z"}
	mux := http.NewServeMux()
	var matched string
	var values []string
	for _, rt := range Routes() {
		mux.HandleFunc(rt.String(), func(w http.ResponseWriter, r *http.Request) {
			matched = rt.String()
			values = values[:0]
			for _, m := range wildcard.FindAllStringSubmatch(rt.Pattern, -1) {
				values = append(values, r.PathValue(m[1]))
			}
		})
	}
	for _, rt := range Routes() {
		n := len(wildcard.FindAllString(rt.Pattern, -1))
		for i := range names {
			args := make([]string, n)
			for j := range args {
				args[j] = names[(i+j)%len(names)]
			}
			matched, values = "", nil
			req := httptest.NewRequest(rt.Method, "http://dmf"+rt.Path(args...), nil)
			mux.ServeHTTP(httptest.NewRecorder(), req)
			if matched != rt.String() || !slices.Equal(values, args) {
				t.Errorf("%s with %q: matched %q with %q", rt, args, matched, values)
			}
			if n == 0 {
				break
			}
		}
	}
}

func TestRoutePathArgCount(t *testing.T) {
	for _, args := range [][]string{nil, {"a", "b"}, {"a", "b", "c", "d"}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("GetTrial.Path(%q) did not panic", args)
				}
			}()
			GetTrial.Path(args...)
		}()
	}
}

// TestRoutesDocumented holds DESIGN.md's endpoint table to the route table,
// in both directions. A row is compared by method and pattern; a `?…` or
// `[…]` suffix (query parameters) is not part of the pattern.
func TestRoutesDocumented(t *testing.T) {
	data, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(data), "\n| Method, path | Purpose |\n|---|---|\n")
	if !ok {
		t.Fatal("DESIGN.md has no endpoint table")
	}
	table, _, _ = strings.Cut(table, "\n\n")
	row := regexp.MustCompile("^\\| `([A-Z]+) (/[^`?\\[]*)[^`]*` \\|")
	documented := map[string]bool{}
	for _, line := range strings.Split(table, "\n") {
		m := row.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("DESIGN.md endpoint row not of the form | `METHOD /path` | …: %s", line)
			continue
		}
		documented[m[1]+" "+m[2]] = true
	}
	served := map[string]bool{}
	for _, rt := range Routes() {
		served[rt.String()] = true
		if !documented[rt.String()] {
			t.Errorf("DESIGN.md lacks a row for %s; add:\n| `%s` | … |", rt, rt)
		}
	}
	for r := range documented {
		if !served[r] {
			t.Errorf("DESIGN.md documents %s, which is not in the route table", r)
		}
	}
	if len(Routes()) != len(served) {
		t.Errorf("the route table has %d rows but %d distinct routes", len(Routes()), len(served))
	}
}

func ExampleRoute_Path() {
	fmt.Println(GetTrial.Path("lu", "strong scaling", "8/O2"))
	fmt.Println(GetTrial)
	// Output:
	// /api/v1/apps/lu/experiments/strong%20scaling/trials/8%2FO2
	// GET /api/v1/apps/{app}/experiments/{exp}/trials/{trial}
}
