// Package flagdoc is test support for cmd/perfdmfd and cmd/perfexplorer: it
// holds what the documentation says about their flags to the flags
// themselves, in both directions, the way internal/counters holds
// docs/METRICS.md to the counter names.
package flagdoc

import (
	"flag"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// registration matches one flag definition in a command's newFlagSet.
	registration = regexp.MustCompile(`fs\.\w+Var\(&o\.\w+, "([^"]+)"`)
	// token matches a flag as prose and examples write it. One-letter words
	// (curl's -s) are not tokens; -j is covered by mentioned.
	token = regexp.MustCompile("(?m)(?:^|[\\s`(/])-([a-z][a-z0-9-]+)")
	// migration matches the one section that has to name flags that are
	// gone: it tells the operator of an older release what to do with them.
	migration = regexp.MustCompile(`(?s)\n### Migrating from ring v1.*?\n##`)
)

func mentioned(text, name string) bool {
	return regexp.MustCompile("(?m)(?:^|[\\s`(/])-" + regexp.QuoteMeta(name) + "(?:$|[^a-z0-9-])").MatchString(text)
}

// Check runs in the directory of the command that built fs. It reports every
// flag of fs that neither README.md nor a guide under docs/ (measurement logs
// aside) mentions, and every -flag token in the cluster, durability and
// streaming guides (the migration section aside) and in the two commands'
// package comments that neither command registers.
func Check(t *testing.T, fs *flag.FlagSet) {
	t.Helper()
	root := filepath.Join("..", "..")
	read := func(elem ...string) string {
		data, err := os.ReadFile(filepath.Join(append([]string{root}, elem...)...))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}

	guides := read("README.md")
	paths, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if !strings.HasSuffix(p, "_MEASUREMENTS.md") {
			guides += read("docs", filepath.Base(p))
		}
	}
	own := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) {
		own[f.Name] = true
		if !mentioned(guides, f.Name) {
			t.Errorf("%s -%s is in neither README.md nor docs/*.md", fs.Name(), f.Name)
		}
	})

	// The other command's flags can only be read off its source; reading this
	// command's the same way, against fs, keeps the pattern honest.
	known := map[string]bool{}
	held := migration.ReplaceAllString(read("docs", "CLUSTER.md"), "\n##") + read("docs", "DURABILITY.md") + read("docs", "STREAMING.md")
	for _, cmd := range []string{"perfdmfd", "perfexplorer"} {
		src := read("cmd", cmd, "main.go")
		comment, _, _ := strings.Cut(src, "\npackage main\n")
		held += comment
		fromSource := map[string]bool{}
		for _, m := range registration.FindAllStringSubmatch(src, -1) {
			known[m[1]] = true
			fromSource[m[1]] = true
		}
		if cmd == fs.Name() && !maps.Equal(fromSource, own) {
			t.Errorf("cmd/%s/main.go reads as registering %d flags, not the %d of the FlagSet", cmd, len(fromSource), len(own))
		}
	}
	seen := map[string]bool{}
	for _, m := range token.FindAllStringSubmatch(held, -1) {
		if !known[m[1]] && !seen[m[1]] {
			seen[m[1]] = true
			t.Errorf("the guides or a package comment mention -%s, which neither command registers", m[1])
		}
	}
}
