// Package diagnosis is the performance knowledge base captured from the
// paper's three case studies: inference rules (in the .prl language of
// internal/rules) that recognize and explain load imbalance, processor and
// memory bottlenecks, data-locality defects, sequential bottlenecks, and
// power/energy trade-offs; the fact builders that derive those rules'
// working-memory facts from parallel profiles; and the PerfExplorer analysis
// scripts that drive the whole process. The rule and script text is the
// files under assets/, embedded at build time (package perfknow/assets);
// WriteAssets copies them out for the command-line tools.
//
// Each script expects the host to define `rulesdir` (directory holding the
// .prl files) and `args` (a list of script arguments, usually
// [application, experiment, trial...]).
package diagnosis

import (
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"

	"perfknow/assets"
)

var ruleFiles, scriptFiles = embedded("rules"), embedded("scripts")

// embedded reads one directory of the embedded knowledge base, once.
func embedded(dir string) map[string]string {
	entries, err := assets.FS.ReadDir(dir)
	if err != nil {
		panic(err) // the embed pattern names both directories
	}
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := assets.FS.ReadFile(path.Join(dir, e.Name()))
		if err != nil {
			panic(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

// RuleFiles maps asset file names ("OpenUHRules.prl") to rule sources.
func RuleFiles() map[string]string { return maps.Clone(ruleFiles) }

// ScriptFiles maps asset file names ("load_balance.pes") to script sources.
func ScriptFiles() map[string]string { return maps.Clone(scriptFiles) }

// WriteAssets copies the embedded knowledge base out under dir (creating
// dir/rules and dir/scripts), overwriting files of the same name.
func WriteAssets(dir string) error {
	err := fs.WalkDir(assets.FS, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		target := filepath.Join(dir, filepath.FromSlash(p))
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := assets.FS.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		return fmt.Errorf("diagnosis: write assets: %w", err)
	}
	return nil
}
