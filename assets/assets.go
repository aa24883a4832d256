// Package assets is the performance knowledge base as files: the inference
// rules (rules/*.prl) and the PerfExplorer analysis scripts
// (scripts/*.pes). These files are its only copy. The build embeds them, so
// every binary runs the text in this directory as it was when it was built;
// internal/diagnosis serves them by name and copies them out for the
// command-line tools.
package assets

import "embed"

// FS holds rules/*.prl and scripts/*.pes.
//
//go:embed rules/*.prl scripts/*.pes
var FS embed.FS
