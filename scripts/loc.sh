#!/bin/sh
# loc.sh — print the line count ROADMAP tracks: non-test Go outside bench/.
# Every PR that reports "lines before and after" reports this number.
set -eu
cd "$(dirname "$0")/.."
find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l
