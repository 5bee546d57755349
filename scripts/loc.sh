#!/usr/bin/env bash
# Size of the shipped code: for every Go package directory, the number of
# non-test code lines (blank and comment-only lines excluded) and the
# number of exported top-level symbols (funcs, methods, types, and
# const/var names — one per declaration line, gofmt layout assumed), then
# the repo-wide totals. ROADMAP item 5 tracks these as a trend line.
# Usage: scripts/loc.sh [dir]   (defaults to the repository root)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' | sort |
awk '
function scan(file,    line, out, i, j, inblock, decl, dir) {
	dir = file
	sub(/\/[^\/]*$/, "", dir)
	sub(/^\.\/?/, "", dir)
	if (dir == "") dir = "."
	if (!(dir in code)) { order[++n] = dir; code[dir] = 0; syms[dir] = 0 }
	inblock = 0
	decl = 0
	while ((getline line < file) > 0) {
		# Exported symbols: top-level declarations and grouped ones.
		if (!inblock) {
			if (line ~ /^func [A-Z]/ || line ~ /^func \([^)]*\) [A-Z]/ ||
				line ~ /^type [A-Z]/ || line ~ /^(var|const) [A-Z]/) syms[dir]++
			else if (line ~ /^(var|const|type) \($/) decl = 1
			else if (line ~ /^\)/) decl = 0
			else if (decl && line ~ /^\t[A-Z][A-Za-z0-9_]*([ ,]|$)/) syms[dir]++
		}
		# Code lines: drop comments, count what is left.
		out = ""
		while (length(line) > 0) {
			if (inblock) {
				i = index(line, "*/")
				if (i == 0) { line = ""; break }
				line = substr(line, i + 2); inblock = 0
				continue
			}
			i = index(line, "//"); j = index(line, "/*")
			if (i > 0 && (j == 0 || i < j)) { out = out substr(line, 1, i - 1); break }
			if (j > 0) { out = out substr(line, 1, j - 1); line = substr(line, j + 2); inblock = 1; continue }
			out = out line
			break
		}
		gsub(/[ \t\r]/, "", out)
		if (out != "") code[dir]++
	}
	close(file)
}
{ scan($0) }
END {
	printf "%-36s %10s %10s\n", "package", "code_lines", "exported"
	for (k = 1; k <= n; k++) {
		d = order[k]
		printf "%-36s %10d %10d\n", d, code[d], syms[d]
		tc += code[d]; ts += syms[d]
	}
	printf "%-36s %10d %10d\n", "TOTAL", tc, ts
}'
