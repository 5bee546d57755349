#!/usr/bin/env bash
# Code only tests run: every agnopol/internal function that some package's
# test binary links but no shipped binary does, per package, then the
# total. Shipped binaries are every `package main` under cmd/ and
# examples/ plus bench/ (its own module); all of them, and each
# internal/... test binary, are built with inlining off (-gcflags=all=-l)
# so the linker's dead-code pass, not the inliner, decides what is left,
# and `go tool nm` lists what each one links. Functions declared in
# _test.go files are dropped (`go tool addr2line` names the file). Output:
# a count per package, then the functions per package, then TOTAL. A
# report like loc.sh, not a gate: ROADMAP items 2 and 10 pick their next
# deletions from it. Needs nothing beyond the Go toolchain.
# Usage: scripts/unreached.sh [dir]   (defaults to the repository root)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/ship" "$tmp/test"

for pkg in $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./cmd/... ./examples/...); do
    go build -gcflags=all=-l -o "$tmp/ship/${pkg##*/}" "$pkg"
done
(cd bench && go build -gcflags=all=-l -o "$tmp/ship/bench" .)
for pkg in $(go list ./internal/...); do
    go test -c -gcflags=all=-l -o "$tmp/test/$(echo "$pkg" | tr / _).test" "$pkg" > /dev/null
done

# funcs BIN: "address name" of every agnopol/internal text symbol BIN links.
funcs() {
    go tool nm "$1" | awk '($2 == "T" || $2 == "t") && $3 ~ /^agnopol\/internal\// { print $1, $3 }'
}

for bin in "$tmp"/ship/*; do funcs "$bin"; done | awk '{ print $2 }' | sort -u > "$tmp/shipped"
: > "$tmp/unreached"
for bin in "$tmp"/test/*; do
    [ -e "$bin" ] || continue
    funcs "$bin" | sort -k2 > "$tmp/linked"
    awk '{ print $2 }' "$tmp/linked" | sort -u | comm -23 - "$tmp/shipped" > "$tmp/only"
    [ -s "$tmp/only" ] || continue
    # addr2line prints two lines per address: the function, then file:line.
    # Compiler-generated wrappers and closures follow the function they
    # belong to, so only that one is listed.
    awk 'NR == FNR { only[$1] = 1; next } ($2 in only) { print "0x" $1 }' "$tmp/only" "$tmp/linked" |
        go tool addr2line "$bin" | paste - - |
        awk -F '\t' '$2 !~ /(_test\.go|<autogenerated>):[0-9]+$/ && $1 !~ /\.(func|gowrap|deferwrap)[0-9]+(\.|$)/ { print $1 }' >> "$tmp/unreached"
done

sort -u "$tmp/unreached" |
sed -E 's#^(agnopol/internal(/[A-Za-z0-9_]+)*)\.(.*)$#\1 \3#' |
awk '
{
    if ($1 != pkg) {
        if (pkg != "") printf "%-36s %10d\n", pkg, n
        pkg = $1; n = 0
    }
    n++; total++
    line[++lines] = "    " $2
    owner[lines] = pkg
}
END {
    if (pkg != "") printf "%-36s %10d\n", pkg, n
    for (i = 1; i <= lines; i++) {
        if (owner[i] != last) { print ""; print owner[i] ":"; last = owner[i] }
        print line[i]
    }
    print ""
    printf "%-36s %10d\n", "TOTAL", total
}'
