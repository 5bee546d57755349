#!/usr/bin/env bash
# Replays the mutant catalogue, scripts/mutants.txt (its header gives the
# row format). The tree, as git sees it with untracked files included, is
# copied once into a temporary directory. Each go test run writes its
# output to a file there, which the script greps: a captured output with
# NUL bytes in it would make bash warn. For each row, the named tests
# must first pass there unmutated; then the fragment is replaced, the
# tests must fail (a "--- FAIL" line: a mutant that does not compile
# proves nothing), and the file is restored. Exits 1 naming every row
# whose fragment does not occur exactly once, whose tests fail or run
# nothing unmutated, or whose mutant survives.
#
#   bash scripts/mutants.sh
set -euo pipefail
shopt -u patsub_replacement 2>/dev/null || true
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
catalogue="$root/scripts/mutants.txt"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
tree="$work/tree"
log="$work/go-test.log"
mkdir "$tree"
(cd "$root" && git ls-files -z -co --exclude-standard |
    tar --null --ignore-failed-read -T - -cf - 2>/dev/null) | tar -xf - -C "$tree"

rows=0 bad=0
while IFS= read -r line || [ -n "$line" ]; do
    case "$line" in '' | '#'*) continue ;; esac
    rows=$((rows + 1))
    IFS=$'\x1f' read -r file frag repl pkg run extra <<<"${line// | /$'\x1f'}"
    if [ -z "${run:-}" ] || [ -n "${extra:-}" ]; then
        echo "row $rows: want five fields separated by \" | \": $line" >&2
        bad=$((bad + 1))
        continue
    fi
    name="row $rows ($file, $pkg -run $run)"
    # The trailing x keeps command substitution from eating a final \n.
    frag="$(printf '%bx' "$frag")"
    frag="${frag%x}"
    repl="$(printf '%bx' "$repl")"
    repl="${repl%x}"
    if [ ! -f "$tree/$file" ]; then
        echo "FAIL $name: no such file" >&2
        bad=$((bad + 1))
        continue
    fi
    content="$(cat "$tree/$file"; printf x)"
    content="${content%x}"
    stripped="${content//"$frag"/}"
    if [ $(((${#content} - ${#stripped}) / ${#frag})) -ne 1 ]; then
        echo "FAIL $name: the fragment occurs $(((${#content} - ${#stripped}) / ${#frag})) times, want once" >&2
        bad=$((bad + 1))
        continue
    fi
    if ! (cd "$tree" && go test -count=1 -v -run "$run" "$pkg") >"$log" 2>&1 || ! grep -q -- '--- PASS' "$log"; then
        echo "FAIL $name: the tests do not pass, or run nothing, unmutated" >&2
        tail -n 20 "$log" >&2
        bad=$((bad + 1))
        continue
    fi
    printf '%s' "${content/"$frag"/"$repl"}" >"$tree/$file"
    (cd "$tree" && go test -count=1 -run "$run" "$pkg") >"$log" 2>&1 || true
    printf '%s' "$content" >"$tree/$file"
    if killer="$(grep -a -m 1 -- '--- FAIL' "$log")"; then
        echo "killed   $name: ${killer#*--- }"
    else
        echo "SURVIVED $name" >&2
        tail -n 20 "$log" >&2
        bad=$((bad + 1))
    fi
done <"$catalogue"

if [ "$rows" -eq 0 ]; then
    echo "no mutants in $catalogue" >&2
    exit 1
fi
if [ "$bad" -gt 0 ]; then
    echo "$bad of $rows mutant rows failed" >&2
    exit 1
fi
echo "all $rows mutants killed"
