#!/usr/bin/env bash
# Line counts per crate, split into non-test and test lines, at the working
# tree and at a git revision (default HEAD), with the difference.
#
#   scripts/loc.sh [REV]
#
# Only `.rs` files are counted. Test lines are every line of a file under a
# `tests/` or `benches/` directory, and elsewhere each `#[cfg(test)]` item:
# the attribute, through the item's closing brace (tracked by brace depth,
# with string and char literals and `//` comments ignored) or its `;`.
# Every other line is a non-test line. Files outside `crates/`
# are grouped by their top directory (`perfbench`, `vendor`), and the root
# package (`src/`, `tests/`, `examples/`) is reported as `(root)`. The
# `crates/*` row sums the crates; `total` sums everything.

set -euo pipefail
cd "$(dirname "$0")/.."

REV=${1:-HEAD}
git rev-parse -q --verify "${REV}^{commit}" >/dev/null || {
    echo "loc.sh: unknown revision ${REV}" >&2
    exit 2
}

# Prints "unit non_test test" for every counted file, reading each file's
# text from the working tree (`tree`) or from the revision given.
per_file() {
    local f
    if [ "$1" = tree ]; then
        git ls-files --cached --others --exclude-standard -- '*.rs' |
            while read -r f; do [ -f "$f" ] && echo "$f"; done
    else
        git ls-tree -r --name-only "$1" | grep '\.rs$' || true
    fi | while read -r f; do
        if [ "$1" = tree ]; then cat "$f"; else git show "$1:$f"; fi |
            awk -v f="$f" '
                BEGIN {
                    test = (f ~ /(^|\/)(tests|benches)\//)
                    n = split(f, p, "/")
                    if (p[1] == "crates" && n > 2) unit = "crates/" p[2]
                    else if ((p[1] == "perfbench" || p[1] == "vendor") && n > 1) unit = p[1]
                    else unit = "(root)"
                }
                # Brace depth change of a line, or "end" when a braceless
                # item closes with its `;`.
                function scan(s,    opens, closes) {
                    gsub(/\\./, "", s)
                    gsub(/"[^"]*"/, "", s)
                    gsub(/\047[^\047]\047/, "", s)
                    sub(/\/\/.*/, "", s)
                    opens = gsub(/\{/, "", s)
                    closes = gsub(/\}/, "", s)
                    if (opens) opened = 1
                    depth += opens - closes
                    return opened ? depth <= 0 : s ~ /;/
                }
                test { t++; next }
                item { t++; if (scan($0)) item = 0; next }
                /^[[:space:]]*#\[cfg\(test\)\]/ {
                    t++; depth = 0; opened = 0
                    rest = $0; sub(/^[[:space:]]*#\[cfg\(test\)\]/, "", rest)
                    item = !scan(rest)
                    next
                }
                { c++ }
                END { print unit, c + 0, t + 0 }'
    done
}

{
    per_file tree | sed 's/^/tree /'
    per_file "${REV}" | sed 's/^/rev /'
} | awk -v rev="${REV}" '
    {
        units[$2] = 1
        code[$1, $2] += $3; tests[$1, $2] += $4
        code[$1, "total"] += $3; tests[$1, "total"] += $4
        if ($2 ~ /^crates\//) { code[$1, "crates/*"] += $3; tests[$1, "crates/*"] += $4 }
    }
    function row(key, u) {
        printf "%d %-18s %9d %9d %+7d   %9d %9d %+7d\n", key, u,
            code["tree", u], code["rev", u], code["tree", u] - code["rev", u],
            tests["tree", u], tests["rev", u], tests["tree", u] - tests["rev", u]
    }
    END {
        printf "0 %-18s %9s %9s %7s   %9s %9s %7s\n", "unit",
            "non-test", substr(rev, 1, 9), "delta", "test", substr(rev, 1, 9), "delta"
        for (u in units) row(1, u)
        row(2, "crates/*")
        row(3, "total")
    }' | sort -k1,1n -k2,2 | cut -d' ' -f2-
