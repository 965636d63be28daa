#!/usr/bin/env bash
# Checks that the working tree's simulator prints exactly what a git
# revision's does: for a change meant to keep every result bit-identical
# (a refactor, a data-layout or speed change).
#
#   scripts/same_output.sh [REV]      # REV defaults to HEAD
#
# Exports REV (`git archive`) into a temporary directory and builds it
# there with its own CARGO_TARGET_DIR, builds the working tree as usual,
# both offline, then diffs the two builds' stdout for:
#   - `explore` at 1M uops on perlbench2 x mascot, mcf x store-sets,
#     bwaves x nosq, bwaves x mascot, omnetpp x phast and gcc4 x mdp-tage;
#   - `all_experiments` at MASCOT_TRACE_UOPS=20000, apart from its
#     `completed in` timing line.
# Prints each difference as a unified diff and exits 1 if there is any.
# The export registers nothing in the repository, so an interrupted run
# leaves only its temporary directory (under TMPDIR) behind. Takes a few
# minutes: two release builds plus both runs.

set -euo pipefail
cd "$(dirname "$0")/.."

REV=${1:-HEAD}
git rev-parse -q --verify "${REV}^{commit}" >/dev/null || {
    echo "same_output.sh: unknown revision ${REV}" >&2
    exit 2
}

work=$(mktemp -d "${TMPDIR:-/tmp}/same_output.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/rev" "$work/out"
git archive "$REV" | tar -x -C "$work/rev"

build() { # build DIR TARGET_DIR
    (cd "$1" && CARGO_TARGET_DIR="$2" cargo build --release --offline -q \
        -p mascot-bench --bin explore --bin all_experiments)
}
echo "building ${REV} and the working tree"
build "$work/rev" "$work/target"
build . "${CARGO_TARGET_DIR:-target}"
bins=("$work/target/release" "${CARGO_TARGET_DIR:-target}/release")

cases=(
    "bench=perlbench2 pred=mascot"
    "bench=mcf pred=store-sets"
    "bench=bwaves pred=nosq"
    "bench=bwaves pred=mascot"
    "bench=omnetpp pred=phast"
    "bench=gcc4 pred=mdp-tage"
)
status=0
compare() { # compare NAME: diffs out/NAME.rev against out/NAME.tree
    if diff -u --label "${REV}: $1" --label "working tree: $1" \
        "$work/out/$1.rev" "$work/out/$1.tree"; then
        echo "same: $1"
    else
        status=1
    fi
}
for c in "${cases[@]}"; do
    name=${c// /_}
    # shellcheck disable=SC2086 # each case is several key=value arguments
    "${bins[0]}/explore" $c uops=1000000 >"$work/out/$name.rev"
    # shellcheck disable=SC2086
    "${bins[1]}/explore" $c uops=1000000 >"$work/out/$name.tree"
    compare "$name"
done
for side in rev tree; do
    bin=${bins[0]}
    [ "$side" = tree ] && bin=${bins[1]}
    MASCOT_TRACE_UOPS=20000 "$bin/all_experiments" |
        grep -v 'completed in' >"$work/out/all_experiments.$side"
done
compare all_experiments

if [ "$status" -ne 0 ]; then
    echo "same_output.sh: output differs from ${REV}" >&2
fi
exit "$status"
