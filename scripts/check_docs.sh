#!/usr/bin/env bash
# Keep hrsim_cli --help and README.md's CLI reference in lockstep,
# in both directions, and keep the docs' DESIGN.md section citations
# true. Run as a ctest (docs_check) so neither side can silently
# drift:
#
#  help -> README: every long option the help text mentions must be
#      documented somewhere in the README.
#  README -> help: every long option named inside the README's
#      "## `hrsim_cli` reference" section must still exist in the
#      help text, so the reference cannot keep describing removed or
#      renamed flags. The check is scoped to that section because the
#      rest of the README legitimately mentions foreign flags
#      (cmake --build, ctest --test-dir, ...).
#  sections: DESIGN.md (beside the README) numbers its "## N."
#      sections 1, 2, 3, ... without gaps, and every "DESIGN §N" or
#      "DESIGN.md §N" in README.md and EXPERIMENTS.md names one of
#      them, also where the citation wraps a line.
#  paths: every repository path with a file extension that README.md,
#      DESIGN.md or EXPERIMENTS.md cites (scripts/ab_bench.sh,
#      src/mesh/mesh_router.hh, or mesh/mesh_router.hh relative to
#      src/) exists. A path counts as a repository path when its
#      first directory is a top-level directory of the repository or
#      of src/. Patterns (*, {a,b}, <placeholder>) are skipped.
#
# Usage: scripts/check_docs.sh HRSIM_CLI README
set -u

if [[ $# -ne 2 ]]; then
    echo "usage: $0 HRSIM_CLI README" >&2
    exit 2
fi

cli=$1
readme=$2

if [[ ! -x "$cli" ]]; then
    echo "error: $cli is not executable" >&2
    exit 2
fi
docs=$(dirname "$readme")
for doc in "$readme" "$docs/DESIGN.md" "$docs/EXPERIMENTS.md"; do
    if [[ ! -r "$doc" ]]; then
        echo "error: cannot read $doc" >&2
        exit 2
    fi
done

help_flags=$("$cli" --help 2>&1 | grep -oE -- '--[a-z][a-z-]*' | sort -u)

failed=0
# Direction 1: every long option the help text mentions, deduplicated.
for flag in $help_flags; do
    # Word-boundary match so --r does not accept --ring as coverage.
    if ! grep -qE -- "${flag}([^a-z-]|$)" "$readme"; then
        echo "README.md does not document $flag" >&2
        failed=1
    fi
done

# Direction 2: every flag the CLI reference section documents must
# still exist. --help itself is the one flag the usage text does not
# list.
reference_flags=$(awk '/^## `hrsim_cli` reference/{f=1;next}
                       /^## /{f=0} f' "$readme" |
                  grep -oE -- '--[a-z][a-z-]*' | sort -u)
for flag in $reference_flags; do
    [[ "$flag" == "--help" ]] && continue
    if ! grep -qE -- "${flag}([^a-z-]|$)" <<< "$help_flags"; then
        echo "README.md documents $flag, which hrsim_cli --help" \
             "no longer mentions" >&2
        failed=1
    fi
done

# Sections: numbered without gaps, and every citation resolves.
sections=$(grep -oE '^## [0-9]+\.' "$docs/DESIGN.md" | grep -oE '[0-9]+')
want=1
for n in $sections; do
    if [[ $n -ne $want ]]; then
        echo "DESIGN.md numbers a section $n where $want belongs" >&2
        failed=1
    fi
    want=$((n + 1))
done
for doc in "$readme" "$docs/EXPERIMENTS.md"; do
    cited=$(tr -s '[:space:]' ' ' < "$doc" |
            grep -oE 'DESIGN(\.md)? §[0-9]+' | grep -oE '[0-9]+$' |
            sort -un)
    for n in $cited; do
        if ! grep -qx "$n" <<< "$sections"; then
            echo "$(basename "$doc") cites DESIGN.md §$n, which has" \
                 "no '## $n.' heading" >&2
            failed=1
        fi
    done
done

# Paths: resolve each cited path against the repository root or src/.
path_re='[A-Za-z_][A-Za-z0-9_.{},*<>-]*(/[A-Za-z0-9_.{},*<>-]+)+'
path_re+='\.[A-Za-z][A-Za-z0-9]*'
for doc in "$readme" "$docs/DESIGN.md" "$docs/EXPERIMENTS.md"; do
    while IFS= read -r path; do
        [[ "$path" == *[\*{}\<\>]* ]] && continue
        root=${path%%/*}
        if [[ -d "$docs/$root" ]]; then
            root=$docs
        elif [[ -d "$docs/src/$root" ]]; then
            root=$docs/src
        else
            continue # not a repository path (build/, OUT/, ...)
        fi
        if [[ ! -e "$root/$path" ]]; then
            echo "$(basename "$doc") cites $path, which does not" \
                 "exist" >&2
            failed=1
        fi
    done < <(grep -oE "$path_re" "$doc" | sort -u)
done

if [[ $failed -ne 0 ]]; then
    echo "docs check failed: reconcile hrsim_cli --help, the CLI" \
         "reference in $readme, the DESIGN.md citations and the" \
         "cited paths" >&2
    exit 1
fi
echo "docs check passed: hrsim_cli --help and the README CLI" \
     "reference agree in both directions, every DESIGN.md citation" \
     "resolves, and every cited repository path exists"
