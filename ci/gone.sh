#!/usr/bin/env bash
# Fails if a deleted name is back: every entry of ci/gone.txt is searched
# with `git grep -E` over its paths, and any hit is printed and fails the
# run. Run from the repository root: `bash ci/gone.sh`.
#
# An entry is one line, `PATTERN => PATHS` or `PATTERN => PATHS => MODE`:
# PATTERN is an extended regular expression, PATHS are git pathspecs split
# on blanks, and MODE, if present, is one of
#   word  match whole words only (`git grep -w`);
#   code  ignore hits on lines that are `//` comments;
#   head  search each tracked file under the paths only above its
#         `#[cfg(test)]` line.
# Blank lines and lines starting with `#` are comments.
#
# A guard that cannot search fails too: a path (other than a `:`-magic
# pathspec) that matches no tracked file, or a search that errors, such as
# on a malformed pattern.
set -u
table=ci/gone.txt
failed=0
while IFS= read -r line; do
    case $line in '' | '#'*) continue ;; esac
    pattern=${line%% => *}
    rest=${line#* => }
    paths=${rest%% => *}
    mode=
    [[ $rest == *' => '* ]] && mode=${rest#* => }
    read -r -a pathv <<< "$paths"
    for p in "${pathv[@]}"; do
        if [[ $p != :* && -z $(git ls-files -- "$p") ]]; then
            echo "$table: no tracked file matches '$p' in: $line"
            failed=1
        fi
    done
    case $mode in
        '' | code) hits=$(git grep -nE -e "$pattern" -- "${pathv[@]}") ;;
        word) hits=$(git grep -nwE -e "$pattern" -- "${pathv[@]}") ;;
        head) hits=$(git ls-files -- "${pathv[@]}" | while IFS= read -r f; do
            awk '/^#\[cfg\(test\)\]/ { exit }
                { print FILENAME ":" FNR ":" $0 }' "$f"
        done | grep -E -e "$pattern") ;;
        *) echo "$table: unknown mode '$mode' in: $line" >&2; exit 2 ;;
    esac
    if [ $? -gt 1 ]; then
        echo "$table: search failed in: $line"
        failed=1
    fi
    [ "$mode" = code ] && hits=$(grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' <<< "$hits")
    if [ -n "$hits" ]; then
        echo "gone, but back: /$pattern/ in $paths"
        echo "$hits"
        failed=1
    fi
done < "$table"
exit $failed
