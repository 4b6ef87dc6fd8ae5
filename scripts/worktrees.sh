# worktrees.sh — sourced by ab.sh and perf_gate.sh: checks out a base
# commit and HEAD side by side and cleans up after the sourcing script.
#
#   repo=$(pwd)                  # the repository root
#   source scripts/worktrees.sh  # sets tmp, installs the traps
#   worktrees BASE_REV HEAD_REV  # checks out $tmp/base and $tmp/head
#
# tmp is a fresh directory under ${TMPDIR:-/tmp}, outside the
# repository. On exit, also on a signal, the traps kill every process
# the sourcing script started, remove both worktrees and delete tmp.

tmp=$(mktemp -d "${TMPDIR:-/tmp}/$(basename "$0" .sh).XXXXXX")

kill_tree() {
    local child
    for child in $(pgrep -P "$1" || true); do
        kill_tree "$child"
    done
    kill -KILL "$1" 2>/dev/null || true
}

cleanup() {
    trap - EXIT INT TERM
    for child in $(pgrep -P $$ || true); do
        kill_tree "$child"
    done
    wait 2>/dev/null || true
    for side in base head; do
        if [[ -d $tmp/$side ]]; then
            git -C "$repo" worktree remove --force "$tmp/$side" 2>/dev/null || true
        fi
    done
    git -C "$repo" worktree prune
    rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

# worktrees BASE_REV HEAD_REV checks the two commits out, detached.
worktrees() {
    git -C "$repo" worktree add --quiet --detach "$tmp/base" "$1"
    git -C "$repo" worktree add --quiet --detach "$tmp/head" "$2"
}
