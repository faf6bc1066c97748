#!/usr/bin/env bash
# Regenerates the golden state files listed in MANIFEST.
#
#   tests/data/golden/regenerate.sh path/to/umicro_cli
#
# Runs every MANIFEST line on the scalar kernel tier and writes
# <stem>.state (--state-out) and <stem>.uckpt (the final checkpoint) next
# to this script, plus <stem>.resume.uckpt for `resume <stem>` lines.
# Lines sharing a stem must produce identical bytes, and a resumed run
# must reproduce its stem's state; the script fails otherwise.
# Regenerate only when a change is meant to alter clustering behaviour,
# and say so in the change description.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 path/to/umicro_cli" >&2
  exit 2
fi
cli=$(realpath "$1")
here=$(cd "$(dirname "$0")" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
declare -A first_flags=()

# run <flags...>: one scalar-tier run in a fresh $work/run.
run() {
  rm -rf "$work/run" && mkdir -p "$work/run/ckpt"
  (cd "$work/run" && UMICRO_KERNEL=scalar "$cli" "$@" \
      --state-out="$work/run/state" --checkpoint-dir="$work/run/ckpt" \
      >/dev/null)
}

while read -r stem flags; do
  [[ -z "$stem" || "$stem" == \#* ]] && continue
  if [[ "$stem" == resume ]]; then
    stem=$flags
    # shellcheck disable=SC2086  # flags are whitespace-separated
    run ${first_flags[$stem]} --checkpoint-every=3000
    cp "$work/run/ckpt/checkpoint-00000001.uckpt" "$here/$stem.resume.uckpt"
    mkdir -p "$work/resume"
    rm -f "$work/resume"/*
    cp "$here/$stem.resume.uckpt" "$work/resume/checkpoint-00000001.uckpt"
    # shellcheck disable=SC2086
    (cd "$work/run" && UMICRO_KERNEL=scalar "$cli" ${first_flags[$stem]} \
        --checkpoint-dir="$work/resume" --recover \
        --state-out="$work/resumed.state" >/dev/null)
    cmp -s "$work/resumed.state" "$here/$stem.state" || {
      echo "$stem: resumed run does not reproduce the state" >&2
      exit 1
    }
    echo "$stem: resume ok"
    continue
  fi
  # shellcheck disable=SC2086
  run $flags
  ckpt="$work/run/ckpt/checkpoint-00000001.uckpt"
  if [[ -n "${first_flags[$stem]:-}" ]]; then
    cmp -s "$work/run/state" "$here/$stem.state" &&
      cmp -s "$ckpt" "$here/$stem.uckpt" || {
        echo "$stem: runs sharing this stem disagree ($flags)" >&2
        exit 1
      }
  else
    cp "$work/run/state" "$here/$stem.state"
    cp "$ckpt" "$here/$stem.uckpt"
    first_flags[$stem]=$flags
  fi
  echo "$stem: ok ($flags)"
done < "$here/MANIFEST"
