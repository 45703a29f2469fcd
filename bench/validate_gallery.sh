#!/usr/bin/env bash
# Print the verdict of `loopartc run NAME -p P --repeats 1 --validate` for
# every gallery program, and for `example3 --skewed`, at P = 2, 3, 4 and 8,
# each run under a `== NAME -p P` header.  Only the deterministic lines are
# kept: the `validation of ...` block through its `verdict:` line, and the
# `footprints = validated footprints` line; timings and checksums are
# dropped.
#
#   bench/validate_gallery.sh LOOPARTC
#
# LOOPARTC is the path of a built loopartc executable (for example
# _build/default/bin/loopartc.exe).  The output is pinned in
# bench/validate.expected.
set -euo pipefail
loopartc=$1
names=$("$loopartc" list | awk '{print $1}')
test -n "$names"
verdict() {
  "$loopartc" run "$@" --repeats 1 --validate |
    awk '/^validation of /{keep=1}
         keep{print}
         /^  verdict: /{keep=0}
         /^footprints = validated footprints: /{print}'
}
for p in 2 3 4 8; do
  for name in $names; do
    echo "== $name -p $p"
    verdict "$name" -p "$p"
  done
  echo "== example3 --skewed -p $p"
  verdict example3 --skewed -p "$p"
done
