#!/usr/bin/env bash
# Print `loopartc analyze --skewed -p P` for every gallery program at
# P = 2, 4 and 10, each run under a `== NAME -p P` header.  Every run must
# exit 0: the parallelepiped engine declines (never raises) where
# rank(G) < nesting.
#
#   bench/skewed_gallery.sh LOOPARTC
#
# LOOPARTC is the path of a built loopartc executable (for example
# _build/default/bin/loopartc.exe).  The output is pinned in
# bench/skewed.expected.
set -euo pipefail
loopartc=$1
names=$("$loopartc" list | awk '{print $1}')
test -n "$names"
for p in 2 4 10; do
  for name in $names; do
    echo "== $name -p $p"
    "$loopartc" analyze --skewed -p "$p" "$name"
  done
done
