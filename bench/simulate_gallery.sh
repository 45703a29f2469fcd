#!/usr/bin/env bash
# Print `loopartc simulate -p P` in plain, --aligned and --skewed modes for
# every gallery program, each run under a `== NAME -p P MODE` header.
#
#   bench/simulate_gallery.sh LOOPARTC [P]
#
# LOOPARTC is the path of a built loopartc executable (for example
# _build/default/bin/loopartc.exe); P defaults to 4.  With P = 4 the output
# is pinned in bench/simulate.expected.
set -euo pipefail
loopartc=$1
p=${2:-4}
names=$("$loopartc" list | awk '{print $1}')
test -n "$names"
for name in $names; do
  for mode in plain --aligned --skewed; do
    echo "== $name -p $p $mode"
    if [ "$mode" = plain ]; then
      "$loopartc" simulate -p "$p" "$name"
    else
      "$loopartc" simulate "$mode" -p "$p" "$name"
    fi
  done
done
