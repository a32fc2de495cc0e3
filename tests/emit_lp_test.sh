#!/bin/sh
# lampc --emit-lp dumps the model the flow solved: its constraint rows
# equal --emit-json's numConstraints (171 on GSM), and the arms that
# solve no MILP reject --emit-lp as a usage error (exit 1).
#
#   emit_lp_test.sh <lampc> <scratch dir>
lampc=$1
dir=$2
mkdir -p "$dir" || exit 1
rows() {
  awk '/^Subject To$/ {s = 1; next} /^Bounds$/ {s = 0} s {n++} END {print n + 0}' "$1"
}
"$lampc" GSM --threads=1 --time-limit=60 --quiet \
  --emit-lp="$dir/gsm.lp" --emit-json="$dir/gsm.json" || exit 1
dumped=$(rows "$dir/gsm.lp")
solved=$(grep -o '"numConstraints":[0-9]*' "$dir/gsm.json" | cut -d: -f2)
echo "dumped $dumped rows, solved $solved"
[ "$dumped" -eq 171 ] && [ "$dumped" = "$solved" ] || exit 1
for m in hls greedy; do
  "$lampc" GSM --method=$m --emit-lp="$dir/none.lp" --quiet
  rc=$?
  echo "--method=$m: exit $rc"
  [ "$rc" -eq 1 ] || exit 1
done
