#!/bin/sh
# Result-store check for the figure drivers (DESIGN.md §10): a sweep is
# byte-identical at --threads 1 and 2, unit manifest included, and a second
# run without --force replays that manifest instead of training: its
# --verbose counter lines show no training run, it prints the fresh run's
# figure (status lines starting with `[` aside) and it leaves every file in
# the results dir byte-identical.
#
#   sh tools/bench_replay_test.sh ./build/bench/bench_fig6_classical_flops
set -u
driver=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

fail() {
  echo "bench_replay_test: $*"
  exit 1
}

"$driver" --force --threads 1 --results-dir "$dir/a" >"$dir/fresh.out" ||
  fail "fresh --threads 1 run failed"
"$driver" --force --threads 2 --results-dir "$dir/b" >/dev/null ||
  fail "fresh --threads 2 run failed"
ls "$dir"/a/sweep_*.units.json >/dev/null 2>&1 || fail "no unit manifest"
diff -r "$dir/a" "$dir/b" || fail "--threads 1 and 2 results differ"

cp -R "$dir/a" "$dir/before"
"$driver" --threads 1 --verbose --results-dir "$dir/a" \
  >"$dir/replay.out" 2>"$dir/replay.err" || fail "replay run failed"
grep -q '^\[cache\]' "$dir/replay.out" || fail "replay restored no units"
grep -q 'fastpath\.workspace_runs=0 ' "$dir/replay.err" ||
  fail "replay logged no counters"
if grep -Eq 'fastpath\.(module|workspace)_runs=[1-9]' "$dir/replay.err"
then
  fail "replay trained"
fi
grep -v '^\[' "$dir/fresh.out" >"$dir/fresh.fig"
grep -v '^\[' "$dir/replay.out" >"$dir/replay.fig"
diff "$dir/fresh.fig" "$dir/replay.fig" || fail "replayed figure differs"
diff -r "$dir/before" "$dir/a" || fail "replay rewrote the results dir"
echo "bench_replay_test: fresh, --threads 2 and replayed runs agree"
