#!/bin/sh
# Byte-identity check between two builds (DESIGN.md §13): runs the figure
# drivers, the single-state drivers and the noisy (density-matrix) training
# example from each build into its own temporary directory, then `diff -r`s
# the two trees (figure CSVs, `sweep_*.units.json` manifests and the
# example's stdout included).
#
#   sh tools/compare_outputs.sh PARENT_BUILD CHANGE_BUILD
#
# PARENT_BUILD and CHANGE_BUILD are CMake build directories (each holding
# bench/bench_* and examples/noisy_training). The figure drivers run at
# `--force --threads 1`; `noisy_training` runs at `--epochs 6`. Every run
# uses the caller's backend selection, so
# `QHDL_BACKEND=generic sh tools/compare_outputs.sh ...` compares under
# generic. Exits 0 when every output is byte-identical, 1 otherwise.
set -u

if [ $# -ne 2 ]; then
  echo "usage: sh tools/compare_outputs.sh PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi

figure_drivers="bench_fig6_classical_flops bench_fig7_bel_flops
bench_fig8_sel_flops bench_fig9_params bench_fig10_comparison
bench_table1_ablation bench_ablation_costmodel"
single_state_drivers="bench_expressibility bench_effective_dimension
bench_kernel_methods bench_amplitude_encoding"

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

fail() {
  echo "compare_outputs: $*" >&2
  exit 1
}

# run SIDE BUILD NAME DRIVER [ARGS...]: results into $dir/SIDE/NAME, the
# console output (which carries timings) into $dir/logs.
run() {
  side=$1 build=$2 name=$3 driver=$4
  shift 4
  exe="$build/bench/$driver"
  [ -x "$exe" ] || fail "$exe not found"
  mkdir -p "$dir/$side" "$dir/logs"
  log="$dir/logs/$side.$name.log"
  "$exe" "$@" --results-dir "$dir/$side/$name" >"$log" 2>&1 ||
    { cat "$log" >&2; fail "$side $name failed"; }
}

for side in parent change; do
  if [ "$side" = parent ]; then build=$1; else build=$2; fi
  for driver in $figure_drivers; do
    echo "compare_outputs: $side $driver"
    run "$side" "$build" "$driver" "$driver" --force --threads 1
  done
  for driver in $single_state_drivers; do
    echo "compare_outputs: $side $driver"
    run "$side" "$build" "$driver" "$driver"
  done
  # The example writes no files: its stdout (accuracy table) is compared.
  echo "compare_outputs: $side noisy_training"
  exe="$build/examples/noisy_training"
  [ -x "$exe" ] || fail "$exe not found"
  mkdir -p "$dir/$side/noisy_training"
  log="$dir/logs/$side.noisy_training.log"
  "$exe" --epochs 6 >"$dir/$side/noisy_training/stdout.txt" 2>"$log" ||
    { cat "$log" >&2; fail "$side noisy_training failed"; }
done

files=$(find "$dir/parent" -type f | wc -l)
[ "$files" -gt 0 ] || fail "the drivers wrote no files"
diff -r "$dir/parent" "$dir/change" || fail "outputs differ"
echo "compare_outputs: all $files output files byte-identical"
