#!/usr/bin/env bash
# Prints the code phase (start address mod 64) of the hot kernels in two
# linked binaries, one row per kernel, and marks the rows that differ.
#
#   tools/kernel_phases.sh <binary-a> <binary-b>
#
# A kernel's phase can move a timing by several percent with no change to
# its code (ROADMAP item 1), so a speed claim compares the two builds'
# phases: typically the parent's and the change's .bench_build/fats_e2ebench
# or bench_micro_kernels. "-" marks a kernel that one binary does not define
# (it was inlined, renamed or is new). Exits 2 on a usage error.

set -euo pipefail

if [[ $# -ne 2 || ! -f "$1" || ! -f "$2" ]]; then
  echo "usage: $0 <binary-a> <binary-b>" >&2
  exit 2
fi

# Extended regexes over `nm -C` names. Every defined symbol that matches one
# (cold clones excepted) gets a row.
KERNELS=(
  'gemm::.*MicroKernel(Avx512|Avx2|Generic)[A-Za-z]*(<[0-9]+>)?\('
  'gemm::.*SmallGemm[A-Za-z0-9]*(<[0-9]+>)?\('
  'gemm::Sgemm(NN|NT|TN)\('
  'Conv2d::(Forward|Backward|BackwardParameters|Im2Col|Col2ImAdd)\('
  'ConvBlock(Forward|Backward|WeightGrad)Avx512<[0-9a-z, ]+>\('
  'BuildWinnerLists<[0-9]+>\('
  'ConvBlock::(Forward|Backward|BackwardParameters|FusedBackwardParameters)\('
  'MaxPool2d::(Forward|Backward)\('
  'ReLU::(Forward|Backward)\('
  'Linear::(Forward|Backward|BackwardParameters)\('
  'PhiloxGroupAvx512\(|PhiloxEngine::Fill\('
  'fats::Crc32\(|Crc32Portable\('
  # Per-step glue around the kernels: it moves with every relink too.
  'fats::(SoftmaxRowsInto|AddRowwise|AddSumRowsInto)\('
  'fats::(MatMulInto|MatMulTransposeBInto)\('
  'fats::(ApplySgdStep|FlattenParametersInto|UnflattenParameters)\('
  'Model::ComputeLossAndGradients\(|ClientRuntime::Step\(|Workspace::Get\('
)

# Prints "<phase>\t<name>" for every matching defined text symbol.
phases() {
  local pattern
  pattern="$(IFS='|'; echo "${KERNELS[*]}")"
  nm -C --defined-only "$1" |
    awk -v pat="$pattern" '
      $2 ~ /^[tTwW]$/ {
        name = $0
        sub(/^[0-9a-f]+ [tTwW] /, "", name)
        if (name ~ /\[clone/ || name !~ pat) next
        # One row per function name: drop the return type of a template
        # and the parameter list.
        gsub(/\(anonymous namespace\)/, "{anon}", name)
        sub(/^void /, "", name)
        sub(/\(.*/, "", name)
        # 256 is a multiple of 64: the last two hex digits fix the phase.
        hex = "0123456789abcdef"
        lo = substr($1, length($1) - 1)
        hi_nibble = index(hex, substr(lo, 1, 1)) - 1
        lo_nibble = index(hex, substr(lo, 2, 1)) - 1
        printf "%d\t%s\n", (16 * hi_nibble + lo_nibble) % 64, name
      }' | sort -t$'\t' -k2 -u
}

join -t$'\t' -1 2 -2 2 -a 1 -a 2 -e - -o 0,1.1,2.1 \
  <(phases "$1") <(phases "$2") |
  awk -F'\t' -v a="$1" -v b="$2" '
    BEGIN { printf "%-72s %5s %5s\n", "kernel (a = " a ")", "a", "b" }
    {
      mark = ($2 == $3) ? "" : "  *"
      printf "%-72s %5s %5s%s\n", $1, $2, $3, mark
      if ($2 != $3) moved++
    }
    END { printf "%d kernel(s) at a different phase (b = %s)\n", moved, b }'
