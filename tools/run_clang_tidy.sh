#!/usr/bin/env bash
# Runs clang-tidy (config: .clang-tidy at the repo root) over the FATS tree.
#
# Usage:
#   tools/run_clang_tidy.sh [-p BUILD_DIR] [FILE...]
#
# With no FILE arguments every .cc/.cpp under src/, tools/, bench/, and
# examples/ is checked; tools/ci.sh passes just the files changed on the
# branch.  BUILD_DIR must contain compile_commands.json (any configured
# build dir works; CMAKE_EXPORT_COMPILE_COMMANDS is on by default).
#
# If no clang-tidy binary is available the script warns and exits 0 so the
# rest of the toolchain (fats_analyze, sanitizer tests) still gates the tree.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=""
FILES=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    -p) BUILD_DIR="$2"; shift 2 ;;
    -h|--help)
      echo "usage: tools/run_clang_tidy.sh [-p BUILD_DIR] [FILE...]"
      exit 0 ;;
    *) FILES+=("$1"); shift ;;
  esac
done

TIDY=""
for cand in clang-tidy clang-tidy-19 clang-tidy-18 clang-tidy-17 \
            clang-tidy-16 clang-tidy-15 clang-tidy-14; do
  if command -v "$cand" > /dev/null 2>&1; then
    TIDY="$cand"
    break
  fi
done
if [[ -z "$TIDY" ]]; then
  echo "run_clang_tidy: no clang-tidy binary found; skipping (install" \
       "clang-tidy to enable this check)" >&2
  exit 0
fi

if [[ -z "$BUILD_DIR" ]]; then
  for cand in build build-release build-asan; do
    if [[ -f "$cand/compile_commands.json" ]]; then
      BUILD_DIR="$cand"
      break
    fi
  done
fi
if [[ -z "$BUILD_DIR" || ! -f "$BUILD_DIR/compile_commands.json" ]]; then
  echo "run_clang_tidy: no compile_commands.json found; configure first," \
       "e.g. cmake --preset release" >&2
  exit 2
fi

if [[ ${#FILES[@]} -eq 0 ]]; then
  while IFS= read -r f; do
    FILES+=("$f")
  done < <(find src tools bench examples \
             \( -name '*.cc' -o -name '*.cpp' \) | sort)
fi

# Keep only C++ sources that are actually in the compilation database
# (headers are covered via HeaderFilterRegex).
TU_FILES=()
for f in "${FILES[@]}"; do
  case "$f" in
    *.cc|*.cpp) TU_FILES+=("$f") ;;
  esac
done
if [[ ${#TU_FILES[@]} -eq 0 ]]; then
  echo "run_clang_tidy: nothing to check"
  exit 0
fi

echo "run_clang_tidy: $TIDY -p $BUILD_DIR (${#TU_FILES[@]} files)"
STATUS=0
for f in "${TU_FILES[@]}"; do
  "$TIDY" -p "$BUILD_DIR" --quiet "$f" || STATUS=1
done
exit $STATUS
