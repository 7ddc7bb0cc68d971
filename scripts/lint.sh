#!/usr/bin/env bash
# clang-tidy runner for the FlyMon tree.
#
#   scripts/lint.sh                 lint every .cpp under src/ and tools/
#   scripts/lint.sh src/verify      lint one subtree
#   scripts/lint.sh --changed REF   lint only files changed vs. git REF
#                                   (default origin/main; used by CI)
#
# clang-tidy requires a compile database: configure with
#   cmake --preset default -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
# Exits 0 with a notice when clang-tidy is not installed (the container
# image for this repo does not ship it), so the script degrades to a
# no-op instead of failing builds that cannot run it.
set -euo pipefail

cd "$(dirname "$0")/.."

TIDY="${CLANG_TIDY:-clang-tidy}"
if ! command -v "$TIDY" >/dev/null 2>&1; then
  echo "lint.sh: $TIDY not found; skipping lint (install clang-tidy to enable)"
  exit 0
fi

BUILD_DIR="${BUILD_DIR:-build}"
if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
  echo "lint.sh: $BUILD_DIR/compile_commands.json missing;" \
       "configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON" >&2
  exit 1
fi

declare -a files=()
if [ "${1:-}" = "--changed" ]; then
  ref="${2:-origin/main}"
  while IFS= read -r f; do
    case "$f" in
      src/*.cpp|tools/*.cpp|tests/*.cpp) [ -f "$f" ] && files+=("$f") ;;
      src/*.hpp|tools/*.hpp|tests/*.hpp)
        # Headers are not translation units: lint every .cpp that includes
        # the changed header (HeaderFilterRegex surfaces its diagnostics).
        [ -f "$f" ] || continue
        inc="${f#src/}"
        while IFS= read -r tu; do
          files+=("$tu")
        done < <(grep -rlF --include='*.cpp' "\"$inc\"" src tools tests || true)
        ;;
    esac
  done < <(git diff --name-only --diff-filter=d "$ref"...HEAD)
  if [ "${#files[@]}" -gt 0 ]; then
    mapfile -t files < <(printf '%s\n' "${files[@]}" | sort -u)
  fi
  if [ "${#files[@]}" -eq 0 ]; then
    echo "lint.sh: no changed C++ sources vs $ref"
    exit 0
  fi
else
  scope="${1:-}"
  if [ -n "$scope" ]; then
    mapfile -t files < <(find "$scope" -name '*.cpp' | sort)
  else
    mapfile -t files < <(find src tools -name '*.cpp' | sort)
  fi
fi

echo "lint.sh: clang-tidy over ${#files[@]} file(s)"
"$TIDY" -p "$BUILD_DIR" --quiet "${files[@]}"
