#!/bin/bash
# Dead-module check: fails when a header under src/ is included by nothing
# but its own .cc and files in tests/ — a module only its tests use.
# Includes from src/, bench/, examples/ and perfbench/ count as uses.
#
#   tests/check_dead_modules.sh [repo root]    # default: this script's repo
set -u
cd "${1:-$(dirname "$0")/..}" || exit 2
status=0
while IFS= read -r header; do
  if ! grep -rlF --include='*.h' --include='*.cc' \
         "#include \"${header#src/}\"" src bench examples perfbench |
       grep -qvxF "${header%.h}.cc"; then
    echo "dead module: $header (included only by its own .cc and tests)"
    status=1
  fi
done < <(find src -name '*.h' | sort)
exit $status
