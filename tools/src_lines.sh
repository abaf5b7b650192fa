#!/bin/sh
# Prints the two src/ size counts that CHANGES.md records: every line of
# the .cpp/.hpp files, and those lines that are neither blank nor `//`
# comments. Run from anywhere: tools/src_lines.sh
set -eu
cd "$(dirname "$0")/../src"
sources() { find . \( -name '*.cpp' -o -name '*.hpp' \) -type f -exec cat {} +; }
echo "src lines (.cpp + .hpp): $(sources | wc -l)"
echo "src code lines (not blank, not // comments): $(sources | grep -cvE '^[[:space:]]*(//.*)?$')"
