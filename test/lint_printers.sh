#!/usr/bin/env bash
# CI lint: lib/ must not print Caesium syntax with the ppx-derived
# printers.  They render a whole AST through Format — every struct
# layout in full, on several lines — and they once sat on the checker's
# hot path twice: the cache key printed each function body
# (Depgraph now hashes a structural encoding) and every ⊢EXPR
# derivation node printed its expression (Lang.pp_expr now renders one
# C-like line).  The derived printers remain for `refinedc cfg` in bin/.
#
# The check is purely syntactic: any mention in lib/ of
#   show_expr / show_stmt / show_block / show_terminator / show_func,
#   Syntax.pp_expr / pp_stmt / pp_block / pp_terminator / pp_func,
#   pp_struct_layout / show_struct_layout
# fails the build.

set -u

LIB_DIR="${1:-lib}"

PATTERN='\bshow_(expr|stmt|block|terminator|func)\b|\bSyntax\.pp_(expr|stmt|block|terminator|func)\b|\b(pp|show)_struct_layout\b'

violations=$(grep -rnE --include='*.ml' "$PATTERN" "$LIB_DIR" || true)

if [ -n "$violations" ]; then
  echo "lint_printers: derived Caesium printers called from lib/:" >&2
  printf '%s\n' "$violations" >&2
  echo "Hash syntax structurally (Depgraph) or render it on one line" >&2
  echo "(Lang.pp_expr); the derived printers are for bin/ only." >&2
  exit 1
fi

echo "lint_printers: OK (no derived Caesium printers in $LIB_DIR)"
