#!/bin/sh
# Source hygiene gate — the `dune build @fmt` equivalent for toolchains
# without ocamlformat. Rejects trailing whitespace and tab indentation
# in OCaml sources (the conventions the tree already follows), so
# formatting drift fails CI instead of accumulating, and raw descriptor
# reads and writes in lib/ outside the one I/O module.
set -eu
cd "$(dirname "$0")/.."

TAB=$(printf '\t')
status=0

bad=$(grep -rlE "[ $TAB]+\$" --include='*.ml' --include='*.mli' \
  bin lib test bench 2>/dev/null || true)
if [ -n "$bad" ]; then
  echo "lint: trailing whitespace in:"
  echo "$bad" | sed 's/^/  /'
  status=1
fi

bad=$(grep -rl "$TAB" --include='*.ml' --include='*.mli' \
  bin lib test bench 2>/dev/null || true)
if [ -n "$bad" ]; then
  echo "lint: tab characters in:"
  echo "$bad" | sed 's/^/  /'
  status=1
fi

# One syscall path: raw descriptor reads and writes in lib/ go through
# Crd_io (lib/io/), which retries EINTR and hosts the io_eintr fault
# point; a direct call elsewhere would be a loop no signal storm reaches.
bad=$(grep -rnE 'Unix\.(read|write|single_write|write_substring|single_write_substring)([^A-Za-z0-9_]|$)' \
  --include='*.ml' --include='*.mli' lib 2>/dev/null | grep -v '^lib/io/' || true)
if [ -n "$bad" ]; then
  echo "lint: raw Unix.read/write outside lib/io (use Crd_io):"
  echo "$bad" | sed 's/^/  /'
  status=1
fi

[ "$status" -eq 0 ] && echo "lint: ok"
exit "$status"
