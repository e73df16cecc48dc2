#!/usr/bin/env bash
# Diff the ten files of tests/golden against the installed `wh3` console
# script: bash .github/golden.sh OUTDIR, from the repository root.
# bash -e stops at a nonzero exit, so each exit code is caught and tested;
# each command's stderr must be empty, and diff -u shows the lines of a
# stale golden file.
set -eu
out=$1
golden() {
  file=$1; want=$2; shift 2
  code=0
  wh3 "$@" > "$out/$file" 2> "$out/$file.err" || code=$?
  test "$code" -eq "$want"
  if test -s "$out/$file.err"; then cat "$out/$file.err"; exit 1; fi
  diff -u "tests/golden/$file" "$out/$file"
}
report() {
  name=$1; want=$2; shift 2
  golden "$name.json" "$want" verify --all "$@" --format json --no-timings
}
report verify-default 0
report verify-errata-off 1 --errata off
report verify-set-q-2q 0 --set 'q=2*q'
report verify-set-rational 0 --set 'q=3/2,u=5/7,s=2'
report verify-spec-q-u2 0 --spec 'q=u^2'
report verify-spec-q-u2-errata-off 1 --spec 'q=u^2' --errata off
report verify-mutate-omega 1 --mutate 'omega:11,11=(q/u^2)+(2)'
golden verify-default.txt 0 verify --all --no-timings
golden matrix-omega.json 0 matrix --name omega --format json
golden matrix-omega-inv-q-u2.txt 0 matrix --name omega-inv --set 'q=u^2'
