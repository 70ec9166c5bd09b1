#!/usr/bin/env bash
# End-to-end checks of the tpc command line, byte for byte against the pins
# under tests/data.  The command is taken from $TPC (default: the installed
# `tpc` console script), so the same checks run without an install:
#
#   PYTHONPATH="$PWD/src" TPC='python -m tpc.cli' bash tests/console_script.sh
#
# Every file the checks write goes to a temporary directory.
set -euo pipefail

data="$(cd "$(dirname "$0")" && pwd)/data"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"

tpc() {
  # word-split on purpose: TPC may be a command with arguments
  ${TPC:-tpc} "$@"
}

tpc analyze @counterexample --q0 0.5
# each class's --optimize stdout equals its pin byte for byte
for fn in "$data"/optimize3x3/class*.fn; do
  tpc analyze "$fn" --optimize > optimize.stdout
  diff optimize.stdout "${fn%.fn}.stdout"
done
# labels a table declares but never uses change no output
sed 's/^outcomes: .*/outcomes: 9/' "$data/optimize3x3/class08.fn" > wide.fn
tpc analyze wide.fn --optimize > optimize.stdout
diff optimize.stdout "$data/optimize3x3/class08.stdout"
# nor do they size the certify family: a dimension mismatch, no traceback
sed 's/^outcomes: .*/outcomes: 200000/' "$data/certify/neq3.fn" > huge.fn
rc=0
err=$(tpc certify huge.fn --povm "$data/certify/neq3.povm" 2>&1 > /dev/null) || rc=$?
test "$rc" -eq 1
test "$err" = "error: POVM and family dimensions differ"
# ot-demo and @ot's analysis equal their pins byte for byte, and @ot's
# transpose, a one-sided table whose Alice has one input, prints @ot's stdout
tpc ot-demo > ot_demo.stdout
diff ot_demo.stdout "$data/two_state/ot_demo.stdout"
tpc analyze @ot > ot.stdout
diff ot.stdout "$data/two_state/ot.stdout"
tpc analyze "$data/two_state/ot_transposed.fn" > ot_transposed.stdout
diff ot_transposed.stdout ot.stdout
# the sweep's stdout and --out document equal their pins byte for byte
tpc sweep3x3 --out sweep.report > sweep.stdout
diff sweep.stdout "$data/sweep3x3.stdout"
diff sweep.report "$data/sweep3x3.report"
tpc certify @ot --povm "$data/certify/ot.povm"
tpc analyze "$data/two_state/two2.fn" --q0-sweep 0.25,0.5,0.9
tpc analyze "$data/two_state/one0.fn" --q0 0.15
# a value that starts with "-" is still the option's value
tpc analyze @neq3 --superposition -0.6,0.8,0
# a superposition at the end of the float range is an input error on one
# stderr line, its norm taken without overflow and without a numpy warning
rc=0
err=$(tpc analyze @neq3 --superposition 1e308,1e308,0 2>&1 > /dev/null) || rc=$?
test "$rc" -eq 1
test "$err" = "error: input superposition norm 1.41421356237e+308 is not 1"
rc=0
tpc analyze "$data/two_state/two2.fn" --q0-sweep -0.5,0.3 || rc=$?
test "$rc" -eq 1
rc=0
tpc analyze "$data/two_state/two2.fn" --q0 -inf || rc=$?
test "$rc" -eq 1
# help, an unknown command and a left-over option go through the full
# parser, which words them as before
tpc --help > /dev/null
tpc analyze --help > /dev/null
rc=0
tpc bogus 2> /dev/null || rc=$?
test "$rc" -eq 2
rc=0
err=$(tpc analyze @neq3 --no-such-option 2>&1 > /dev/null) || rc=$?
test "$rc" -eq 2
grep -q "tpc: error: unrecognized arguments" <<< "$err"
# a table outside the implemented scope exits 2 with main's one message
printf 'type: deterministic\nsided: two\ninputs: 4 4\noutcomes: 2\n0 1 0 1\n1 0 1 0\n0 1 0 1\n1 0 1 1\n' > big.fn
rc=0
err=$(tpc analyze big.fn 2>&1 > /dev/null) || rc=$?
test "$rc" -eq 2
test "$err" = "out of scope: only 3x3 deterministic functions are implemented; larger alphabets: conjectured insecure, not verified"
# a POVM path that names no file is an input error
rc=0
err=$(tpc certify @ot --povm missing.povm 2>&1 > /dev/null) || rc=$?
test "$rc" -eq 1
test "$err" = "error: line 1: no such POVM file: missing.povm"
# an unknown role is an input error
rc=0
tpc analyze @neq3 --role carol || rc=$?
test "$rc" -eq 1
# the --out document reads back, one report per class
python -c 'from tpc.cli import parse_report_document as parse; from pathlib import Path; n = len(parse(Path("sweep.report").read_text()).reports); assert n == 18, n'
# the tolerances are fixed: no environment variable moves them
TPC_TOL_OVERRIDE=FOO=1 tpc ot-demo
# an --out path that cannot be written is an input error
rc=0
tpc ot-demo --out missing-dir/r.txt || rc=$?
test "$rc" -eq 1
# so is the empty path
rc=0
tpc ot-demo --out "" || rc=$?
test "$rc" -eq 1
echo "console script checks passed"
