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
tpc ot-demo
# the sweep's stdout and --out document equal their pins byte for byte
tpc sweep3x3 --out sweep.report > sweep.stdout
diff sweep.stdout "$data/sweep3x3.stdout"
diff sweep.report "$data/sweep3x3.report"
tpc certify @ot --povm "$data/certify/ot.povm"
tpc analyze "$data/two_state/two2.fn" --q0-sweep 0.25,0.5,0.9
tpc analyze "$data/two_state/one0.fn" --q0 0.15
# a value that starts with "-" is still the option's value
tpc analyze @neq3 --superposition -0.6,0.8,0
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
