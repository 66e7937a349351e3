#!/bin/sh
# check-regs-range.sh PDGC_ALLOC PDGC_SERVE PDGC_FUZZ SCRATCH_DIR
#
# The three inputs that set a target's registers per class take the same
# range, MinRegsPerClass..MaxRegsPerClass (machine/TargetDesc.h): 2 to 32,
# so the register file fits one RegMask word. Checks, for
# `pdgc-alloc --regs`, `pdgc-serve --regs` and the `; regs:` header that
# `pdgc-fuzz --reduce-file` reads, that 32 is accepted and that 33 is
# rejected with an error naming the range.
#
# Exit: 0 all hold, 1 otherwise.

set -u

alloc=$1 serve=$2 fuzz=$3 dir=$4
mkdir -p "$dir"
status=0

fail() {
    echo "check-regs-range: $1"
    status=1
}

# accept WHAT STATUS CMD...: CMD exits with STATUS.
accept() {
    what=$1 want=$2
    shift 2
    "$@" >/dev/null 2>&1 </dev/null
    got=$?
    [ "$got" -eq "$want" ] || fail "$what: exit $got, expected $want"
}

# reject WHAT STATUS CMD...: CMD exits with STATUS and names the range.
reject() {
    what=$1 want=$2
    shift 2
    out=$("$@" 2>&1 </dev/null)
    got=$?
    [ "$got" -eq "$want" ] || fail "$what: exit $got, expected $want"
    case $out in
    *"[2, 32]"*) ;;
    *) fail "$what: no error naming [2, 32]: $(echo "$out" | head -n 2)" ;;
    esac
}

accept "pdgc-alloc --regs=32" 0 "$alloc" --regs=32 --emit-sample=1
reject "pdgc-alloc --regs=33" 1 "$alloc" --regs=33 --emit-sample=1

# pdgc-serve would start serving on an accepted --regs, so every run ends
# in an unknown option: the parse then fails without a daemon, and the
# error names --regs only when --regs was rejected.
out=$("$serve" --regs=32 --no-such-option 2>&1 </dev/null)
case $out in
*"--regs"*" expects"*) fail "pdgc-serve --regs=32: rejected: $out" ;;
*"unknown option '--no-such-option'"*) ;;
*) fail "pdgc-serve --regs=32: unexpected output: $out" ;;
esac
reject "pdgc-serve --regs=33" 1 "$serve" --regs=33 --no-such-option

"$alloc" --regs=32 --emit-sample=1 >"$dir/sample.ir" ||
    fail "pdgc-alloc --emit-sample failed"
for regs in 32 33; do
    { echo "; regs: $regs"; cat "$dir/sample.ir"; } >"$dir/regs$regs.pir"
done
# A clean input does not reproduce a finding: exit 1, not the usage exit 2.
accept "pdgc-fuzz '; regs: 32'" 1 "$fuzz" --reduce-file="$dir/regs32.pir"
reject "pdgc-fuzz '; regs: 33'" 2 "$fuzz" --reduce-file="$dir/regs33.pir"

exit $status
