#!/bin/sh
# check-test-names.sh TEST_BINARY...
#
# Fails when a gtest binary lists a test whose name or parameter value is
# a raw byte dump ("40-byte object <C0-3D ...>"). gtest falls back to
# such a dump for a parameter type without a PrintTo; the bytes hold heap
# pointers and padding, so the ctest names discovered from the listing
# would change on every build and no two builds could be compared test
# by test.
#
# PENDING names the parameterized suites that still list a dump. Giving
# a suite a PrintTo retires the ctest id of every test in it, and a
# change should retire only a few ids, each checked old against new, so
# the suites are renamed over several changes. A dump in any other suite
# fails, and so does a pending suite that no longer lists one: drop it
# from PENDING in the change that names its parameter.
#
# Exit: 0 every listing is stable, 1 a dump, a stale PENDING entry or a
# failed listing found.

set -u

PENDING="Matrix/AllAllocators Sweep/CpgProperty"

status=0
for bin in "$@"; do
    if ! listing=$("$bin" --gtest_list_tests); then
        echo "check-test-names: $bin --gtest_list_tests failed"
        status=1
        continue
    fi
    # A suite line is unindented and ends in '.'; its tests follow,
    # indented, each with an optional "# GetParam() = ..." comment.
    findings=$(printf '%s\n' "$listing" | awk -v pending="$PENDING" '
        BEGIN { n = split(pending, p, " "); for (i = 1; i <= n; i++) want[p[i]] = 1 }
        /^[^ ]/ {
            suite = $1; sub(/\.$/, "", suite)
            if (suite in want) listed[suite] = 1
            else if (/-byte object/) print "  raw parameter dump (give the type a PrintTo): " $0
            next
        }
        /-byte object/ {
            if (suite in want) { dumped[suite] = 1; next }
            t = $0; sub(/^ +/, "", t)
            print "  raw parameter dump (give the type a PrintTo): " suite "." t
        }
        END {
            for (s in listed)
                if (!(s in dumped)) print "  stale PENDING entry: " s " lists no dump"
        }')
    if [ -n "$findings" ]; then
        echo "check-test-names: $bin:"
        printf '%s\n' "$findings"
        status=1
    fi
done
exit $status
