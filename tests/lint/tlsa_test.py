#!/usr/bin/env python3
"""Fixture tests for tools/tlsa.py.

Each fixture under tlsa_fixtures/ is a miniature repository root (its
own src/, plus tools/lockorder.txt or tools/auditseam.txt where the
case needs a manifest). Every known-bad case must produce its exact
expected diagnostics — path, check id, and line — and the suppression
cases must show that a reasoned tlsa:allow silences a check while a
bare allow is itself an error. The analyzer passes on the real tree
vacuously if its checks stop firing; this driver is what keeps them
honest.

Runs the lex engine explicitly so results are identical with and
without the libclang bindings; a second pass exercises whatever
`--engine=auto` resolves to and requires identical diagnostics from
both engines on every fixture.

Usage: tlsa_test.py [--tlsa PATH] [--fixtures DIR]
Exit: 0 all expectations met, 1 otherwise.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

DIAG_RE = re.compile(r"^(?P<path>[^:]+):(?P<line>\d+): "
                     r"\[(?P<check>[\w-]+)\] ")

# fixture dir -> (expected [(path, check, line), ...], exit code,
#                 expected suppression count)
EXPECTATIONS = {
    # Seeded lock-order inversion: the manifest declares
    # `Pool::mtx_ < Registry::mtx_`, the code nests the other way.
    "a1_inversion": ([("src/core/pools.cc", "A1", 9)], 1, 0),
    # Two functions nesting the same pair in opposite orders: a
    # wait-for cycle, reported once per closing edge.
    "a1_cycle": ([("src/core/cycle.cc", "A1", 8),
                  ("src/core/cycle.cc", "A1", 16)], 1, 0),
    # Calls on receivers not declared as a project class (a
    # template-typed parameter, a local of a foreign type, an `auto`
    # local) bind to no method, whatever a unique method name or a
    # one-letter spelling hints; a parameter declared as a project
    # class still binds.
    "a1_unknown_receiver": ([("src/sim/cache.cc", "A1", 23)], 1, 0),
    # Constructor calls: a `static const Site s("...")` declaration
    # runs Site's ctor, whose init list interns under the registry
    # lock; `cat->table(1).put()` reaches Table::put through the
    # declared return type of Catalog::table, on an `auto` local made
    # by std::make_unique.
    "a1_ctor_call": ([("src/db/loader.cc", "A1", 11),
                      ("src/db/loader.cc", "A1", 36)], 1, 0),
    # Seeded unaudited mutator: speculative state written from a file
    # the AuditSink seam does not cover.
    "a2_unaudited": ([("src/sim/rogue.cc", "A2", 7)], 1, 0),
    # External call reaching the mutators through an entry point the
    # manifest never declared.
    "a2_undeclared_entry": ([("src/sim/driver.cc", "A2", 6)], 1, 0),
    # Declared (hook-requiring) entry whose body never fires a hook.
    "a2_unhooked_entry": ([("src/core/machine.cc", "A2", 4)], 1, 0),
    # Hot root grows a never-reserved vector; its callee `new`s.
    "a3_alloc": ([("src/core/hot.cc", "A3", 7),
                  ("src/core/hot.cc", "A3", 14)], 1, 0),
    # Node-based container local declared and mutated under TLSIM_HOT.
    "a3_node": ([("src/core/table.cc", "A3", 7),
                 ("src/core/table.cc", "A3", 8)], 1, 0),
    # Hot root calls through a member whose name shares no substring
    # with its class, and flush() is multiply defined: only the
    # declared-member type map resolves the allocating edge.
    "a3_member": ([("src/core/member.cc", "A3", 39)], 1, 0),
    # Hot root in a derived class calls through a member its base
    # declares: the base-chain member lookup must type the receiver
    # past the decoy flush().
    "a3_member_inherit": ([("src/core/inherit.cc", "A3", 43)], 1, 0),
    # Decoded varint indexes a table with no narrowing in between.
    "a4_index": ([("src/sim/traceio.cc", "A4", 10)], 1, 0),
    # Decoded varint used as a shift amount.
    "a4_shift": ([("src/sim/traceio.cc", "A4", 10)], 1, 0),
    # Reasoned allow: quiet, counted in the census.
    "supp_allow_ok": ([], 0, 1),
    # Bare allow: hard error AND the violation still fires.
    "supp_allow_bare": ([("src/core/hot.cc", "A3", 7),
                         ("src/core/hot.cc", "allow-syntax", 7)],
                        1, 0),
}

# Fixtures run WITHOUT --require-manifests (each declares exactly the
# manifests its scenario needs). One case below separately proves the
# flag turns a missing manifest into an error.
REQUIRE_MANIFESTS_CASE = "a1_cycle"
REQUIRE_MANIFESTS_EXTRA = [("tools/auditseam.txt", "A2", 0),
                           ("tools/lockorder.txt", "A1", 0)]


def run_tlsa(tlsa, root, engine, extra=(), json_path=None):
    cmd = [sys.executable, tlsa, f"--root={root}",
           f"--engine={engine}", *extra]
    if json_path:
        cmd += ["--json", json_path]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    diags = []
    for line in proc.stdout.splitlines():
        m = DIAG_RE.match(line)
        if m:
            diags.append((m.group("path"), m.group("check"),
                          int(m.group("line"))))
    return proc, diags


def count_sources(root):
    n = 0
    for d in ("src", "bench", "tools"):
        for _, _, files in os.walk(os.path.join(root, d)):
            n += sum(f.endswith((".h", ".cc", ".cpp")) for f in files)
    return n


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(here))
    ap = argparse.ArgumentParser()
    ap.add_argument("--tlsa",
                    default=os.path.join(root, "tools", "tlsa.py"))
    ap.add_argument("--fixtures",
                    default=os.path.join(here, "tlsa_fixtures"))
    args = ap.parse_args()

    failures = []

    def check(cond, what):
        tag = "ok" if cond else "FAIL"
        print(f"  [{tag}] {what}")
        if not cond:
            failures.append(what)

    for name, (want, want_rc, want_supp) in sorted(
            EXPECTATIONS.items()):
        fixdir = os.path.join(args.fixtures, name)
        print(f"fixture {name}:")
        if not os.path.isdir(fixdir):
            check(False, f"{name}: fixture directory exists")
            continue

        with tempfile.NamedTemporaryFile(suffix=".json",
                                         delete=False) as tf:
            json_path = tf.name
        try:
            proc, diags = run_tlsa(args.tlsa, fixdir, "lex",
                                   json_path=json_path)
            check(sorted(diags) == sorted(want),
                  f"{name}: diagnostics {sorted(diags)} == "
                  f"{sorted(want)}")
            check(proc.returncode == want_rc,
                  f"{name}: exit {proc.returncode} == {want_rc}")
            with open(json_path, encoding="utf-8") as f:
                doc = json.load(f)
            sa = doc.get("staticanalysis", {})
            check(doc.get("schema") == "tlsim-bench-v1",
                  f"{name}: json schema tag")
            check(sa.get("violations") == len(want),
                  f"{name}: json violations {sa.get('violations')} "
                  f"== {len(want)}")
            check(sa.get("suppressions") == want_supp,
                  f"{name}: json suppressions "
                  f"{sa.get('suppressions')} == {want_supp}")
            census = sa.get("suppressions_by_check")
            check(isinstance(census, dict) and
                  sum(census.values()) == sa.get("suppressions"),
                  f"{name}: json suppression census {census} sums to "
                  "the suppression count")
            check(sa.get("checks_run") == 4 and
                  sa.get("files_scanned") == count_sources(fixdir),
                  f"{name}: json files/checks counts")
        finally:
            os.unlink(json_path)

        # Engine parity: auto (libclang when importable, else lex
        # again) must agree exactly.
        proc_auto, diags_auto = run_tlsa(args.tlsa, fixdir, "auto")
        check(sorted(diags_auto) == sorted(want),
              f"{name}: auto-engine diagnostics match lex")

    # --require-manifests turns missing manifests into errors: the
    # cycle fixture carries neither manifest, so both passes complain.
    fixdir = os.path.join(args.fixtures, REQUIRE_MANIFESTS_CASE)
    print(f"fixture {REQUIRE_MANIFESTS_CASE} (--require-manifests):")
    want = sorted(EXPECTATIONS[REQUIRE_MANIFESTS_CASE][0] +
                  REQUIRE_MANIFESTS_EXTRA)
    proc, diags = run_tlsa(args.tlsa, fixdir, "lex",
                           extra=["--require-manifests"])
    check(sorted(diags) == want,
          f"require-manifests: diagnostics {sorted(diags)} == {want}")
    check(proc.returncode == 1, "require-manifests: exit 1")

    if failures:
        print(f"\n{len(failures)} expectation(s) FAILED")
        return 1
    print(f"\nall fixture expectations met "
          f"({len(EXPECTATIONS)} fixtures)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
