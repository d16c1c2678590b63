#!/usr/bin/env python3
"""Fixture tests for tools/tlsa.py.

Every directory under the fixtures root is a miniature repository
(its own src/, bench/ or tools/ manifests) plus an `expect.txt`:

    # what the case seeds
    args: --require-manifests      (optional extra analyzer flags)
    src/core/pools.cc:9: [A1]      (one line per expected diagnostic)
    suppressions: 1                (optional, default 0)
    unresolved: 1                  (optional unresolved-call count)

The analyzer must report exactly the expected diagnostics, exit 1 when
there are any and 0 otherwise, and write a `staticanalysis` block that
agrees; a clean fixture's report must pass check_bench_json.py. The
analyzer passes on the real tree vacuously if its checks stop firing;
these fixtures keep them honest.

Usage: tlsa_test.py [--tlsa PATH] [--fixtures DIR] [NAME...]
NAMEs pick fixture directories (default: all of them); ctest runs one
NAME per test, so a failure names its fixture.
Exit: 0 all expectations met, 1 otherwise.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import re
import sys
import tempfile

DIAG_RE = re.compile(r"^(?P<path>[^:]+):(?P<line>\d+): "
                     r"\[(?P<check>[\w-]+)\]")


def parse_expect(path):
    want, opts = [], {"args": "", "suppressions": "0", "unresolved": ""}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            m = DIAG_RE.match(line)
            if m:
                want.append((m["path"], int(m["line"]), m["check"]))
            elif line and not line.startswith("#"):
                key, _, value = line.partition(":")
                opts[key.strip()] = value.strip()
    return sorted(want), opts


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(here))
    ap = argparse.ArgumentParser()
    ap.add_argument("--tlsa",
                    default=os.path.join(root, "tools", "tlsa.py"))
    ap.add_argument("--fixtures", default=os.path.join(here, "fixtures"))
    ap.add_argument("names", nargs="*", metavar="NAME")
    args = ap.parse_args()
    # The analyzer and the schema checker run in this process: one
    # interpreter start instead of one per fixture.
    sys.path.insert(0, os.path.dirname(os.path.abspath(args.tlsa)))
    tlsa = importlib.import_module("tlsa")
    checker = importlib.import_module("check_bench_json")

    failures = []

    def check(cond, what):
        print(f"  [{'ok' if cond else 'FAIL'}] {what}")
        if not cond:
            failures.append(what)

    names = sorted(n for n in os.listdir(args.fixtures) if
                   os.path.isfile(os.path.join(args.fixtures, n,
                                               "expect.txt")))
    unknown = sorted(set(args.names) - set(names))
    if unknown:
        ap.error(f"no fixture named {', '.join(unknown)}")
    names = sorted(set(args.names)) or names
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            fixdir = os.path.join(args.fixtures, name)
            want, opts = parse_expect(os.path.join(fixdir, "expect.txt"))
            report = os.path.join(tmp, f"{name}.json")
            print(f"fixture {name}:")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = tlsa.main([f"--root={fixdir}", f"--json={report}",
                                *opts["args"].split()])
            got = sorted((m["path"], int(m["line"]), m["check"]) for m in
                         map(DIAG_RE.match, out.getvalue().splitlines())
                         if m)
            check(got == want, f"{name}: diagnostics {got} == {want}")
            check(rc == (1 if want else 0), f"{name}: exit {rc}")
            with open(report, encoding="utf-8") as f:
                sa = json.load(f)["staticanalysis"]
            check(sa["violations"] == len(want) and
                  sa["suppressions"] == int(opts["suppressions"]) and
                  sum(sa["suppressions_by_check"].values()) ==
                  sa["suppressions"],
                  f"{name}: json violations/suppressions {sa}")
            sources = sum(fn.endswith((".h", ".cc", ".cpp"))
                          for d in ("src", "bench", "tools")
                          for _, _, fs in os.walk(os.path.join(fixdir, d))
                          for fn in fs)
            check(sa["checks_run"] == len(tlsa.CHECK_IDS) and
                  sa["files_scanned"] == sources,
                  f"{name}: json checks_run/files_scanned")
            if opts["unresolved"]:
                check(sa["unresolved_calls"] == int(opts["unresolved"]),
                      f"{name}: json unresolved_calls "
                      f"{sa['unresolved_calls']}")
            if not want:
                check(checker.check_file(report),
                      f"{name}: check_bench_json accepts it")

    if failures:
        print(f"\n{len(failures)} expectation(s) FAILED")
        return 1
    print(f"\nall fixture expectations met ({len(names)} fixtures)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
