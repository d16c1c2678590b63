#!/usr/bin/env python3
"""Validate a bench JSON report against the tlsim-bench-v1 schema.

Usage: check_bench_json.py FILE [FILE...]

Every bench binary writes this schema when invoked with --json=FILE:

    {
      "schema": "tlsim-bench-v1",
      "bench": "<binary name>",
      "quick": true|false,
      "jobs": <int >= 1>,
      "wall_seconds": <number >= 0>,
      "simulated_cycles": <number >= 0>,
      "replay_records": <number >= 0>,  # > 0 when simulated_cycles > 0:
                                      # a simulation replays records
      "audit": {                      # optional; present iff --audit
        "level": "commit"|"full",
        "invariants_checked": <number >= 0>,
        "violations": 0               # auditor aborts on violation
      },
      "modelcheck": {                 # optional; bench_modelcheck only
        "states_explored": <number > 0>,
        "schedules": <number > 0>,
        "dpor_reduction": <number >= 5>,
        "violations": 0               # sweeps must be clean
      },
      "critpath": {                   # optional; --prune=oracle sweeps
        "predicted_makespan": <number > 0>,   # calibrated, all points
        "band_error": <number in [0, 1)>,     # worst observed residual
        "points_total": <number > 0>,
        "points_simulated": <number >= 1>     # must prune >= 2x
      },
      "determinism": {                # optional; present iff --det-probe
        "jobs_invariant": true,       # fwd/rev commutative-fold self-check
        "stages": {                   # canonical result-stream digests
          "<stage>": "<16 hex>", ...  # capture/replay/aggregate/serialize
        }
      },
      "staticanalysis": {             # optional; tools/tlsa.py --json
        "checks_run": <int > 0>,
        "files_scanned": <int > 0>,
        "unresolved_calls": <int >= 0>,  # receivers of unseen type
        "violations": 0,              # the tree must be clean
        "suppressions": <int >= 0>,   # reasoned allows, informational
        "suppressions_by_check": {    # census; must sum to the count
          "<check>": <int >= 0>, ...
        }
      },                              # results[] must name every pass
                                      # tools/tlsa.py defines, each with
                                      # violations == 0
      "replay": {                     # optional; absent only in
        "simd": "avx2"|"scalar",      # pre-replay-block reports
        "<counter>": <number >= 0>,   # the replay.* counter group
        ...                           # (runs, epochs, records,
      },                              # runPoolHits, runPoolAllocs, ...)
      "results": [
        {"name": "<point name>", "<metric>": <number>, ...},
        ...
      ]
    }

Exit status 0 if every file validates, 1 otherwise (with one line per
problem on stderr). Used by the `bench-smoke` ctest label.
"""

import json
import numbers
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tlsa  # noqa: E402  (the pass list a full run must report)


def fail(path, msg):
    print(f"{path}: {msg}", file=sys.stderr)
    return False


def is_num(v):
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def check_result(path, i, entry):
    if not isinstance(entry, dict):
        return fail(path, f"results[{i}] is not an object")
    name = entry.get("name")
    if not isinstance(name, str) or not name:
        return fail(path, f"results[{i}] missing non-empty 'name'")
    metrics = {k: v for k, v in entry.items() if k != "name"}
    if not metrics:
        return fail(path, f"results[{i}] ({name!r}) has no metrics")
    ok = True
    for k, v in metrics.items():
        if not is_num(v):
            ok = fail(path, f"results[{i}] ({name!r}) metric {k!r} "
                            f"is not a number: {v!r}")
    return ok


def check_audit(path, audit):
    if not isinstance(audit, dict):
        return fail(path, "'audit' is not an object")
    ok = True
    level = audit.get("level")
    if level not in ("commit", "full"):
        ok = fail(path, f"audit 'level' must be 'commit' or 'full', "
                        f"got {level!r}")
    checked = audit.get("invariants_checked")
    if not is_num(checked) or checked < 0:
        ok = fail(path, "audit 'invariants_checked' must be a number "
                        f">= 0, got {checked!r}")
    violations = audit.get("violations")
    if violations != 0 or isinstance(violations, bool):
        ok = fail(path, f"audit 'violations' must be 0, "
                        f"got {violations!r}")
    return ok


def check_modelcheck(path, mc):
    if not isinstance(mc, dict):
        return fail(path, "'modelcheck' is not an object")
    ok = True
    for key in ("states_explored", "schedules"):
        v = mc.get(key)
        if not is_num(v) or v <= 0:
            ok = fail(path, f"modelcheck {key!r} must be a number > 0, "
                            f"got {v!r}")
    reduction = mc.get("dpor_reduction")
    if not is_num(reduction) or reduction < 5:
        # Acceptance bound: DPOR must prune at least 5x vs the naive
        # enumeration on the reported reduction instances.
        ok = fail(path, "modelcheck 'dpor_reduction' must be a number "
                        f">= 5, got {reduction!r}")
    violations = mc.get("violations")
    if violations != 0 or isinstance(violations, bool):
        ok = fail(path, f"modelcheck 'violations' must be 0, "
                        f"got {violations!r}")
    return ok


def check_critpath(path, cp):
    if not isinstance(cp, dict):
        return fail(path, "'critpath' is not an object")
    ok = True
    predicted = cp.get("predicted_makespan")
    if not is_num(predicted) or predicted <= 0:
        ok = fail(path, "critpath 'predicted_makespan' must be a "
                        f"number > 0, got {predicted!r}")
    band = cp.get("band_error")
    if not is_num(band) or band < 0 or band >= 1:
        # The oracle is only useful while calibrated predictions and
        # simulations agree to well under the makespan itself; the
        # tight accuracy gate is the `critpath` ctest label at its
        # stated configuration (EXPERIMENTS.md), this bound catches a
        # predictor that has come off the rails entirely.
        ok = fail(path, "critpath 'band_error' must be a number in "
                        f"[0, 1), got {band!r}")
    total = cp.get("points_total")
    simulated = cp.get("points_simulated")
    if not is_num(total) or total <= 0:
        ok = fail(path, "critpath 'points_total' must be a number "
                        f"> 0, got {total!r}")
    if not is_num(simulated) or simulated < 1:
        ok = fail(path, "critpath 'points_simulated' must be a number "
                        f">= 1, got {simulated!r}")
    if is_num(total) and is_num(simulated) and 2 * simulated > total:
        # The pruned sweep's reason to exist: at most half the grid
        # may have been simulated.
        ok = fail(path, "critpath pruning must simulate at most half "
                        f"the grid: {simulated!r} of {total!r}")
    return ok


def check_determinism(path, det):
    if not isinstance(det, dict):
        return fail(path, "'determinism' is not an object")
    ok = True
    inv = det.get("jobs_invariant")
    if inv is not True:
        # The probe self-checks combineUnordered's order-insensitivity
        # on the real per-item digests; false means a shard merge in
        # this very run was order-sensitive.
        ok = fail(path, "determinism 'jobs_invariant' must be true, "
                        f"got {inv!r}")
    stages = det.get("stages")
    if not isinstance(stages, dict) or not stages:
        return fail(path, "determinism 'stages' must be a non-empty "
                          f"object, got {stages!r}")
    for name, digest in stages.items():
        if not isinstance(name, str) or not name:
            ok = fail(path, f"determinism stage name {name!r} must be "
                            "a non-empty string")
        if not isinstance(digest, str) or len(digest) != 16 or \
                not all(c in "0123456789abcdef" for c in digest):
            ok = fail(path, f"determinism stage {name!r} digest must "
                            f"be 16 lowercase hex digits, got "
                            f"{digest!r}")
    return ok


def check_staticanalysis(path, sa):
    if not isinstance(sa, dict):
        return fail(path, "'staticanalysis' is not an object")
    ok = True
    for key, low in (("checks_run", 1), ("files_scanned", 1),
                     ("unresolved_calls", 0)):
        v = sa.get(key)
        if not isinstance(v, int) or isinstance(v, bool) or v < low:
            ok = fail(path, f"staticanalysis {key!r} must be an "
                            f"integer >= {low}, got {v!r}")
    violations = sa.get("violations")
    if violations != 0 or isinstance(violations, bool):
        ok = fail(path, "staticanalysis 'violations' must be 0, "
                        f"got {violations!r}")
    supp = sa.get("suppressions")
    if not isinstance(supp, int) or isinstance(supp, bool) or supp < 0:
        ok = fail(path, "staticanalysis 'suppressions' must be an "
                        f"integer >= 0, got {supp!r}")
    census = sa.get("suppressions_by_check")
    if not isinstance(census, dict):
        ok = fail(path, "staticanalysis 'suppressions_by_check' must "
                        f"be an object, got {census!r}")
    else:
        good = True
        for k, v in census.items():
            if not isinstance(k, str) or not k or \
                    not isinstance(v, int) or isinstance(v, bool) or \
                    v < 0:
                good = ok = fail(
                    path, "staticanalysis suppression census entry "
                          f"{k!r}: {v!r} must map a check id to an "
                          "integer >= 0")
        if good and isinstance(supp, int) and \
                sum(census.values()) != supp:
            ok = fail(path, "staticanalysis suppression census sums "
                            f"to {sum(census.values())}, but "
                            f"'suppressions' says {supp!r}")
    return ok


def check_staticanalysis_results(path, results):
    # With a staticanalysis block present, results[] carries one
    # entry per pass; a clean report means every pass ran and is
    # clean, not just the total. A --check subset is not a clean tree.
    ok = True
    names = {e.get("name") for e in results if isinstance(e, dict)}
    missing = [c for c in tlsa.CHECK_IDS if c not in names]
    if missing:
        ok = fail(path, "staticanalysis results[] lacks the passes "
                        f"{', '.join(missing)}: not a full tlsa run")
    for i, entry in enumerate(results):
        if not isinstance(entry, dict):
            continue  # shape errors reported by check_result
        v = entry.get("violations")
        if v != 0 or isinstance(v, bool):
            ok = fail(path, f"results[{i}] "
                            f"({entry.get('name')!r}): per-pass "
                            f"'violations' must be 0, got {v!r}")
    return ok


def check_replay(path, rep):
    if not isinstance(rep, dict):
        return fail(path, "'replay' is not an object")
    ok = True
    simd = rep.get("simd")
    if simd not in ("avx2", "scalar"):
        ok = fail(path, "replay 'simd' must be 'avx2' or 'scalar', "
                        f"got {simd!r}")
    for k, v in rep.items():
        if k == "simd":
            continue
        if not is_num(v) or v < 0:
            ok = fail(path, f"replay counter {k!r} must be a number "
                            f">= 0, got {v!r}")
    return ok


def check_file(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(path, f"unreadable or invalid JSON: {e}")

    if not isinstance(doc, dict):
        return fail(path, "top level is not an object")

    ok = True
    if doc.get("schema") != "tlsim-bench-v1":
        ok = fail(path, f"schema is {doc.get('schema')!r}, "
                        "expected 'tlsim-bench-v1'")
    if not isinstance(doc.get("bench"), str) or not doc.get("bench"):
        ok = fail(path, "'bench' must be a non-empty string")
    if not isinstance(doc.get("quick"), bool):
        ok = fail(path, "'quick' must be a boolean")
    jobs = doc.get("jobs")
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
        ok = fail(path, f"'jobs' must be an integer >= 1, got {jobs!r}")
    for key in ("wall_seconds", "simulated_cycles"):
        v = doc.get(key)
        if not is_num(v) or v < 0:
            ok = fail(path, f"{key!r} must be a number >= 0, got {v!r}")
    records = doc.get("replay_records", 0)
    if not is_num(records) or records < 0:
        ok = fail(path, f"'replay_records' must be a number >= 0, got "
                        f"{records!r}")
    elif is_num(doc.get("simulated_cycles")) and \
            doc["simulated_cycles"] > 0 and records == 0:
        ok = fail(path, "'simulated_cycles' > 0 but 'replay_records' is "
                        "0 (or missing): a replay went uncounted")
    if "audit" in doc:
        ok = check_audit(path, doc["audit"]) and ok
    if "modelcheck" in doc:
        ok = check_modelcheck(path, doc["modelcheck"]) and ok
    if "critpath" in doc:
        ok = check_critpath(path, doc["critpath"]) and ok
    if "determinism" in doc:
        ok = check_determinism(path, doc["determinism"]) and ok
    if "staticanalysis" in doc:
        ok = check_staticanalysis(path, doc["staticanalysis"]) and ok
    if "replay" in doc:
        ok = check_replay(path, doc["replay"]) and ok
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        ok = fail(path, "'results' must be a non-empty list")
    else:
        for i, entry in enumerate(results):
            ok = check_result(path, i, entry) and ok
        if "staticanalysis" in doc:
            ok = check_staticanalysis_results(path, results) and ok
    return ok


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    ok = True
    for path in argv[1:]:
        if check_file(path):
            print(f"{path}: OK")
        else:
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
