#!/usr/bin/env python3
"""tlsa: the simulator's static analyzer.

Usage: tlsa.py [--root DIR] [--check ID,...] [--json FILE]
               [--require-manifests] [--list-checks] [-q]

tlsa tokenizes src/, bench/ and tools/ once, builds one program model
(tools/tlsa_model.py: function definitions, resolved calls, lock
scopes, member and local declarations) and runs four pass families
over it:

  T  token rules, one file at a time
     T2  no std::thread / pthread_create / .detach() outside
         sim/executor: host parallelism goes through the executor.
     T3  in the trace decode paths and the critical-path oracle,
         narrowing static_casts to <= 32-bit types are spelled
         checkedNarrow<T>() / truncateNarrow<T>() (base/narrow.h).
     T4  every bench main() uses the BenchSession prologue.

  A  whole-program semantics (this file)
     A1  static deadlock detection against tools/lockorder.txt.
     A2  speculative-state mutators are reached from outside the
         audited modules only through the entry points declared in
         tools/auditseam.txt, each of which calls an AuditSink hook.
     A3  TLSIM_HOT functions and their callees do not allocate.
     A4  decoded varints reach no subscript or shift amount without
         checked narrowing or a bounds comparison.

  D  determinism of the result paths (tools/tlsa_det.py), from the
     sinks in tools/detsinks.txt and the mergers in
     tools/detmergers.txt.

  P  object lifetime and recycle discipline (tools/tlsa_life.py),
     against the pooled types in tools/poolreset.txt.

DESIGN.md §4.5 describes every pass, the manifests and the runtime
counterparts (Clang thread-safety analysis, --det-probe, poison).

Suppression: `// tlsa:allow(<check>): <reason>`; a bare allow is an
`allow-syntax` error. Manifests are read from <root>/tools, so fixture
mini-repos carry their own. Without --require-manifests a missing
manifest skips the checks that need it; with it, the absence is a
diagnostic.

Exit status: 0 clean, 1 violations, 2 usage error. --json writes a
tlsim-bench-v1 report with one `staticanalysis` block, validated by
tools/check_bench_json.py.
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tlsa_det  # noqa: E402
import tlsa_life  # noqa: E402
from tlsa_model import (  # noqa: E402
    CallSite, Diagnostic, Program, Suppressions, build_file_model,
    lex_tokens, manifest_lines, match_forward)

SCAN_DIRS = ("src", "bench", "tools")
SOURCE_EXTS = (".h", ".cc", ".cpp")

# --- T: token rules ------------------------------------------------------

T2_ALLOWED_FILES = {"src/sim/executor.h", "src/sim/executor.cc"}

T3_SCOPE_FILES = {
    "src/sim/traceio.h", "src/sim/traceio.cc",
    "src/core/traceindex.h", "src/core/traceindex.cc",
    # The critical-path oracle narrows record counts, record indices
    # and cycle prefixes of a WorkloadTrace into 32-bit fields. A
    # trace loaded from disk bounds those only by its file size, so a
    # raw cast there would wrap silently where checkedNarrow panics.
    "src/core/critpath/graph.h", "src/core/critpath/graph.cc",
    "src/core/critpath/analyzer.h", "src/core/critpath/analyzer.cc",
    "src/core/critpath/placement.h", "src/core/critpath/placement.cc",
}
T3_NARROW_TYPES = {
    "std::uint8_t", "std::uint16_t", "std::uint32_t",
    "std::int8_t", "std::int16_t", "std::int32_t",
    "uint8_t", "uint16_t", "uint32_t",
    "int8_t", "int16_t", "int32_t",
    "char", "signed char", "unsigned char",
    "short", "unsigned short", "short int", "unsigned short int",
}


def check_t2(run, report):
    for rel, fm in sorted(run.prog.files.items()):
        if rel in T2_ALLOWED_FILES:
            continue
        code = fm.code
        for i, tok in enumerate(code):
            nxt = code[i + 1].text if i + 1 < len(code) else ""
            if tok.text == "pthread_create":
                report(Diagnostic(
                    rel, tok.line, "T2",
                    "direct pthread_create outside sim/executor; route "
                    "work through SimExecutor"))
            elif (tok.text == "detach" and i >= 1 and
                    code[i - 1].text in (".", "->") and nxt == "("):
                report(Diagnostic(
                    rel, tok.line, "T2",
                    "detached thread outside sim/executor; detached "
                    "threads escape the pool's shutdown and exception "
                    "discipline"))
            # Construction or declaration (std::thread t(...), member,
            # vector<std::thread>); std::thread::hardware_concurrency
            # and std::thread::id are reads, not creations.
            elif (tok.text in ("thread", "jthread") and i >= 2 and
                    code[i - 1].text == "::" and
                    code[i - 2].text == "std" and nxt != "::"):
                report(Diagnostic(
                    rel, tok.line, "T2",
                    f"direct std::{tok.text} use outside sim/executor; "
                    "fan work out through SimExecutor::parallelFor"))


def check_t3(run, report):
    for rel, fm in sorted(run.prog.files.items()):
        if rel not in T3_SCOPE_FILES:
            continue
        code = fm.code
        for i, tok in enumerate(code):
            if tok.text != "static_cast" or i + 1 >= len(code) or \
                    code[i + 1].text != "<":
                continue
            close = match_forward(code, i + 1, "<", ">")
            spelling = " ".join(t.text for t in code[i + 2:close])
            spelling = spelling.replace(" :: ", "::")
            spelling = spelling.replace("const ", "").strip()
            if spelling in T3_NARROW_TYPES:
                report(Diagnostic(
                    rel, tok.line, "T3",
                    f"raw narrowing static_cast<{spelling}> in a trace "
                    "decode path; use checkedNarrow<>/truncateNarrow<> "
                    "from base/narrow.h so truncation of untrusted "
                    "bytes is checked or explicit"))


def check_t4(run, report):
    for rel, fm in sorted(run.prog.files.items()):
        if not rel.startswith("bench/"):
            continue
        code = fm.code
        if any(t.text == "BenchSession" for t in code):
            continue
        for i, tok in enumerate(code[1:-1], 1):
            if tok.text == "main" and code[i - 1].text == "int" and \
                    code[i + 1].text == "(":
                report(Diagnostic(
                    rel, tok.line, "T4",
                    "bench main() without BenchSession; use the shared "
                    "prologue/epilogue from bench/benchutil.h "
                    "(argument parsing, executor sizing, "
                    "tlsim-bench-v1 report)"))


# --- A: whole-program semantics ------------------------------------------

# A2: the audited modules, where the AuditSink seam observes every
# speculative-state write, and the mutator vocabulary. src/verify/ is
# exempt from primitive *detection*: the auditor and the model checker
# keep their own independent models of the protocol state
# (cross-validated by bisimulation); their writes are not the
# simulator's state.
AUDITED_FILES = {
    "src/core/machine.h", "src/core/machine.cc",
    "src/core/specstate.h", "src/core/specstate.cc",
    "src/mem/victim.h", "src/mem/victim.cc",
    "src/mem/memsys.h", "src/mem/memsys.cc",
    "src/mem/l2cache.h", "src/mem/l2cache.cc",
}
A2_EXEMPT_DIRS = ("src/verify/",)
# Mutator names distinctive enough to flag on any receiver...
DISTINCT_MUTATORS = {
    "recordLoad", "recordLoadExposed", "recordStore", "clearContext",
    "clearThread", "reserveLines", "renameToCommitted",
    "dropOneCommitted",
}
# ...and generic ones, flagged when the receiver looks like the
# speculative state or the victim cache.
GENERIC_MUTATORS = {"insert", "remove", "reset", "accessLine"}
RECEIVER_HINTS = ("spec", "victim")
AUDIT_HOOKS = {"onRunStart", "onEpochStart", "onSpawn", "onAccess",
               "onCommit", "onSquash", "refreshAuditView"}

# A3: allocation vocabulary.
MALLOC_FAMILY = {"malloc", "calloc", "realloc", "strdup",
                 "aligned_alloc"}
NODE_MUTATORS = {"insert", "emplace", "emplace_hint", "try_emplace",
                 "erase"}
GROWTH_CALLS = {"push_back", "emplace_back"}

# A4 scope and vocabulary.
A4_SCOPE_FILES = {
    "src/sim/traceio.h", "src/sim/traceio.cc", "src/sim/varint.h",
    "src/core/traceindex.h", "src/core/traceindex.cc",
}
A4_SOURCES = {"decodeOne", "decodeBlock"}
# 0-based positions of the decoded-OUTPUT argument in each source's
# signature (varint.h: `decodeOne(p, avail, out, used)` /
# `decodeBlock(p, avail, out, count, used)`); the pointer inputs and
# the consumed-byte counts are trusted-bounded, not decoded values.
A4_SOURCE_OUT_ARG = {"decodeOne": 2, "decodeBlock": 2}
A4_SANITIZERS = {"checkedNarrow", "truncateNarrow"}
A4_BOUND_CALLS = {"min", "max", "clamp", "assert"}
A4_STREAMS = {"os", "is", "in", "out", "cout", "cerr", "cin",
              "stream", "ss", "oss", "iss"}


def load_lockorder(path):
    """tools/lockorder.txt: `A < B  # why` pairs."""
    rows = manifest_lines(path)
    if rows is None:
        return None
    return {tuple(p.strip() for p in body.split("<", 1))
            for _, body, _ in rows if "<" in body}


def load_auditseam(path):
    """tools/auditseam.txt: `Cls::func [audit=none] # reason` lines,
    as {qual: needs_hook}."""
    rows = manifest_lines(path)
    if rows is None:
        return None
    return {body.split()[0]: "audit=none" not in body.split()[1:]
            for _, body, _ in rows}


def may_acquire(prog):
    """Fixpoint: func qual -> set of lock ids it may (transitively)
    acquire through resolved calls."""
    acq = {fn.qual: set(a.lock_id for a in fn.acqs)
           for fn in prog.funcs}
    changed = True
    while changed:
        changed = False
        for fn in prog.funcs:
            mine = acq[fn.qual]
            before = len(mine)
            for callee in prog.callees(fn):
                if callee is not None:
                    mine |= acq[callee.qual]
            if len(mine) != before:
                changed = True
    return acq


def find_cycle(graph, start, color):
    """Iterative DFS from `start`: the first cycle found, as a node
    path ending where it started, or None."""
    stack = [(start, iter(sorted(graph.get(start, ()))))]
    path = [start]
    color[start] = 1
    while stack:
        node, it = stack[-1]
        for nxt in it:
            if color.get(nxt, 0) == 1:
                return path[path.index(nxt):] + [nxt]
            if color.get(nxt, 0) == 0:
                color[nxt] = 1
                path.append(nxt)
                stack.append((nxt, iter(sorted(graph.get(nxt, ())))))
                break
        else:
            color[node] = 2
            path.pop()
            stack.pop()
    return None


def check_a1(run, report):
    prog = run.prog
    acq = may_acquire(prog)
    # Edge set: (outer, inner) -> (relpath, line) of first witness.
    edges = {}
    for fn in prog.funcs:
        for outer, inner, line in fn.nested_edges:
            edges.setdefault((outer, inner), (fn.relpath, line))
        for ci, callee in enumerate(prog.callees(fn)):
            held = fn.calls_under.get(ci, frozenset())
            if callee is None or not held:
                continue
            for inner in acq[callee.qual]:
                for outer in held:
                    edges.setdefault((outer, inner),
                                     (fn.relpath, fn.calls[ci].line))

    graph = {}
    for (outer, inner), (rel, line) in sorted(edges.items()):
        if outer == inner:
            report(Diagnostic(
                rel, line, "A1",
                f"lock `{inner}` may be re-acquired while already "
                "held (base/sync.h Mutex is non-recursive): "
                "self-deadlock"))
        else:
            graph.setdefault(outer, set()).add(inner)
    color = {}
    for start in sorted(graph):
        if color.get(start, 0) == 0:
            cyc = find_cycle(graph, start, color) or []
            for a, b in zip(cyc, cyc[1:]):
                rel, line = edges[(a, b)]
                report(Diagnostic(
                    rel, line, "A1",
                    f"lock-order cycle: acquiring `{b}` while "
                    f"holding `{a}` closes the loop "
                    f"{' -> '.join(cyc)}"))

    lockorder = run.manifests["lockorder"]
    if lockorder is None:
        return
    for (outer, inner), (rel, line) in sorted(edges.items()):
        if outer == inner:
            continue
        if (inner, outer) in lockorder:
            report(Diagnostic(
                rel, line, "A1",
                f"lock-order inversion: acquiring `{inner}` while "
                f"holding `{outer}` contradicts the declared order "
                f"`{inner} < {outer}` (tools/lockorder.txt)"))
        elif (outer, inner) not in lockorder:
            report(Diagnostic(
                rel, line, "A1",
                f"undeclared lock nesting `{outer}` -> `{inner}`; "
                "declare it in tools/lockorder.txt as "
                f"`{outer} < {inner}` (one canonical order per pair)"))


def primitive_calls(fn, code):
    """Mutator-vocabulary calls and start-table writes in fn."""
    hits = [cs for cs in fn.calls if cs.recv and (
        cs.name in DISTINCT_MUTATORS or
        (cs.name in GENERIC_MUTATORS and
         any(h in cs.recv.lower() for h in RECEIVER_HINTS)))]
    if fn.body[1]:
        for k in range(*fn.body):
            if code[k].kind == "id" and "startTable" in code[k].text:
                nxt = code[k + 1].text
                if nxt == "[" or (nxt in (".", "->") and
                                  code[k + 2].text in
                                  ("assign", "resize", "clear",
                                   "push_back")):
                    hits.append(CallSite("startTable-write", (), "",
                                         None, code[k].line, k))
    return hits


def check_a2(run, report):
    prog = run.prog
    prims = {}  # qual -> [CallSite]
    for fn in prog.funcs:
        if fn.relpath.startswith(A2_EXEMPT_DIRS):
            continue
        hits = primitive_calls(fn, prog.code(fn))
        if hits:
            prims[fn.qual] = hits
            if fn.relpath not in AUDITED_FILES:
                for cs in hits:
                    report(Diagnostic(
                        fn.relpath, cs.line, "A2",
                        f"`{fn.qual}` mutates speculative state "
                        f"(`{cs.recv + '.' if cs.recv else ''}"
                        f"{cs.name}`) outside the audited modules; "
                        "the AuditSink seam cannot observe this "
                        "write"))

    # reaches_primitive: downward closure over resolved calls.
    reach = set(prims)
    changed = True
    while changed:
        changed = False
        for fn in prog.funcs:
            if fn.qual not in reach and any(
                    c is not None and c.qual in reach
                    for c in prog.callees(fn)):
                reach.add(fn.qual)
                changed = True

    seam = run.manifests["auditseam"]
    if seam is None:
        return
    for qual in sorted(seam):
        if qual not in prog.by_qual:
            report(Diagnostic(
                "tools/auditseam.txt", 0, "A2",
                f"manifest entry `{qual}` names no known function"))

    # External calls crossing into the audited modules onto a
    # primitive-reaching function: must be declared + instrumented.
    flagged_entries = set()
    for fn in prog.funcs:
        if fn.relpath in AUDITED_FILES:
            continue
        for ci, callee in enumerate(prog.callees(fn)):
            if callee is None or callee.qual not in reach or \
                    callee.relpath not in AUDITED_FILES:
                continue
            if callee.qual not in seam:
                report(Diagnostic(
                    fn.relpath, fn.calls[ci].line, "A2",
                    f"`{fn.qual}` calls `{callee.qual}`, which "
                    "reaches speculative-state mutators, but that "
                    "entry point is not declared in "
                    "tools/auditseam.txt"))
            elif seam[callee.qual] and \
                    callee.qual not in flagged_entries:
                code = prog.code(callee)
                if callee.body[1] and any(
                        code[k].kind == "id" and
                        code[k].text in AUDIT_HOOKS
                        for k in range(*callee.body)):
                    continue
                flagged_entries.add(callee.qual)
                report(Diagnostic(
                    callee.relpath, callee.line, "A2",
                    f"declared audit-seam entry `{callee.qual}` "
                    "never calls an AuditSink hook; instrument "
                    "it or declare `audit=none # reason` in "
                    "tools/auditseam.txt"))


def check_a3(run, report):
    prog = run.prog
    # BFS from the hot roots; `closure` maps each reached function to
    # its root, for the messages.
    closure = {fn.qual: fn.qual for fn in prog.funcs if fn.hot}
    queue = [fn for fn in prog.funcs if fn.hot]
    while queue:
        fn = queue.pop(0)
        supp = run.supp_of.get(fn.relpath)
        for ci, callee in enumerate(prog.callees(fn)):
            if callee is None or callee.qual in closure:
                continue
            # A reasoned allow on the call line prunes a cold edge.
            if supp and supp.suppresses(fn.calls[ci].line, "A3"):
                continue
            closure[callee.qual] = closure[fn.qual]
            queue.append(callee)

    for fn in prog.funcs:
        root = closure.get(fn.qual)
        if root is None or not fn.body[1]:
            continue
        code = prog.code(fn)
        where = f"TLSIM_HOT closure (root `{root}`)" \
            if root != fn.qual else "TLSIM_HOT function"
        for k in range(*fn.body):
            if code[k].kind == "id" and code[k].text == "new":
                report(Diagnostic(
                    fn.relpath, code[k].line, "A3",
                    f"`new` in `{fn.qual}`, {where}; hot paths "
                    "must use the pools and arenas"))
        for cs in fn.calls:
            if cs.name in MALLOC_FAMILY:
                report(Diagnostic(
                    fn.relpath, cs.line, "A3",
                    f"`{cs.name}()` in `{fn.qual}`, {where}"))
            elif cs.name in GROWTH_CALLS and cs.recv:
                if cs.recv in fn.local_reserved or \
                        cs.recv in prog.reserved:
                    continue
                report(Diagnostic(
                    fn.relpath, cs.line, "A3",
                    f"`{cs.recv}.{cs.name}()` in `{fn.qual}`, "
                    f"{where}, and `{cs.recv}` is never reserve()d "
                    "anywhere in the tree: steady-state reallocation "
                    "on the hot path"))
            elif cs.name in NODE_MUTATORS and cs.recv and (
                    cs.recv in prog.node_members or
                    cs.recv in fn.node_locals):
                report(Diagnostic(
                    fn.relpath, cs.line, "A3",
                    f"`{cs.recv}.{cs.name}()` in `{fn.qual}`, "
                    f"{where}: `{cs.recv}` is a node-based container "
                    "(per-element allocation); use a flat structure "
                    "(base/lineset.h, open-addressed tables)"))
        for var, line in fn.node_locals.items():
            report(Diagnostic(
                fn.relpath, line, "A3",
                f"node-based container local `{var}` in "
                f"`{fn.qual}`, {where}"))


def check_a4(run, report):
    for rel, fm in sorted(run.prog.files.items()):
        if rel not in A4_SCOPE_FILES:
            continue
        code = fm.code
        for fn in fm.funcs:
            if not fn.body or not fn.body[1]:
                continue
            tainted = set()
            start, end = fn.body
            k = start
            while k < end:
                tok = code[k]
                t = tok.text
                if tok.kind != "id":
                    k += 1
                    continue
                nxt = code[k + 1].text if k + 1 < end else ""
                prev = code[k - 1].text if k > 0 else ""

                # Source: the decoded-output argument (`&x` or the
                # bare out-block pointer) becomes tainted; the input
                # pointer and byte counts stay trusted.
                if t in A4_SOURCES and nxt == "(":
                    close = match_forward(code, k + 1, "(", ")")
                    out_pos = A4_SOURCE_OUT_ARG.get(t)
                    pos = 0
                    depth = 0
                    a = k + 2
                    while a < close:
                        ta = code[a].text
                        if ta in ("(", "["):
                            depth += 1
                        elif ta in (")", "]"):
                            depth -= 1
                        elif ta == "," and depth == 0:
                            pos += 1
                        elif pos == out_pos and code[a].kind == "id":
                            tainted.add(ta)
                        a += 1
                    k = close + 1
                    continue

                nxt2 = code[k + 2].text if k + 2 < end else ""
                # `==`, `<=`, `>=`, `!=` lex as two tokens; detect
                # comparison neighborhoods accordingly.
                is_cmp = (nxt in ("<", ">")
                          or prev in ("<", ">")
                          or (nxt == "=" and nxt2 == "=")
                          or (prev == "=" and k >= 2 and
                              code[k - 2].text in ("=", "!", "<",
                                                   ">")))
                if t in tainted:
                    # Sanitized at this use?
                    if prev == "<" and k >= 2 and \
                            code[k - 2].text in A4_SANITIZERS:
                        pass  # template arg, not a value use
                    elif _wrapped_in(code, start, k, A4_SANITIZERS):
                        pass  # checkedNarrow<T>(t): sanctioned use
                    elif is_cmp:
                        # A bounds comparison sanitizes the variable
                        # from here on (heuristic; see DESIGN.md
                        # §4.5 for why this under-approximates).
                        tainted.discard(t)
                    elif prev == "[" or \
                            _inside_subscript(code, start, k):
                        report(Diagnostic(
                            rel, tok.line, "A4",
                            f"decoded value `{t}` indexes an array "
                            f"in `{fn.qual}` without a "
                            "checkedNarrow/truncateNarrow or bounds "
                            "check (base/narrow.h): untrusted trace "
                            "bytes choose the element"))
                        tainted.discard(t)  # one diag per variable
                    elif prev in ("<<", ">>") and \
                            code[k - 2].text not in A4_STREAMS:
                        report(Diagnostic(
                            rel, tok.line, "A4",
                            f"decoded value `{t}` is a shift amount "
                            f"in `{fn.qual}` without narrowing; a "
                            "shift by >= width is undefined "
                            "behavior on untrusted input"))
                        tainted.discard(t)

                # Propagation / sanitization by (compound)
                # assignment: `t = rhs`, `t += rhs`, ...
                assign = None
                if nxt == "=" and nxt2 != "=" and \
                        prev not in ("=", "!", "<", ">"):
                    assign = k + 2
                elif nxt in ("+", "-", "|", "&", "^") and \
                        nxt2 == "=":
                    assign = k + 3
                if assign is not None:
                    rhs_ids = []
                    rhs_sanitized = False
                    m = assign
                    depth = 0
                    while m < end and (code[m].text != ";" or depth):
                        tm = code[m].text
                        if tm in ("(", "["):
                            depth += 1
                        elif tm in (")", "]"):
                            depth -= 1
                        if code[m].kind == "id":
                            if tm in A4_SANITIZERS or \
                                    tm in A4_BOUND_CALLS:
                                rhs_sanitized = True
                            rhs_ids.append(tm)
                        m += 1
                    src = any(r in tainted or r in A4_SOURCES
                              for r in rhs_ids)
                    compound = assign == k + 3
                    if src and not rhs_sanitized:
                        tainted.add(t)
                    elif t in tainted and not compound:
                        tainted.discard(t)
                k += 1


def _wrapped_in(code, start, k, wrappers):
    """Is code[k] inside the argument list of a call to one of
    `wrappers` — `wrapper(..x..)` or `wrapper<T>(..x..)`?"""
    depth = 0
    j = k - 1
    while j >= start:
        t = code[j].text
        if t == ")":
            depth += 1
        elif t == "(":
            if depth == 0:
                prev = code[j - 1] if j - 1 >= start else None
                if prev is None:
                    return False
                if prev.kind == "id":
                    return prev.text in wrappers
                if prev.text == ">":  # wrapper<T>(x)
                    b = j - 1
                    d = 0
                    while b >= start:
                        if code[b].text == ">":
                            d += 1
                        elif code[b].text == "<":
                            d -= 1
                            if d == 0:
                                break
                        b -= 1
                    return (b - 1 >= start and
                            code[b - 1].kind == "id" and
                            code[b - 1].text in wrappers)
                return False
            depth -= 1
        elif t in (";", "{", "}"):
            return False
        j -= 1
    return False


def _inside_subscript(code, start, k, max_back=24):
    """Is code[k] inside a [...] subscript (bounded lookback)?"""
    depth = 0
    j = k - 1
    floor = max(start, k - max_back)
    while j >= floor:
        t = code[j].text
        if t == "]":
            depth += 1
        elif t == "[":
            if depth == 0:
                return True
            depth -= 1
        elif t in (";", "{", "}"):
            return False
        j -= 1
    return False


# --- driver --------------------------------------------------------------

PASSES = {
    "T2": check_t2, "T3": check_t3, "T4": check_t4,
    "A1": check_a1, "A2": check_a2, "A3": check_a3, "A4": check_a4,
    **tlsa_det.PASSES, **tlsa_life.PASSES,
}
CHECK_IDS = tuple(PASSES)

# tools/<name>.txt -> (loader, the pass that reports its absence under
# --require-manifests, what it declares)
MANIFESTS = {
    "lockorder": (load_lockorder, "A1",
                  "every observed lock nesting as `Outer < Inner`"),
    "auditseam": (load_auditseam, "A2",
                  "the entry points into the audited modules"),
    **tlsa_det.MANIFESTS, **tlsa_life.MANIFESTS,
}


class Run:
    """What every pass reads: the program model, the parsed manifests
    (None when absent), the per-file suppressions and the root, plus
    analyses that several passes of one family share."""

    def __init__(self, root, prog, manifests, supp_of):
        self.root = root
        self.prog = prog
        self.manifests = manifests
        self.supp_of = supp_of
        self.memo = {}


def find_sources(root):
    out = []
    for d in SCAN_DIRS:
        for dirpath, _, files in os.walk(os.path.join(root, d)):
            for f in sorted(files):
                if f.endswith(SOURCE_EXTS):
                    full = os.path.join(dirpath, f)
                    out.append((full, os.path.relpath(full, root)
                                .replace(os.sep, "/")))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="the simulator's static analyzer")
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))),
        help="repository root (default: parent of tools/)")
    ap.add_argument("--check", default=None,
                    help="comma-separated subset of passes "
                         "(default: all)")
    ap.add_argument("--json", default=None, metavar="FILE",
                    help="write a tlsim-bench-v1 report")
    ap.add_argument("--require-manifests", action="store_true",
                    help="a missing manifest is a diagnostic (the "
                         "real-tree configuration)")
    ap.add_argument("--list-checks", action="store_true")
    ap.add_argument("-q", "--quiet", action="store_true")
    args = ap.parse_args(argv)

    if args.list_checks:
        print("\n".join(CHECK_IDS))
        return 0
    enabled = list(CHECK_IDS)
    if args.check:
        enabled = [c.strip() for c in args.check.split(",")
                   if c.strip()]
        bad = [c for c in enabled if c not in PASSES]
        if bad:
            print(f"tlsa: unknown check(s): {', '.join(bad)}",
                  file=sys.stderr)
            return 2

    root = os.path.abspath(args.root)
    sources = find_sources(root)
    if not sources:
        print("tlsa: no sources found", file=sys.stderr)
        return 2

    start = time.monotonic()
    files, supp_of, diags, census = {}, {}, [], {}
    for full, rel in sources:
        try:
            with open(full, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            diags.append(Diagnostic(rel, 0, "io", str(e)))
            continue
        tokens = lex_tokens(text)
        files[rel] = build_file_model(rel, tokens)
        supp = supp_of[rel] = Suppressions(rel, tokens,
                                           text.splitlines())
        diags.extend(supp.diags)
        for check, n in supp.by_check.items():
            census[check] = census.get(check, 0) + n
    prog = Program(files)

    def report(d):
        supp = supp_of.get(d.path)
        if supp is None or not supp.suppresses(d.line, d.check):
            diags.append(d)

    manifests = {}
    for name, (loader, owner, what) in MANIFESTS.items():
        manifests[name] = loader(os.path.join(root, "tools",
                                              f"{name}.txt"))
        if manifests[name] is None and args.require_manifests and \
                owner in enabled:
            report(Diagnostic(
                f"tools/{name}.txt", 0, owner,
                f"missing manifest: declare {what} "
                "(--require-manifests)"))
    run = Run(root, prog, manifests, supp_of)
    for check in enabled:
        PASSES[check](run, report)

    uniq = {(d.path, d.line, d.check, d.message): d for d in diags}
    diags = [uniq[k] for k in sorted(uniq)]
    per_check = {}
    for d in diags:
        per_check[d.check] = per_check.get(d.check, 0) + 1
        if not args.quiet:
            print(d)

    if args.json:
        doc = {
            "schema": "tlsim-bench-v1",
            "bench": "tlsa",
            "quick": False,
            "jobs": 1,
            "wall_seconds": time.monotonic() - start,
            "simulated_cycles": 0,
            "staticanalysis": {
                "checks_run": len(enabled),
                "files_scanned": len(sources),
                "unresolved_calls": len(prog.unresolved),
                "violations": len(diags),
                "suppressions": sum(census.values()),
                "suppressions_by_check": dict(sorted(census.items())),
            },
            "results": [
                {"name": c, "violations": per_check.get(c, 0)}
                for c in sorted(set(enabled) | set(per_check))
            ],
        }
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")

    if not args.quiet:
        print(f"tlsa: {len(sources)} files, {len(prog.funcs)} "
              f"functions, {len(enabled)} passes, "
              f"{len(prog.unresolved)} unresolved call(s), "
              f"{sum(census.values())} reasoned suppression(s): "
              f"{f'{len(diags)} violation(s)' if diags else 'clean'}")
    return 1 if diags else 0


if __name__ == "__main__":
    sys.exit(main())
