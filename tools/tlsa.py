#!/usr/bin/env python3
"""tlsa: whole-program semantic static analysis for the simulator.

Usage: tlsa.py [--root DIR] [--engine auto|libclang|lex]
               [--check A1,A2,...] [--json FILE] [--require-manifests]
               [--list-checks] [-q]

tlslint (tools/tlslint.py, PR 5) matches token patterns file by file;
tlsa builds a *program model* — function definitions with qualified
names, a resolved call graph, lock-acquisition scopes, and per-function
data flow — and checks properties no single file can show:

  A1  static deadlock detection.
      Every `MutexLock`/`UniqueLock` acquisition (base/sync.h) is
      attributed to a lock identity (Class::member, or the factory
      method for registry-handed locks such as StemLocks::forStem()).
      Nesting — directly, or by calling a function whose transitive
      may-acquire set is non-empty while a lock is held — creates an
      ordering edge. tlsa fails on: a cycle among edges (including a
      self-edge: re-acquiring a non-recursive Mutex through a call
      chain), an edge that contradicts a `B < A` pair declared in
      tools/lockorder.txt (a1-order), and an edge the lock-order file
      does not declare at all (a1-undeclared) — so every new nesting
      must be consciously written down in one canonical order.

  A2  audit-seam reachability.
      The speculative-state mutator primitives (the T1 vocabulary:
      recordLoad/recordStore/clearContext/... plus spec*/victim*
      insert/remove/reset/accessLine and start-table writes) must be
      reachable from outside the audited modules ONLY through entry
      points declared in tools/auditseam.txt, each of which must call
      an AuditSink hook (onRunStart/onEpochStart/onSpawn/onAccess/
      onCommit/onSquash or refreshAuditView) or be declared
      `audit=none` with a reason. Diagnostics: a2-unaudited-mutator
      (a primitive call in a function outside the audited modules —
      one indirection does not hide it from the call graph),
      a2-undeclared-entry (an external call lands on an audited
      function that reaches a primitive but is not in the manifest),
      a2-uninstrumented-entry (a declared entry whose body never
      touches the audit seam), a2-unknown-entry (a manifest line
      naming no known function).

  A3  hot-path allocation discipline.
      Functions marked TLSIM_HOT (base/hotpath.h) and everything
      reachable from them through resolved calls must be free of
      `new`, malloc-family calls, push_back/emplace_back on receivers
      that are never `reserve()`d, and node-based-container mutations
      (std::map/set/list/unordered_*), preserving PR 6's arena/pool
      wins against refactors. A `tlsa:allow(A3): reason` on a call
      site prunes traversal into a genuinely cold callee.

  A4  input-taint narrowing.
      Inside the trace decode scope (sim/traceio, sim/varint,
      core/traceindex), values produced by varint::decodeOne/
      decodeBlock — untrusted file bytes — must not reach an array
      subscript or a shift amount without first passing through
      base/narrow.h (checkedNarrow/truncateNarrow) or an explicit
      bounds comparison. This is tlslint's T3 generalized from cast
      spelling to actual data flow.

Engines: identical to tlslint — libclang tokenization when the python
bindings are importable, the built-in lexer otherwise; both feed the
same model builder, so results match token-for-token. The semantic
model itself is token-derived in both engines (see DESIGN.md §4.8 for
the capability matrix and the known approximations: unresolved calls
— virtual/function-pointer/ambiguous overloads — contribute no edges).

Suppression: `// tlsa:allow(An): reason` (shared grammar with
tlslint via tools/lintsupp.py; a bare allow from either tool's grammar
is a hard error here too).

Manifests: tools/lockorder.txt (A1) and tools/auditseam.txt (A2),
resolved relative to --root so fixture mini-repos carry their own.
Without --require-manifests a missing file skips the corresponding
declaration checks (cycle detection always runs); the CI run on the
real tree passes --require-manifests.

Exit status: 0 clean, 1 violations, 2 usage error.
--json writes a tlsim-bench-v1 report whose `staticanalysis` block
(per-pass violation counts, combined suppression census) is validated
by tools/check_bench_json.py.
"""

import argparse
import json
import os
import re
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import lintsupp  # noqa: E402
import tlslint  # noqa: E402  (shared tokenizers: lex + libclang)
from lintsupp import Diagnostic  # noqa: E402

CHECK_IDS = ("A1", "A2", "A3", "A4")

SCAN_DIRS = ("src", "bench", "tools")
SOURCE_EXTS = (".h", ".cc", ".cpp")

# --- shared vocabularies -------------------------------------------------

LOCK_TYPES = {"MutexLock", "UniqueLock"}

# A2: the audited modules (tlslint's T1 set, plus core/machine.h —
# EpochRun and the start-table bookkeeping live in the header, owned
# by the same TlsMachine whose hooks observe them) and the
# mutator-primitive vocabulary. src/verify/ is exempt from primitive
# *detection*: the auditor/model-checker deliberately implement their
# own independent models of the protocol state (cross-validated by
# bisimulation, PR 4); their writes are not the simulator's state.
AUDITED_FILES = set(tlslint.T1_ALLOWED_FILES) | {"src/core/machine.h"}
A2_EXEMPT_DIRS = ("src/verify/",)
DISTINCT_MUTATORS = set(tlslint.T1_DISTINCT_MUTATORS)
GENERIC_MUTATORS = set(tlslint.T1_GENERIC_MUTATORS)
RECEIVER_HINTS = tuple(tlslint.T1_RECEIVER_HINTS)
AUDIT_HOOKS = {"onRunStart", "onEpochStart", "onSpawn", "onAccess",
               "onCommit", "onSquash", "refreshAuditView"}

# A3: allocation vocabulary.
MALLOC_FAMILY = {"malloc", "calloc", "realloc", "strdup",
                 "aligned_alloc"}
NODE_CONTAINERS = {"map", "set", "list", "multimap", "multiset",
                   "unordered_map", "unordered_set",
                   "unordered_multimap", "unordered_multiset"}
NODE_MUTATORS = {"insert", "emplace", "emplace_hint", "try_emplace",
                 "erase"}
GROWTH_CALLS = {"push_back", "emplace_back"}

# Names too generic to resolve a receiver-less call by "only one
# function defines it": such a call produces no edge.
GENERIC_METHODS = {
    "size", "empty", "clear", "begin", "end", "insert", "erase",
    "reset", "count", "find", "at", "front", "back", "push_back",
    "pop_back", "emplace_back", "reserve", "resize", "swap", "data",
    "get", "value", "str", "c_str", "wait", "notify_all",
    "notify_one", "lock", "unlock", "contains", "push", "pop",
    "emplace", "assign", "run", "add", "init", "name", "length",
}

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

KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "catch", "static_cast", "dynamic_cast", "reinterpret_cast",
    "const_cast", "decltype", "noexcept", "new", "delete", "throw",
    "case", "default", "do", "else", "goto", "typedef", "using",
    "static_assert", "alignas", "co_await", "co_return", "co_yield",
    "and", "or", "not", "const", "constexpr", "consteval",
    "constinit", "static", "inline", "virtual", "explicit", "friend",
    "public", "private", "protected", "template", "typename",
    "operator", "requires", "concept", "auto", "void", "bool", "char",
    "short", "int", "long", "float", "double", "signed", "unsigned",
    "true", "false", "nullptr", "this", "enum", "union", "class",
    "struct", "namespace", "extern", "mutable", "volatile", "final",
    "override",
}

#: Builtin type spellings that may head a member declaration. They
#: are KEYWORDS (so they never parse as member *names*) but tlslife's
#: reset-completeness walk needs `bool valid;`-style members in the
#: member map just like class-typed ones.
BUILTIN_TYPES = {
    "bool", "char", "short", "int", "long", "float", "double",
    "signed", "unsigned",
}


# --- program model -------------------------------------------------------

class CallSite:
    __slots__ = ("name", "quals", "recv", "recv_class", "line", "idx")

    def __init__(self, name, quals, recv, recv_class, line, idx):
        self.name = name          # callee spelling
        self.quals = quals        # explicit A::B:: prefix, tuple
        self.recv = recv          # receiver spelling ('' if none)
        self.recv_class = recv_class  # class, when statically known
        self.line = line
        self.idx = idx            # index into the file's code tokens


class LockAcq:
    __slots__ = ("lock_id", "line", "level", "start_idx")

    def __init__(self, lock_id, line, level, start_idx):
        self.lock_id = lock_id
        self.line = line
        self.level = level        # context-stack depth at activation
        self.start_idx = start_idx


class FuncDef:
    __slots__ = ("qual", "name", "cls", "relpath", "line", "hot",
                 "body", "calls", "acqs", "nested_edges",
                 "calls_under", "node_locals", "local_reserved",
                 "aliases", "sig")

    def __init__(self, qual, name, cls, relpath, line, hot):
        self.qual = qual          # e.g. "TlsMachine::stepCpuBatch"
        self.name = name
        self.cls = cls            # enclosing/explicit class or None
        self.relpath = relpath
        self.line = line
        self.hot = hot            # carries TLSIM_HOT
        self.body = None          # (start, end) code-token indices
        self.sig = None           # (open, close) of the param parens
        self.calls = []           # [CallSite]
        self.acqs = []            # [LockAcq]
        self.nested_edges = []    # [(outer_id, inner_id, line)]
        self.calls_under = {}     # call idx -> frozenset(lock ids)
        self.node_locals = {}     # local node-container name -> line
        self.local_reserved = set()
        self.aliases = {}         # local ref name -> class name


class FileModel:
    def __init__(self, relpath, tokens, lines):
        self.relpath = relpath
        self.code = [t for t in tokens if t.kind != "comment"]
        self.tokens = tokens
        self.lines = lines
        self.funcs = []
        self.node_members = set()  # member names declared node-based
        self.reserved = set()      # receivers .reserve()d in this file
        self.member_types = {}     # (class, member name) -> type name
        self.member_decls = {}     # (class, member) -> (relpath, line)
        self.bases = {}            # class -> tuple of base-class names


def _match_forward(code, i, open_t, close_t):
    """Index of the token closing code[i] (an `open_t`), or len."""
    depth = 0
    n = len(code)
    while i < n:
        t = code[i].text
        if t == open_t:
            depth += 1
        elif t == close_t:
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return n


def _match_back(code, i, open_t, close_t):
    """Index of the token opening code[i] (a `close_t`), or -1.
    Counts characters, not tokens, so libclang's single `>>` token
    closes two template-argument lists."""
    depth = 0
    while i >= 0:
        t = code[i].text
        if close_t in t:
            depth += t.count(close_t)
        elif open_t in t:
            depth -= t.count(open_t)
            if depth <= 0:
                return i
        i -= 1
    return -1


def _receiver_of(code, i):
    """Receiver spelling + known class for a call at code[i] preceded
    by '.'/'->' at i-1. Handles `x.f()`, `xs_[i].f()`, and
    `Cls::instance().f()` (returns class Cls)."""
    j = i - 2
    if j < 0:
        return "", None
    t = code[j].text
    if t == "]":  # xs_[i].f()
        depth = 1
        j -= 1
        while j >= 0 and depth:
            if code[j].text == "]":
                depth += 1
            elif code[j].text == "[":
                depth -= 1
            j -= 1
        return (code[j].text if j >= 0 and code[j].kind == "id"
                else ""), None
    if t == ")":  # g(...).f() — look for Cls::instance()
        depth = 1
        j -= 1
        while j >= 0 and depth:
            if code[j].text == ")":
                depth += 1
            elif code[j].text == "(":
                depth -= 1
            j -= 1
        if (j >= 1 and code[j].kind == "id"
                and code[j].text == "instance"
                and code[j - 1].text == "::" and j >= 2
                and code[j - 2].kind == "id"):
            return "", code[j - 2].text
        return "", None
    if code[j].kind == "id":
        return code[j].text, None
    return "", None


def _qual_chain(code, i):
    """Explicit `A::B::` prefix ending right before code[i]."""
    quals = []
    j = i - 1
    while j >= 1 and code[j].text == "::" and code[j - 1].kind == "id":
        quals.insert(0, code[j - 1].text)
        j -= 2
    return tuple(quals)


def build_file_model(relpath, tokens, lines):
    """One linear walk over the code tokens: class/namespace nesting,
    function definitions (with ctor init lists, trailing qualifiers,
    TLSIM_* annotations), call sites, lock-acquisition scopes, local
    aliases, and node-container member declarations."""
    fm = FileModel(relpath, tokens, lines)
    code = fm.code
    n = len(code)
    # Context stack: (kind, payload, ...) where kind is 'namespace'
    # (payload: name), 'class' (name), 'func' (FuncDef), 'block'.
    ctx = []
    # Lock acquisitions pending activation at their closing ')'.
    pending_acqs = []  # (activation_idx, lock_id, line)
    active_acqs = []   # [LockAcq], released as ctx unwinds

    def cur_func():
        for kind, payload in reversed(ctx):
            if kind == "func":
                return payload
        return None

    def cur_class():
        for kind, payload in reversed(ctx):
            if kind == "class":
                return payload
            if kind == "func":
                return None
        return None

    def lock_identity(args):
        """Map MutexLock ctor-arg tokens to a lock identity."""
        ids = [t.text for t in args if t.kind == "id"]
        texts = [t.text for t in args]
        # Cls::instance().meth(...): registry-handed lock.
        for k in range(len(texts) - 5):
            if (texts[k + 1] == "::" and texts[k + 2] == "instance"
                    and texts[k + 3] == "(" and texts[k + 4] == ")"
                    and texts[k + 5] == "."):
                if k + 6 < len(texts):
                    return f"{texts[k]}::{texts[k + 6]}()"
        if len(ids) == 1:
            fn = cur_func()
            owner = fn.cls if fn is not None and fn.cls else \
                cur_class()
            if owner is None:
                owner = os.path.splitext(
                    os.path.basename(relpath))[0]
            return f"{owner}::{ids[0]}"
        return ".".join(ids) if ids else "<expr>"

    i = 0
    while i < n:
        tok = code[i]
        t = tok.text

        # Activate lock acquisitions whose ctor args just closed.
        while pending_acqs and pending_acqs[0][0] <= i:
            _, lock_id, line = pending_acqs.pop(0)
            fn = cur_func()
            acq = LockAcq(lock_id, line, len(ctx), i)
            active_acqs.append(acq)
            if fn is not None:
                fn.acqs.append(acq)
                for held in active_acqs[:-1]:
                    fn.nested_edges.append(
                        (held.lock_id, lock_id, line))

        if t == "{":
            ctx.append(("block", None))
            i += 1
            continue
        if t == "}":
            if ctx:
                popped = ctx.pop()
                if popped[0] == "func" and popped[1].body:
                    popped[1].body = (popped[1].body[0], i)
            while active_acqs and active_acqs[-1].level > len(ctx):
                active_acqs.pop()
            i += 1
            continue

        if t == "namespace":
            j = i + 1
            name = ""
            while j < n and code[j].text not in ("{", ";", "="):
                if code[j].kind == "id":
                    name = code[j].text
                j += 1
            if j < n and code[j].text == "{":
                ctx.append(("namespace", name or "<anon>"))
                i = j + 1
                continue
            i = j + 1
            continue

        if t in ("class", "struct", "enum", "union") and \
                cur_func() is None:
            prev = code[i - 1].text if i else ""
            if prev in ("<", ","):  # template parameter
                i += 1
                continue
            j = i + 1
            if t == "enum" and j < n and code[j].text == "class":
                j += 1
            name = None
            bases = []
            seg_last = None       # last id of the current base segment
            after_colon = False
            while j < n and code[j].text not in ("{", ";", "("):
                tj = code[j]
                if tj.text == "<":
                    j = _match_forward(code, j, "<", ">") + 1
                    continue
                if tj.text == ":":
                    after_colon = True
                elif tj.text == ",":
                    if seg_last:
                        bases.append(seg_last)
                        seg_last = None
                elif tj.kind == "id":
                    if not after_colon:
                        if name is None:
                            name = tj.text
                    elif tj.text not in KEYWORDS:
                        seg_last = tj.text  # skips public/virtual/...
                j += 1
            if seg_last:
                bases.append(seg_last)
            if j < n and code[j].text == "{":
                ctx.append(("class", name or "<anon>"))
                if name and bases and t in ("class", "struct"):
                    fm.bases[name] = tuple(bases)
                # Node-container member declarations: scan handled
                # inline below as we walk the class body.
                i = j + 1
                continue
            i = j + 1
            continue

        # Node-container declarations: `std::map<...> name` at class
        # scope (member) or inside a function (local).
        if (t == "std" and i + 2 < n and code[i + 1].text == "::"
                and code[i + 2].text in NODE_CONTAINERS):
            j = i + 3
            if j < n and code[j].text == "<":
                j = _match_forward(code, j, "<", ">") + 1
            if j < n and code[j].kind == "id":
                var = code[j].text
                fn = cur_func()
                if fn is not None:
                    fn.node_locals[var] = code[j].line
                elif cur_class() is not None:
                    fm.node_members.add(var)
            i += 3
            continue

        # Member-variable declarations at class scope: `Type name;`,
        # `Type *name = nullptr;`, `Type name{...};`. Recorded so a
        # call through the member (`f_.bar()`) resolves to the
        # *declared* receiver type instead of a name hint.
        if (tok.kind == "id" and t not in KEYWORDS
                and cur_func() is None and cur_class() is not None
                and i >= 1 and i + 1 < n
                and code[i + 1].text in (";", "{", "=")):
            p = i - 1
            if code[p].text in ("*", "&"):
                p -= 1
            mtype = None
            if p >= 1 and code[p].text in (">", ">>"):
                # Template-typed member: `std::vector<T> name;`. The
                # recorded type is the template head (`vector`) —
                # enough for tlslife's field walks; resolve() ignores
                # it because no class is spelled that way.
                q = _match_back(code, p, "<", ">")
                if q >= 1 and code[q - 1].kind == "id":
                    mtype = code[q - 1].text
            elif p >= 0 and code[p].kind == "id" and \
                    (code[p].text not in KEYWORDS or
                     code[p].text in BUILTIN_TYPES) and \
                    (p < 1 or code[p - 1].text not in
                     ("<", ",", ".", "->")):
                mtype = code[p].text
            if mtype is not None:
                # Not inside a parameter list (default-argument
                # `Type x = v` in a prototype is not a member).
                b = i - 1
                depth = 0
                while b >= 0 and code[b].text not in (";", "{", "}"):
                    if code[b].text == ")":
                        depth += 1
                    elif code[b].text == "(":
                        depth -= 1
                    b -= 1
                if depth >= 0:
                    fm.member_types[(cur_class(), t)] = mtype
                    fm.member_decls.setdefault(
                        (cur_class(), t), (relpath, tok.line))

        # Function definitions only at namespace/class scope.
        in_body = cur_func() is not None
        if (not in_body and tok.kind == "id" and t not in KEYWORDS
                and i + 1 < n and code[i + 1].text == "("):
            quals = _qual_chain(code, i)
            prev_i = i - 1 - 2 * len(quals)
            prev = code[prev_i].text if prev_i >= 0 else ""
            if prev == "operator" or t == "TLSIM_HOT" or \
                    t.startswith("TLSIM_"):
                i += 1
                continue
            close = _match_forward(code, i + 1, "(", ")")
            j = close + 1
            # Trailing qualifiers / annotations / attributes.
            while j < n:
                tj = code[j].text
                if tj in ("const", "noexcept", "override", "final",
                          "&", "&&", "mutable", "try"):
                    j += 1
                elif tj.startswith("TLSIM_"):
                    j += 1
                    if j < n and code[j].text == "(":
                        j = _match_forward(code, j, "(", ")") + 1
                elif tj == "[" and j + 1 < n and \
                        code[j + 1].text == "[":
                    depth = 0
                    while j < n:
                        if code[j].text == "[":
                            depth += 1
                        elif code[j].text == "]":
                            depth -= 1
                            if depth == 0:
                                break
                        j += 1
                    j += 1
                elif tj == "->":  # trailing return type
                    j += 1
                    while j < n and code[j].text not in ("{", ";"):
                        j += 1
                else:
                    break
            is_def = False
            body_open = None
            if j < n and code[j].text == "{":
                is_def, body_open = True, j
            elif j < n and code[j].text == ":":
                # Ctor init list: member(expr) / member{expr} pairs.
                k = j + 1
                while k < n:
                    tk = code[k].text
                    if tk == "(":
                        k = _match_forward(code, k, "(", ")") + 1
                    elif tk == "{":
                        if code[k - 1].kind == "id" or \
                                code[k - 1].text == ">":
                            k = _match_forward(code, k, "{", "}") + 1
                        else:
                            is_def, body_open = True, k
                            break
                    elif tk == ";":
                        break
                    else:
                        k += 1
                        continue
                    if k < n and code[k].text == "{" and \
                            code[k - 1].text in (")", "}"):
                        is_def, body_open = True, k
                        break
            if is_def:
                cls = quals[-1] if quals else cur_class()
                qual = f"{cls}::{t}" if cls else t
                # TLSIM_HOT anywhere in the declaration span (from
                # the previous statement boundary to the body brace).
                b = i - 1
                hot = False
                while b >= 0 and code[b].text not in (";", "}", "{"):
                    if code[b].text == "TLSIM_HOT":
                        hot = True
                    b -= 1
                for d in range(close + 1, body_open):
                    if code[d].text == "TLSIM_HOT":
                        hot = True
                fn = FuncDef(qual, t, cls, relpath, tok.line, hot)
                fn.body = (body_open, None)
                fn.sig = (i + 1, close)
                fm.funcs.append(fn)
                # The 'func' entry itself stands for the body brace:
                # its matching '}' pops it and closes fn.body.
                ctx.append(("func", fn))
                i = body_open + 1
                continue
            i += 1
            continue

        # Inside a function body: declarations, calls, locks, aliases.
        fn = cur_func()
        if fn is not None and tok.kind == "id" and i + 1 < n:
            nxt = code[i + 1].text
            prev = code[i - 1].text if i else ""

            # `LockType guard(args...)` — scoped acquisition.
            if t in LOCK_TYPES and i + 2 < n and \
                    code[i + 1].kind == "id" and \
                    code[i + 2].text == "(":
                close = _match_forward(code, i + 2, "(", ")")
                args = code[i + 3:close]
                pending_acqs.append(
                    (close, lock_identity(args), tok.line))
                pending_acqs.sort()
                i += 3  # walk INTO the args: ctor-arg calls are
                continue  # pre-acquisition (e.g. forStem(stem))

            # `auto &x = [ns::]Cls::instance()` alias.
            if (t == "instance" and nxt == "(" and prev == "::"
                    and i >= 2 and code[i - 2].kind == "id"):
                k = i - 2  # the class id; walk over ns:: prefixes
                while k >= 2 and code[k - 1].text == "::" and \
                        code[k - 2].kind == "id":
                    k -= 2
                if k >= 2 and code[k - 1].text == "=" and \
                        code[k - 2].kind == "id":
                    fn.aliases[code[k - 2].text] = code[i - 2].text

            if nxt == "(" and t not in KEYWORDS:
                recv, recv_class = "", None
                quals = ()
                if prev in (".", "->"):
                    recv, recv_class = _receiver_of(code, i)
                    if recv in fn.aliases:
                        recv_class = fn.aliases[recv]
                elif prev == "::":
                    quals = _qual_chain(code, i)
                elif code[i - 1].kind == "id" and \
                        code[i - 1].text not in KEYWORDS and \
                        t not in LOCK_TYPES:
                    # `Type var(args)` — record the ctor call.
                    cs = CallSite(code[i - 1].text,
                                  _qual_chain(code, i - 1), "", None,
                                  tok.line, i - 1)
                    fn.calls.append(cs)
                    fn.calls_under[len(fn.calls) - 1] = frozenset(
                        a.lock_id for a in active_acqs)
                    i += 1
                    continue
                cs = CallSite(t, quals, recv, recv_class, tok.line, i)
                fn.calls.append(cs)
                fn.calls_under[len(fn.calls) - 1] = frozenset(
                    a.lock_id for a in active_acqs)
                if t == "reserve" and recv:
                    fn.local_reserved.add(recv)
                    fm.reserved.add(recv)
        i += 1
    return fm


# --- whole-program index -------------------------------------------------

class Program:
    def __init__(self, files):
        self.files = files  # relpath -> FileModel
        self.funcs = []
        self.by_qual = {}
        self.by_name = {}
        self.node_members = set()
        self.reserved = set()
        self.class_words = {}  # class -> lowercase words, len >= 4
        self.member_types = {}  # (class, member) -> declared type
        self.member_decls = {}  # (class, member) -> (relpath, line)
        self.bases = {}         # class -> direct base-class names
        for fm in files.values():
            self.funcs.extend(fm.funcs)
            self.node_members |= fm.node_members
            self.reserved |= fm.reserved
            self.member_types.update(fm.member_types)
            self.member_decls.update(fm.member_decls)
            self.bases.update(fm.bases)
        self.classes = set()
        self._decls = {}  # id(FuncDef) -> {param/local name: type}
        for fn in self.funcs:
            self.by_qual.setdefault(fn.qual, fn)
            self.by_name.setdefault(fn.name, []).append(fn)
            if fn.cls:
                self.classes.add(fn.cls)
            if fn.cls and fn.cls not in self.class_words:
                words = [w.lower() for w in
                         re.findall(r"[A-Z][a-z0-9]+|[A-Z]{2,}",
                                    fn.cls)
                         if len(w) >= 4]
                self.class_words[fn.cls] = words

    def base_chain(self, cls):
        """`cls` plus its transitive bases, nearest-first."""
        out, seen, work = [], set(), [cls]
        while work:
            c = work.pop(0)
            if c in seen:
                continue
            seen.add(c)
            out.append(c)
            work.extend(self.bases.get(c, ()))
        return out

    def member_type(self, cls, member):
        """Declared member type, searching `cls` then its bases."""
        for c in self.base_chain(cls):
            mt = self.member_types.get((c, member))
            if mt is not None:
                return mt
        return None

    def members_of(self, cls):
        """Every declared member of `cls`, inherited ones included:
        name -> (type, relpath, line). Nearest declaration wins."""
        out = {}
        for c in self.base_chain(cls):
            for (owner, name), mtype in self.member_types.items():
                if owner == c and name not in out:
                    where = self.member_decls.get(
                        (owner, name), ("", 0))
                    out[name] = (mtype, where[0], where[1])
        return out

    def declared_type(self, fn, name):
        """Declared type of `name` as a parameter or local variable of
        `fn`: a class name (a template's head for `std::vector<T> v`),
        "auto", or "" when the spelling names no type. None when `fn`
        declares no such name, or declares it with different types."""
        decls = self._decls.get(id(fn))
        if decls is None:
            decls = self._decls[id(fn)] = self._parse_decls(fn)
        return decls.get(name)

    def _parse_decls(self, fn):
        code = self.files[fn.relpath].code
        decls = {}

        def record(name, ptype):
            if decls.get(name, ptype) != ptype:
                ptype = None  # redeclared with another type
            decls[name] = ptype

        def type_before(toks, p):
            """Type spelled right before toks[p + 1], or None."""
            while p >= 0 and toks[p].text in ("*", "&", "&&", "const"):
                p -= 1
            if p >= 0 and toks[p].text in (">", ">>"):
                q = _match_back(toks, p, "<", ">")
                if q >= 1 and toks[q - 1].kind == "id":
                    return toks[q - 1].text
                return None
            if p >= 0 and toks[p].kind == "id" and (
                    toks[p].text not in KEYWORDS or
                    toks[p].text == "auto" or
                    toks[p].text in BUILTIN_TYPES):
                return toks[p].text
            return None

        # Parameters: the last identifier of each top-level segment.
        if fn.sig is not None:
            open_i, close_i = fn.sig
            seg, depth = [], 0
            for k in range(open_i + 1, close_i + 1):
                t = code[k].text
                if t in ("(", "[", "{", "<"):
                    depth += 1
                elif t in (")", "]", "}", ">"):
                    depth -= 1
                elif t == ">>":
                    depth -= 2
                if k < close_i and not (t == "," and depth == 0):
                    seg.append(code[k])
                    continue
                texts = [c.text for c in seg]
                if "=" in texts:  # default argument
                    seg = seg[:texts.index("=")]
                ids = [i for i, c in enumerate(seg)
                       if c.kind == "id" and c.text not in KEYWORDS]
                if ids and ids[-1] > 0:
                    ptype = type_before(seg, ids[-1] - 1)
                    record(seg[ids[-1]].text, ptype or "")
                seg = []
        # Locals: `Type name` followed by = ; { ( or a range-for colon.
        start, end = fn.body
        for k in range(start + 1, end or start):
            tok = code[k]
            if tok.kind != "id" or tok.text in KEYWORDS or \
                    code[k + 1].text not in ("=", ";", "{", "(", ":"):
                continue
            ltype = type_before(code, k - 1)
            if ltype is not None:
                record(tok.text, ltype)
        return decls

    def resolve(self, call, caller=None):
        """CallSite -> FuncDef or None. Edges only when attribution
        is unambiguous; see DESIGN.md §4.8 for what this misses."""
        if call.recv_class:
            return self.by_qual.get(f"{call.recv_class}::{call.name}")
        if call.quals:
            fn = self.by_qual.get(
                f"{call.quals[-1]}::{call.name}")
            if fn:
                return fn
            cands = [f for f in self.by_name.get(call.name, [])
                     if f.cls is None]
            return cands[0] if len(cands) == 1 else None
        cands = self.by_name.get(call.name, [])
        if call.recv:
            # A declared type beats any name hint. A parameter or local
            # of the caller (`Foo &f`, `Foo f = ...`) comes first, as in
            # C++ scoping; a type that is not a project class (a
            # template parameter, a std:: type) reaches no project
            # method, whatever the spelling hints.
            dt = (self.declared_type(caller, call.recv)
                  if caller is not None else None)
            if dt is not None and dt != "auto":
                return (self.by_qual.get(f"{dt}::{call.name}")
                        if dt in self.classes else None)
            # Then a member of the caller's class: `Foo f_;` makes
            # `f_.bar()` resolve to Foo::bar — or to nothing if Foo
            # defines no bar, rather than falling through to a
            # substring guess the declaration just contradicted.
            if caller is not None and caller.cls:
                mt = self.member_type(caller.cls, call.recv)
                if mt is not None and mt in self.classes:
                    return self.by_qual.get(f"{mt}::{call.name}")
            methods = [f for f in cands if f.cls]
            recv_l = call.recv.lower().replace("_", "")
            hinted = [f for f in methods
                      if recv_l and (recv_l in f.cls.lower() or
                                     f.cls.lower() in recv_l)]
            # A receiver of unknown type binds only through a name
            # hint: that a single class defines the method says
            # nothing about what this receiver is.
            return hinted[0] if len(hinted) == 1 else None
        # Unqualified call inside a method: the caller's own class
        # wins, as in C++ name lookup.
        if caller is not None and caller.cls:
            own = self.by_qual.get(f"{caller.cls}::{call.name}")
            if own is not None:
                return own
        if call.name in GENERIC_METHODS:
            return None
        return cands[0] if len(cands) == 1 else None


# --- manifests -----------------------------------------------------------

def load_lockorder(path):
    """tools/lockorder.txt: `A < B  # why` pairs, or None if absent."""
    if not os.path.exists(path):
        return None
    pairs = set()
    with open(path, encoding="utf-8") as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            m = re.match(r"(\S+)\s*<\s*(\S+)$", line)
            if m:
                pairs.add((m.group(1), m.group(2)))
    return pairs


def load_auditseam(path):
    """tools/auditseam.txt lines: `Cls::func [audit=none] # reason`.
    Returns {qual: needs_hook} or None if absent."""
    if not os.path.exists(path):
        return None
    entries = {}
    with open(path, encoding="utf-8") as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            entries[parts[0]] = "audit=none" not in parts[1:]
    return entries


# --- passes --------------------------------------------------------------

def may_acquire(prog):
    """Fixpoint: func -> set of lock ids it may (transitively)
    acquire through resolved calls."""
    acq = {fn.qual: set(a.lock_id for a in fn.acqs)
           for fn in prog.funcs}
    resolved = {}
    for fn in prog.funcs:
        resolved[fn.qual] = [prog.resolve(c, fn) for c in fn.calls]
    changed = True
    while changed:
        changed = False
        for fn in prog.funcs:
            mine = acq[fn.qual]
            before = len(mine)
            for callee in resolved[fn.qual]:
                if callee is not None:
                    mine |= acq[callee.qual]
            if len(mine) != before:
                changed = True
    return acq, resolved


def check_a1(prog, lockorder, require_manifests, report):
    acq, resolved = may_acquire(prog)
    # Edge set: (outer, inner) -> (relpath, line) of first witness.
    edges = {}
    for fn in prog.funcs:
        for outer, inner, line in fn.nested_edges:
            edges.setdefault((outer, inner), (fn.relpath, line))
        for ci, callee in enumerate(resolved[fn.qual]):
            held = fn.calls_under.get(ci, frozenset())
            if callee is None or not held:
                continue
            for inner in acq[callee.qual]:
                for outer in held:
                    edges.setdefault((outer, inner),
                                     (fn.relpath, fn.calls[ci].line))

    for (outer, inner), (rel, line) in sorted(edges.items()):
        if outer == inner:
            report(Diagnostic(
                rel, line, "A1",
                f"lock `{inner}` may be re-acquired while already "
                "held (base/sync.h Mutex is non-recursive): "
                "self-deadlock"))
    # Cycle detection over distinct-lock edges (iterative DFS).
    graph = {}
    for (outer, inner) in edges:
        if outer != inner:
            graph.setdefault(outer, set()).add(inner)
    color = {}

    def find_cycle(start):
        stack = [(start, iter(sorted(graph.get(start, ()))))]
        path = [start]
        color[start] = 1
        while stack:
            node, it = stack[-1]
            adv = False
            for nxt in it:
                if color.get(nxt, 0) == 1:
                    return path[path.index(nxt):] + [nxt]
                if color.get(nxt, 0) == 0:
                    color[nxt] = 1
                    path.append(nxt)
                    stack.append((nxt, iter(sorted(graph.get(nxt,
                                                             ())))))
                    adv = True
                    break
            if not adv:
                color[node] = 2
                path.pop()
                stack.pop()
        return None

    for start in sorted(graph):
        if color.get(start, 0) == 0:
            cyc = find_cycle(start)
            if cyc:
                for a, b in zip(cyc, cyc[1:]):
                    rel, line = edges[(a, b)]
                    report(Diagnostic(
                        rel, line, "A1",
                        f"lock-order cycle: acquiring `{b}` while "
                        f"holding `{a}` closes the loop "
                        f"{' -> '.join(cyc)}"))

    if lockorder is None:
        if require_manifests:
            report(Diagnostic(
                "tools/lockorder.txt", 0, "A1",
                "lock-order manifest missing; every observed "
                "nesting must be declared as `Outer < Inner`"))
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


def _primitive_calls(fn, code):
    """T1-vocabulary mutator calls + start-table writes in fn."""
    hits = []
    for cs in fn.calls:
        if not cs.recv:
            continue
        if cs.name in DISTINCT_MUTATORS:
            hits.append(cs)
        elif cs.name in GENERIC_MUTATORS and any(
                h in cs.recv.lower() for h in RECEIVER_HINTS):
            hits.append(cs)
    if fn.body and fn.body[1]:
        for k in range(*fn.body):
            if code[k].kind == "id" and \
                    "startTable" in code[k].text and k + 1 < len(code):
                nxt = code[k + 1].text
                if nxt == "[" or (nxt in (".", "->") and
                                  k + 2 < len(code) and
                                  code[k + 2].text in
                                  ("assign", "resize", "clear",
                                   "push_back")):
                    hits.append(CallSite("startTable-write", (), "",
                                         None, code[k].line, k))
    return hits


def check_a2(prog, seam, require_manifests, report):
    code_of = {rel: fm.code for rel, fm in prog.files.items()}
    prims = {}  # qual -> [CallSite]
    for fn in prog.funcs:
        if fn.relpath.startswith(A2_EXEMPT_DIRS):
            continue
        hits = _primitive_calls(fn, code_of[fn.relpath])
        if hits:
            prims[fn.qual] = hits

    # Unaudited mutators: primitive calls outside the audited modules.
    for fn in prog.funcs:
        if fn.qual in prims and fn.relpath not in AUDITED_FILES:
            for cs in prims[fn.qual]:
                report(Diagnostic(
                    fn.relpath, cs.line, "A2",
                    f"`{fn.qual}` mutates speculative state "
                    f"(`{cs.recv + '.' if cs.recv else ''}{cs.name}`)"
                    " outside the audited modules; the AuditSink "
                    "seam cannot observe this write"))

    # reaches_primitive: downward closure over resolved calls.
    resolved = {fn.qual: [prog.resolve(c, fn) for c in fn.calls]
                for fn in prog.funcs}
    reach = {q: True for q in prims}
    changed = True
    while changed:
        changed = False
        for fn in prog.funcs:
            if reach.get(fn.qual):
                continue
            for callee in resolved[fn.qual]:
                if callee is not None and reach.get(callee.qual):
                    reach[fn.qual] = True
                    changed = True
                    break

    if seam is None:
        if require_manifests:
            report(Diagnostic(
                "tools/auditseam.txt", 0, "A2",
                "audit-seam manifest missing; declare every entry "
                "point through which speculative-state mutators are "
                "reachable from outside the audited modules"))
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
        for ci, callee in enumerate(resolved[fn.qual]):
            if callee is None or not reach.get(callee.qual):
                continue
            if callee.relpath not in AUDITED_FILES:
                continue  # flagged above as unaudited mutator chain
            if callee.qual not in seam:
                report(Diagnostic(
                    fn.relpath, fn.calls[ci].line, "A2",
                    f"`{fn.qual}` calls `{callee.qual}`, which "
                    "reaches speculative-state mutators, but that "
                    "entry point is not declared in "
                    "tools/auditseam.txt"))
            elif seam[callee.qual] and callee.qual not in \
                    flagged_entries:
                body = callee.body
                hooked = False
                code = code_of[callee.relpath]
                if body and body[1]:
                    hooked = any(code[k].kind == "id" and
                                 code[k].text in AUDIT_HOOKS
                                 for k in range(*body))
                if not hooked:
                    flagged_entries.add(callee.qual)
                    report(Diagnostic(
                        callee.relpath, callee.line, "A2",
                        f"declared audit-seam entry `{callee.qual}` "
                        "never calls an AuditSink hook; instrument "
                        "it or declare `audit=none # reason` in "
                        "tools/auditseam.txt"))


def check_a3(prog, supp_of, report):
    code_of = {rel: fm.code for rel, fm in prog.files.items()}
    resolved = {fn.qual: [prog.resolve(c, fn) for c in fn.calls]
                for fn in prog.funcs}
    roots = [fn for fn in prog.funcs if fn.hot]
    # BFS from hot roots; `via` records the call chain for messages.
    closure = {}
    queue = []
    for fn in roots:
        closure[fn.qual] = fn.qual
        queue.append(fn)
    while queue:
        fn = queue.pop(0)
        supp = supp_of.get(fn.relpath)
        for ci, callee in enumerate(resolved[fn.qual]):
            if callee is None or callee.qual in closure:
                continue
            # A reasoned allow on the call line prunes a cold edge.
            if supp and supp.suppresses(fn.calls[ci].line, "A3"):
                continue
            closure[callee.qual] = closure[fn.qual]
            queue.append(callee)

    for fn in prog.funcs:
        root = closure.get(fn.qual)
        if root is None or not fn.body or not fn.body[1]:
            continue
        code = code_of[fn.relpath]
        where = f"TLSIM_HOT closure (root `{root}`)" \
            if root != fn.qual else "TLSIM_HOT function"
        for k in range(*fn.body):
            if code[k].kind == "id" and code[k].text == "new":
                report(Diagnostic(
                    fn.relpath, code[k].line, "A3",
                    f"`new` in `{fn.qual}`, {where}; hot paths "
                    "must use the pools/arenas (PR 6)"))
        for ci, cs in enumerate(fn.calls):
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


def check_a4(prog, report):
    for rel, fm in sorted(prog.files.items()):
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
                    close = _match_forward(code, k + 1, "(", ")")
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
                        # §4.8 for why this under-approximates).
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

def find_sources(root):
    out = []
    for d in SCAN_DIRS:
        for dirpath, _, files in os.walk(os.path.join(root, d)):
            for f in sorted(files):
                if f.endswith(SOURCE_EXTS):
                    full = os.path.join(dirpath, f)
                    out.append((full,
                                os.path.relpath(full, root)
                                .replace(os.sep, "/")))
    return out


def write_json(path, engine, enabled, files_scanned, per_check,
               census, wall):
    doc = {
        "schema": "tlsim-bench-v1",
        "bench": "tlsa",
        "quick": False,
        "jobs": 1,
        "wall_seconds": wall,
        "simulated_cycles": 0,
        "staticanalysis": {
            "engine": engine,
            "checks_run": len(enabled),
            "files_scanned": files_scanned,
            "violations": sum(per_check.values()),
            "suppressions": sum(census.values()),
            "suppressions_by_check": dict(sorted(census.items())),
        },
        "results": [
            {"name": c, "violations": per_check.get(c, 0)}
            for c in sorted(set(enabled) | set(per_check))
        ],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(
        description="whole-program semantic static analysis")
    ap.add_argument("--root", default=None,
                    help="repository root (default: parent of tools/)")
    ap.add_argument("--engine", default="auto",
                    choices=("auto", "libclang", "lex"))
    ap.add_argument("--check", default=None,
                    help="comma-separated subset of passes "
                         "(default: all)")
    ap.add_argument("--json", default=None, metavar="FILE")
    ap.add_argument("--require-manifests", action="store_true",
                    help="missing lockorder.txt/auditseam.txt is an "
                         "error (the real-tree CI configuration)")
    ap.add_argument("--list-checks", action="store_true")
    ap.add_argument("-q", "--quiet", action="store_true")
    args = ap.parse_args()

    if args.list_checks:
        for c in CHECK_IDS:
            print(c)
        return 0

    if args.check:
        enabled = [c.strip() for c in args.check.split(",")
                   if c.strip()]
        bad = [c for c in enabled if c not in CHECK_IDS]
        if bad:
            print(f"tlsa: unknown check(s): {', '.join(bad)}",
                  file=sys.stderr)
            return 2
    else:
        enabled = list(CHECK_IDS)

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    root = os.path.abspath(root)

    sources = find_sources(root)
    if not sources:
        print("tlsa: no sources found", file=sys.stderr)
        return 2

    start = time.monotonic()
    tokenizer, engine = tlslint.make_tokenizer(args.engine)

    files = {}
    supp_of = {}
    diags = []
    census = {}
    for full, rel in sources:
        try:
            with open(full, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            diags.append(Diagnostic(rel, 0, "io", str(e)))
            continue
        tokens = tokenizer(full, text)
        lines = text.splitlines()
        files[rel] = build_file_model(rel, tokens, lines)
        supp = lintsupp.Suppressions(rel, tokens, lines, "tlsa")
        supp_of[rel] = supp
        diags.extend(supp.diags)
        lintsupp.merge_census(census, supp.by_check)

    prog = Program(files)

    def report(d):
        supp = supp_of.get(d.path)
        if supp is None or not supp.suppresses(d.line, d.check):
            diags.append(d)

    if "A1" in enabled:
        check_a1(prog,
                 load_lockorder(os.path.join(root, "tools",
                                             "lockorder.txt")),
                 args.require_manifests, report)
    if "A2" in enabled:
        check_a2(prog,
                 load_auditseam(os.path.join(root, "tools",
                                             "auditseam.txt")),
                 args.require_manifests, report)
    if "A3" in enabled:
        check_a3(prog, supp_of, report)
    if "A4" in enabled:
        check_a4(prog, report)

    diags.sort(key=lambda d: (d.path, d.line, d.check, d.message))
    seen = set()
    uniq = []
    for d in diags:
        key = (d.path, d.line, d.check, d.message)
        if key not in seen:
            seen.add(key)
            uniq.append(d)
    diags = uniq
    per_check = {}
    for d in diags:
        per_check[d.check] = per_check.get(d.check, 0) + 1
        if not args.quiet:
            print(d)

    if args.json:
        write_json(args.json, engine, enabled, len(sources),
                   per_check, census, time.monotonic() - start)

    if not args.quiet:
        n_funcs = len(prog.funcs)
        verdict = (f"{len(diags)} violation(s)" if diags else "clean")
        print(f"tlsa[{engine}]: {len(sources)} files, {n_funcs} "
              f"functions, {len(enabled)} passes, "
              f"{sum(census.values())} reasoned suppression(s): "
              f"{verdict}")
    return 1 if diags else 0


if __name__ == "__main__":
    sys.exit(main())
