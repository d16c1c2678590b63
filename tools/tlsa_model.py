"""The program model shared by every tlsa pass (tools/tlsa.py).

One tokenization per file (a small C++ lexer), one suppression map per
file, and one `Program`: function definitions with qualified names,
call sites with receivers, lock-acquisition scopes, member and local
declarations, and conservative call resolution.

Suppression grammar, one for every pass:

    // tlsa:allow(<check>): <reason>

The reason is mandatory: a bare allow is a hard `allow-syntax` error
and suppresses nothing, so the tree never accumulates unexplained
exemptions. A reasoned allow on line L suppresses <check> on L, and on
L + 1 as well when the comment stands alone on its line.
"""

import os
import re

class Diagnostic:
    def __init__(self, path, line, check, message):
        self.path = path
        self.line = line
        self.check = check
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


class Token:
    """One lexed token: spelling, 1-based line, and a coarse kind."""

    __slots__ = ("text", "line", "kind")

    def __init__(self, text, line, kind):
        self.text = text
        self.line = line
        self.kind = kind  # 'id', 'punct', 'lit', 'comment'


# Raw strings and ordinary string/char literals accept the standard
# encoding prefixes (u8, u, U, L): `LR"(...)"` is one literal, not an
# identifier `LR` followed by garbage — mis-lexing it would feed the
# literal's *contents* to the passes as if it were code.
# Digit separators (`1'000'000`) are consumed only when the apostrophe
# is followed by another digit/hex-digit, so a separator can never
# swallow an adjacent char literal and an unmatched quote can never
# swallow the code after it.
_LEX_RE = re.compile(
    r"""
      (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<rawstr>(?:u8|u|U|L)?R"
        (?P<delim>[^\s()\\]{0,16})\(.*?\)(?P=delim)")
    | (?P<str>(?:u8|u|U|L)?"(?:\\.|[^"\\\n])*")
    | (?P<char>(?:u8|u|U|L)?'(?:\\.|[^'\\\n])*')
    | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<num>\.?\d(?:[\w.]|'[0-9a-fA-F]|[eEpP][+-])*)
    | (?P<punct>::|->|\+\+|--|<<|>>|[{}()\[\];,<>=!&|^~?:.*/%+-]|\#)
    """,
    re.VERBOSE | re.DOTALL,
)


def lex_tokens(text):
    """Tokenize C++ with a small lexer: identifiers, punctuation,
    literals and comments, each tagged with its starting line."""
    tokens = []
    pos = 0
    line = 1
    for m in _LEX_RE.finditer(text):
        line += text.count("\n", pos, m.start())
        pos = m.start()
        kind = m.lastgroup
        tok = m.group()
        if kind == "comment":
            tokens.append(Token(tok, line, "comment"))
        elif kind in ("rawstr", "str", "char", "num"):
            tokens.append(Token(tok, line, "lit"))
        elif kind == "id":
            tokens.append(Token(tok, line, "id"))
        elif kind == "punct":
            tokens.append(Token(tok, line, "punct"))
        # 'delim' is an internal group of rawstr; never a lastgroup.
    return tokens


#: The allow grammar. `check` is deliberately loose (any word) so that
#: a typoed check id still parses, then suppresses nothing, and the
#: original diagnostic keeps firing.
ALLOW_RE = re.compile(
    r"tlsa:\s*allow\(\s*(?P<check>[A-Za-z][\w-]*)"
    r"\s*\)\s*(?::\s*(?P<reason>\S.*))?")


class Suppressions:
    """Per-file map of `// tlsa:allow(<check>): reason` comments, plus
    the `allow-syntax` diagnostics of the unreasoned ones and the
    per-check census of the reasoned ones."""

    def __init__(self, path, tokens, lines):
        self.allowed = {}   # line -> set of check ids
        self.diags = []
        self.by_check = {}  # census: check -> reasoned allows
        for tok in tokens:
            if tok.kind != "comment":
                continue
            for m in ALLOW_RE.finditer(tok.text):
                check = m.group("check")
                if not (m.group("reason") or "").strip():
                    self.diags.append(Diagnostic(
                        path, tok.line, "allow-syntax",
                        f"tlsa:allow({check}) without a reason string; "
                        f"write `// tlsa:allow({check}): <why this is "
                        "sound>`"))
                    continue
                self.by_check[check] = self.by_check.get(check, 0) + 1
                span = [tok.line]
                before = lines[tok.line - 1] if tok.line <= len(lines) \
                    else ""
                if before.lstrip().startswith(("//", "/*")):
                    span.append(tok.line + 1)  # standalone comment
                for ln in span:
                    self.allowed.setdefault(ln, set()).add(check)

    def suppresses(self, line, check):
        return check in self.allowed.get(line, ())


def manifest_lines(path):
    """[(line number, declaration, reason)] for the non-empty lines of
    a manifest (`# ...` carries the reason), or None when the file
    does not exist."""
    if not os.path.exists(path):
        return None
    rows = []
    with open(path, encoding="utf-8") as f:
        for num, raw in enumerate(f, 1):
            body, _, reason = raw.partition("#")
            if body.strip():
                rows.append((num, body.strip(), reason.strip()))
    return rows


LOCK_TYPES = {"MutexLock", "UniqueLock"}

NODE_CONTAINERS = {"map", "set", "list", "multimap", "multiset",
                   "unordered_map", "unordered_set",
                   "unordered_multimap", "unordered_multiset"}

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

#: Containers whose element type types `m[i]`, `m.at(i)`, `m.front()`
#: and `m.back()` (ELEM_ACCESSORS): `std::vector<T>`, `std::array<T, N>`.
ELEM_CONTAINERS = {"vector", "array"}
ELEM_ACCESSORS = {"at", "front", "back"}

#: Builtin type spellings that may head a member declaration. They
#: are KEYWORDS (so they never parse as member *names*) but P2's
#: reset-completeness walk needs `bool valid;`-style members in the
#: member map just like class-typed ones.
BUILTIN_TYPES = {
    "bool", "char", "short", "int", "long", "float", "double",
    "signed", "unsigned",
}


# --- program model -------------------------------------------------------

class CallSite:
    __slots__ = ("name", "quals", "recv", "recv_class", "recv_call",
                 "recv_elem", "line", "idx")

    def __init__(self, name, quals, recv, recv_class, line, idx,
                 recv_call=None, recv_elem=False):
        self.name = name          # callee spelling
        self.quals = quals        # explicit A::B:: prefix, tuple
        self.recv = recv          # receiver spelling ('' if none)
        self.recv_class = recv_class  # class, when statically known
        self.recv_call = recv_call  # CallSite whose result is the
        #                             receiver: `g(...).f()`
        self.recv_elem = recv_elem  # the receiver is `recv[...]`
        self.line = line
        self.idx = idx            # index into the file's code tokens


class LockAcq:
    __slots__ = ("lock_id", "line", "level")

    def __init__(self, lock_id, line, level):
        self.lock_id = lock_id
        self.line = line
        self.level = level        # context-stack depth at activation


class FuncDef:
    __slots__ = ("qual", "name", "cls", "relpath", "line", "hot",
                 "body", "calls", "acqs", "nested_edges",
                 "calls_under", "node_locals", "local_reserved",
                 "aliases", "sig", "ret")

    def __init__(self, qual, name, cls, relpath, line, hot):
        self.qual = qual          # e.g. "TlsMachine::stepCpuBatch"
        self.name = name
        self.cls = cls            # enclosing/explicit class or None
        self.ret = None           # `Cls` of a `Cls &`/`Cls *`/`Cls` return
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
    def __init__(self, relpath, tokens):
        self.relpath = relpath
        self.code = [t for t in tokens if t.kind != "comment"]
        self.tokens = tokens
        self.funcs = []
        self.node_members = set()  # member names declared node-based
        self.reserved = set()      # receivers .reserve()d in this file
        self.member_types = {}     # (class, member name) -> type name
        self.member_decls = {}     # (class, member) -> (relpath, line)
        self.member_elems = {}     # (class, member) -> element type
        self.bases = {}            # class -> tuple of base-class names


def match_forward(code, i, open_t, close_t):
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


def match_back(code, i, open_t, close_t):
    """Index of the token opening code[i] (a `close_t`), or -1.
    Counts characters, not tokens, so the lexer's single `>>` token
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


def _elem_type(code, q):
    """Element type T of the ELEM_CONTAINERS template whose argument
    list opens at code[q] (`vector<T>`, `array<const ns::T, N>`), or
    None when the container is another one or T is not a plain name."""
    if q < 1 or code[q - 1].text not in ELEM_CONTAINERS:
        return None
    k = q + 1
    if k < len(code) and code[k].text == "const":
        k += 1
    while k + 2 < len(code) and code[k].kind == "id" and \
            code[k + 1].text == "::":
        k += 2
    if k + 1 < len(code) and code[k].kind == "id" and \
            code[k + 1].text in (",", ">"):
        return code[k].text
    return None


def _receiver_of(code, i):
    """Receiver spelling, known class and whether the receiver is an
    element `recv[...]`, for a call at code[i] preceded by '.'/'->' at
    i-1. Handles `x.f()`, `xs_[i].f()`, and `Cls::instance().f()`
    (returns class Cls)."""
    j = i - 2
    if j < 0:
        return "", None, False
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
        if j >= 0 and code[j].kind == "id":
            return code[j].text, None, True
        return "", None, False
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
            return "", code[j - 2].text, False
        return "", None, False
    if code[j].kind == "id":
        return code[j].text, None, False
    return "", None, False


def _call_site(code, i, fn):
    """The CallSite of the call whose callee spelling is code[i] (the
    next token is its '('), made inside `fn`."""
    recv, recv_class, quals, recv_call = "", None, (), None
    recv_elem = False
    prev = code[i - 1].text
    if prev in (".", "->"):
        recv, recv_class, recv_elem = _receiver_of(code, i)
        recv_class = fn.aliases.get(recv, recv_class)
        if code[i - 2].text == ")" and recv_class is None:
            callee = match_back(code, i - 2, "(", ")") - 1
            recv_call = next((c for c in fn.calls if c.idx == callee),
                             None)
    elif prev == "::":
        quals = _qual_chain(code, i)
    return CallSite(code[i].text, quals, recv, recv_class, code[i].line,
                    i, recv_call, recv_elem)


def _qual_chain(code, i):
    """Explicit `A::B::` prefix ending right before code[i]."""
    quals = []
    j = i - 1
    while j >= 1 and code[j].text == "::" and code[j - 1].kind == "id":
        quals.insert(0, code[j - 1].text)
        j -= 2
    return tuple(quals)


def build_file_model(relpath, tokens):
    """One linear walk over the code tokens: class/namespace nesting,
    function definitions (with ctor init lists, trailing qualifiers,
    TLSIM_* annotations), call sites, lock-acquisition scopes, local
    aliases, and node-container member declarations."""
    fm = FileModel(relpath, tokens)
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
            acq = LockAcq(lock_id, line, len(ctx))
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
                    j = match_forward(code, j, "<", ">") + 1
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
                j = match_forward(code, j, "<", ">") + 1
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
            mtype = elem = None
            if p >= 1 and code[p].text in (">", ">>"):
                # Template-typed member: `std::vector<T> name;`. The
                # recorded type is the template head (`vector`) —
                # enough for P2's field walks; resolve() types the
                # elements of a vector or array from T instead.
                q = match_back(code, p, "<", ">")
                if q >= 1 and code[q - 1].kind == "id":
                    mtype = code[q - 1].text
                    elem = _elem_type(code, q)
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
                    if elem is not None:
                        fm.member_elems[(cur_class(), t)] = elem

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
            close = match_forward(code, i + 1, "(", ")")
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
                        j = match_forward(code, j, "(", ")") + 1
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
                        k = match_forward(code, k, "(", ")") + 1
                    elif tk == "{":
                        if code[k - 1].kind == "id" or \
                                code[k - 1].text == ">":
                            k = match_forward(code, k, "{", "}") + 1
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
                r = prev_i
                while r >= 0 and code[r].text in ("&", "*", "&&"):
                    r -= 1
                if r >= 0 and code[r].kind == "id" and \
                        code[r].text not in KEYWORDS:
                    fn.ret = code[r].text
                fn.body = (body_open, None)
                fn.sig = (i + 1, close)
                fm.funcs.append(fn)
                # Calls inside a ctor init list's initializers run
                # before the body, under no lock of this function (the
                # member names heading each initializer are not calls).
                depth = 0
                for m in range(close + 1, body_open):
                    tm = code[m].text
                    if tm in ("(", "{"):
                        depth += 1
                    elif tm in (")", "}"):
                        depth -= 1
                    elif depth and code[m].kind == "id" and \
                            code[m + 1].text == "(" and \
                            tm not in KEYWORDS:
                        fn.calls_under[len(fn.calls)] = frozenset()
                        fn.calls.append(_call_site(code, m, fn))
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
                close = match_forward(code, i + 2, "(", ")")
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
                if prev not in (".", "->", "::") and \
                        code[i - 1].kind == "id" and \
                        code[i - 1].text not in KEYWORDS and \
                        t not in LOCK_TYPES:
                    # `[static const] Type var(args)` calls Type's
                    # constructor: Type::Type.
                    cls_t = code[i - 1].text
                    cs = CallSite(cls_t,
                                  _qual_chain(code, i - 1) + (cls_t,),
                                  "", None, tok.line, i - 1)
                    fn.calls.append(cs)
                    fn.calls_under[len(fn.calls) - 1] = frozenset(
                        a.lock_id for a in active_acqs)
                    i += 1
                    continue
                cs = _call_site(code, i, fn)
                fn.calls.append(cs)
                fn.calls_under[len(fn.calls) - 1] = frozenset(
                    a.lock_id for a in active_acqs)
                if t == "reserve" and cs.recv:
                    fn.local_reserved.add(cs.recv)
                    fm.reserved.add(cs.recv)
        i += 1
    return fm


# --- whole-program index -------------------------------------------------

class Program:
    """Every file's model, indexed, with calls resolved once."""

    def __init__(self, files):
        self.files = files  # relpath -> FileModel
        self.funcs = []
        self.by_qual = {}
        self.by_name = {}
        self.node_members = set()
        self.reserved = set()
        self.member_types = {}  # (class, member) -> declared type
        self.member_decls = {}  # (class, member) -> (relpath, line)
        self.member_elems = {}  # (class, member) -> element type
        self.bases = {}         # class -> direct base-class names
        for fm in files.values():
            self.funcs.extend(fm.funcs)
            self.node_members |= fm.node_members
            self.reserved |= fm.reserved
            self.member_types.update(fm.member_types)
            self.member_decls.update(fm.member_decls)
            self.member_elems.update(fm.member_elems)
            self.bases.update(fm.bases)
        self.classes = set()
        self._decls = {}  # id(FuncDef) -> ({name: type}, {name: elem})
        for fn in self.funcs:
            self.by_qual.setdefault(fn.qual, fn)
            self.by_name.setdefault(fn.name, []).append(fn)
            if fn.cls:
                self.classes.add(fn.cls)
        # Calls whose receiver type the model cannot see although a
        # project class defines the method: (relpath, line, spelling).
        self.unresolved = set()
        self._callees = {}
        for fn in self.funcs:
            self._callees[id(fn)] = [self.resolve(c, fn)
                                     for c in fn.calls]

    def callees(self, fn):
        """Resolved targets of `fn.calls` (None where unresolved)."""
        return self._callees[id(fn)]

    def code(self, fn):
        return self.files[fn.relpath].code

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

    def member_elem(self, cls, member):
        """Element type of the vector/array member nearest `cls` in
        its base chain, or None."""
        for c in self.base_chain(cls):
            if (c, member) in self.member_types:
                return self.member_elems.get((c, member))
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
        return self._decl_tables(fn)[0].get(name)

    def elem_type(self, fn, name):
        """Element type T of `name` in `fn` when it is declared a
        `std::vector<T>` or `std::array<T, N>`: a parameter or local
        of `fn` first, as in C++ scoping, then a member of its class.
        None when unknown."""
        types, elems = self._decl_tables(fn)
        if name in types:
            return elems.get(name)
        return self.member_elem(fn.cls, name) if fn.cls else None

    def _decl_tables(self, fn):
        tables = self._decls.get(id(fn))
        if tables is None:
            tables = self._decls[id(fn)] = self._parse_decls(fn)
        return tables

    def _parse_decls(self, fn):
        code = self.files[fn.relpath].code
        decls, elems = {}, {}

        def record(name, ptype, elem=None):
            if decls.get(name, ptype) != ptype or \
                    elems.get(name, elem) != elem:
                ptype = elem = None  # redeclared with another type
            decls[name] = ptype
            elems[name] = elem

        def type_before(toks, p):
            """(type, element type) spelled right before toks[p + 1];
            None for what is not spelled."""
            while p >= 0 and toks[p].text in ("*", "&", "&&", "const"):
                p -= 1
            if p >= 0 and toks[p].text in (">", ">>"):
                q = match_back(toks, p, "<", ">")
                if q >= 1 and toks[q - 1].kind == "id":
                    return toks[q - 1].text, _elem_type(toks, q)
                return None, None
            if p >= 0 and toks[p].kind == "id" and (
                    toks[p].text not in KEYWORDS or
                    toks[p].text == "auto" or
                    toks[p].text in BUILTIN_TYPES):
                return toks[p].text, None
            return None, None

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
                    ptype, elem = type_before(seg, ids[-1] - 1)
                    record(seg[ids[-1]].text, ptype or "", elem)
                seg = []
        # Locals: `Type name` followed by = ; { ( or a range-for colon.
        start, end = fn.body
        for k in range(start + 1, end or start):
            tok = code[k]
            if tok.kind != "id" or tok.text in KEYWORDS or \
                    code[k + 1].text not in ("=", ";", "{", "(", ":"):
                continue
            ltype, elem = type_before(code, k - 1)
            # `auto p = [std::]make_unique<Cls>(...)`: p->f() is Cls::f.
            m = k + 2
            if code[m].text == "std" and code[m + 1].text == "::":
                m += 2
            if ltype == "auto" and code[k + 1].text == "=" and \
                    code[m].text in ("make_unique", "make_shared") and \
                    code[m + 1].text == "<" and \
                    code[m + 2].kind == "id" and code[m + 3].text == ">":
                ltype = code[m + 2].text
            if ltype is not None:
                record(tok.text, ltype, elem)
        return decls, elems

    def resolve(self, call, caller):
        """CallSite -> FuncDef or None. Edges only when attribution
        is unambiguous; see DESIGN.md §4.5 for what this misses."""
        if call.recv_class:
            return self.by_qual.get(f"{call.recv_class}::{call.name}")
        cands = self.by_name.get(call.name, [])
        # An element of a declared vector or array: `m[i].f()`,
        # `m.at(i).f()`, `m.front().f()`, `m.back().f()` is T::f.
        rc = call.recv_call
        if call.recv_elem:
            et = self.elem_type(caller, call.recv)
        elif rc is not None and rc.name in ELEM_ACCESSORS and \
                rc.recv and not rc.recv_elem and not rc.quals:
            et = self.elem_type(caller, rc.recv)
        else:
            et = None
        if et is not None:
            return (self.by_qual.get(f"{et}::{call.name}")
                    if et in self.classes else None)
        if call.recv_call is not None:
            # `g(...).f()`: f of the class g is declared to return.
            g = self.resolve(call.recv_call, caller)
            if g is not None and g.ret in self.classes:
                return self.by_qual.get(f"{g.ret}::{call.name}")
            # A result of unknown class binds to nothing, like any
            # receiver whose type the model cannot see (below).
            if g is None:
                self._unresolved(call, caller, cands, "(...)")
            return None
        if call.quals:
            fn = self.by_qual.get(
                f"{call.quals[-1]}::{call.name}")
            if fn:
                return fn
            cands = [f for f in self.by_name.get(call.name, [])
                     if f.cls is None]
            return cands[0] if len(cands) == 1 else None
        if call.recv:
            # A declared type beats any name hint. A parameter or local
            # of the caller (`Foo &f`, `Foo f = ...`) comes first, as in
            # C++ scoping; a type that is not a project class (a
            # template parameter, a std:: type) reaches no project
            # method, whatever the spelling hints.
            dt = self.declared_type(caller, call.recv)
            if dt is not None and dt != "auto":
                return (self.by_qual.get(f"{dt}::{call.name}")
                        if dt in self.classes else None)
            # Then a member of the caller's class: `Foo f_;` makes
            # `f_.bar()` resolve to Foo::bar — or to nothing if Foo
            # defines no bar, rather than falling through to a
            # substring guess the declaration just contradicted.
            if caller.cls:
                mt = self.member_type(caller.cls, call.recv)
                if mt is not None and mt in self.classes:
                    return self.by_qual.get(f"{mt}::{call.name}")
            # A receiver of unknown type (an `auto` local, a container
            # element) binds to nothing: neither a unique method name
            # nor a spelling that resembles a class says what the
            # receiver is.
            self._unresolved(call, caller, cands, call.recv)
            return None
        # Unqualified call inside a method: the caller's own class
        # wins, as in C++ name lookup.
        if caller.cls:
            own = self.by_qual.get(f"{caller.cls}::{call.name}")
            if own is not None:
                return own
        if call.name in GENERIC_METHODS:
            return None
        return cands[0] if len(cands) == 1 else None

    def _unresolved(self, call, caller, cands, recv):
        """Count a call whose receiver type the model cannot see, when
        some project class defines the method it names."""
        if any(f.cls for f in cands):
            self.unresolved.add((caller.relpath, call.line,
                                 f"{recv}.{call.name}"))
