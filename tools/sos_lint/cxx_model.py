"""Token-level C++ frontend for sos-lint.

A dependency-free frontend: a comment/string-aware tokenizer plus a
lightweight semantic model (function definitions, name-based call edges,
unordered-container declarations and iteration sites, allow-annotations).
It deliberately over-approximates — a name-based call graph has edges a
real compiler would prune — because every rule it feeds accepts an inline
``// sos-lint: allow(<rule>) <justification>`` annotation for the false
positives, while a missed true positive would silently void the repo's
determinism guarantee.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

# C++ keywords that can precede a '(' without being a call or a function
# definition name.
_NOT_CALL = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "alignas", "decltype", "noexcept", "static_assert", "throw", "new",
    "delete", "case", "do", "else", "operator", "typeid", "requires",
    "co_await", "co_return", "co_yield", "assert",
}

_MULTI_PUNCT = [
    "<=>", "->*", "...", "::", "->", "==", "!=", "<=", ">=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "++", "--",
]

_TOKEN_RE = re.compile(
    "|".join(re.escape(p) for p in _MULTI_PUNCT)
    + r"|[A-Za-z_][A-Za-z0-9_]*|0[xX][0-9a-fA-F']+|[0-9][0-9a-fA-F'.eEpPxXuUlLfF]*|\S"
)

_UNORDERED_TYPES = {
    "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset",
}

_ORDERED_ASSOC_TYPES = {"map", "set", "multimap", "multiset"}

_ANNOTATION_RE = re.compile(
    r"sos-lint:\s*allow\(([A-Za-z0-9_,\- ]+)\)\s*(.*)$"
)


@dataclass
class Token:
    text: str
    line: int


@dataclass
class Annotation:
    line: int          # line the comment sits on
    standalone: bool   # comment is the only thing on its line
    tags: tuple[str, ...]
    justification: str


@dataclass
class Function:
    name: str                 # last identifier component
    qual: str                 # Namespace::Class::name when derivable
    file: str
    line: int
    end_line: int
    calls: set[str] = field(default_factory=set)
    # (line, container expression text) for each unordered iteration found.
    unordered_iterations: list[tuple[int, str]] = field(default_factory=list)
    # Every identifier token in the body (seam-completeness reference facts).
    idents: set[str] = field(default_factory=set)


@dataclass
class ClassDef:
    name: str
    file: str
    line: int
    end_line: int
    body_lines: tuple[int, int]  # inclusive line span of the class body
    # Data members by this repo's trailing-underscore convention: (name,
    # declaration line) for identifiers like `foo_` declared directly in the
    # class body (depth 1, outside parens, followed by ; = { or [).
    members: list[tuple[str, int]] = field(default_factory=list)


@dataclass
class FileModel:
    path: str                  # repo-relative, forward slashes
    raw_lines: list[str]       # original source lines (1-indexed via [n-1])
    code_lines: list[str]      # comments/strings/preprocessor blanked
    tokens: list[Token]
    annotations: list[Annotation]
    functions: list[Function]
    classes: list[ClassDef]
    # Names (variables, members, aliases) declared with an unordered type,
    # mapped to their declaration line.
    unordered_names: dict[str, int]
    # Declarations of ordered associative containers with pointer keys.
    pointer_key_decls: list[tuple[int, str]]
    # Destructor definitions seen in this file: class name -> body text.
    dtor_bodies: dict[str, str]
    # (call line, callee name, lock declaration line) for every call made
    # while a lock_guard/unique_lock/scoped_lock/MutexLock declared in the
    # same block is in scope. Over-approximates (a manual unlock() does not
    # end the span) — the lock-scope rule filters by risky callee names and
    # accepts allow(lock-scope) for the rest.
    lock_scope_calls: list[tuple[int, str, int]] = field(default_factory=list)

    def allow_tags(self, line: int) -> set[str]:
        """Tags allowed on `line`: a same-line comment, or a standalone
        annotation comment whose next code line (skipping blank and
        comment-only lines) is `line`."""
        tags: set[str] = set()
        for a in self.annotations:
            if a.line == line:
                tags.update(a.tags)
            elif a.standalone and a.line < line:
                # Does any code intervene between the annotation and `line`?
                between = range(a.line, line - 1)  # code_lines is 0-indexed
                if all(
                    i >= len(self.code_lines) or not self.code_lines[i].strip()
                    for i in between
                ):
                    tags.update(a.tags)
        return tags


def scrub(text: str) -> tuple[str, list[tuple[int, str, bool]]]:
    """Blank out comments, string/char literals, and preprocessor
    directives while preserving offsets and line structure.

    Returns (code, comments) where comments is [(line, text, standalone)].
    """
    out = list(text)
    comments: list[tuple[int, str, bool]] = []
    i, n = 0, len(text)
    line = 1
    line_has_code = False

    def blank(a: int, b: int) -> None:
        for k in range(a, b):
            if out[k] not in "\n":
                out[k] = " "

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            line_has_code = False
            i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            comments.append((line, text[i:j], not line_has_code))
            blank(i, j)
            i = j
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            comments.append((line, text[i:j], not line_has_code))
            line += text.count("\n", i, j)
            blank(i, j)
            i = j
            continue
        if c == "#" and not line_has_code:
            # Preprocessor directive (with backslash continuations).
            j = i
            while j < n:
                e = text.find("\n", j)
                e = n if e == -1 else e
                if e > j and text[e - 1] == "\\":
                    j = e + 1
                else:
                    j = e
                    break
            line += text.count("\n", i, j)
            blank(i, j)
            i = j
            continue
        if c == "R" and text.startswith('R"', i):
            m = re.match(r'R"([^()\\ ]*)\(', text[i:])
            if m:
                close = ")" + m.group(1) + '"'
                j = text.find(close, i + m.end())
                j = n if j == -1 else j + len(close)
                line += text.count("\n", i, j)
                blank(i, j)
                line_has_code = True
                i = j
                continue
        if c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            # Keep the quotes so expressions keep their shape.
            blank(i + 1, j - 1)
            line_has_code = True
            i = j
            continue
        if not c.isspace():
            line_has_code = True
        i += 1
    return "".join(out), comments


def tokenize(code: str) -> list[Token]:
    tokens: list[Token] = []
    line = 1
    pos = 0
    for m in _TOKEN_RE.finditer(code):
        line += code.count("\n", pos, m.start())
        pos = m.start()
        tokens.append(Token(m.group(0), line))
    return tokens


def parse_annotations(comments: list[tuple[int, str, bool]]) -> list[Annotation]:
    anns = []
    for line, text, standalone in comments:
        m = _ANNOTATION_RE.search(text)
        if m:
            tags = tuple(t.strip() for t in m.group(1).split(",") if t.strip())
            just = m.group(2).strip().rstrip("*/").strip()
            anns.append(Annotation(line, standalone, tags, just))
    return anns


def _match_forward(tokens: list[Token], i: int, open_t: str, close_t: str) -> int:
    """Index just past the token matching tokens[i] == open_t."""
    depth = 0
    while i < len(tokens):
        if tokens[i].text == open_t:
            depth += 1
        elif tokens[i].text == close_t:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return i


def _collect_unordered_decls(tokens: list[Token]) -> tuple[dict[str, int], list[tuple[int, str]]]:
    """Find names declared with unordered types (directly or through one
    level of using-alias) and ordered associative containers keyed by a
    pointer type."""
    unordered: dict[str, int] = {}
    aliases: set[str] = set()
    pointer_keys: list[tuple[int, str]] = []
    i = 0
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.text in _UNORDERED_TYPES or t.text in _ORDERED_ASSOC_TYPES:
            is_unordered = t.text in _UNORDERED_TYPES
            # Require a following template argument list.
            j = i + 1
            if j < n and tokens[j].text == "<":
                end = _match_forward(tokens, j, "<", ">")
                # Pointer-keyed associative container: first template arg
                # (depth-1 tokens up to the first depth-1 comma) ends in '*'.
                depth = 0
                key_toks: list[str] = []
                for k in range(j, end):
                    txt = tokens[k].text
                    if txt == "<":
                        depth += 1
                        if depth == 1:
                            continue
                    elif txt == ">":
                        depth -= 1
                    if depth == 1 and txt == ",":
                        break
                    if depth >= 1:
                        key_toks.append(txt)
                if key_toks and key_toks[-1] == "*":
                    pointer_keys.append((t.line, " ".join(key_toks)))
                # Declared name: next identifier after the closing '>'.
                k = end
                while k < n and tokens[k].text in {"&", "*", "const"}:
                    k += 1
                if is_unordered and k < n and re.match(r"[A-Za-z_]", tokens[k].text):
                    name = tokens[k].text
                    # `using Alias = std::unordered_map<...>` names a type.
                    if i >= 3 and tokens[i - 3].text == "using" and tokens[i - 1].text == "=":
                        pass  # alias handled below via the 'using' scan
                    elif k + 1 < n and tokens[k + 1].text == "(":
                        pass  # function returning the container
                    else:
                        unordered.setdefault(name, tokens[k].line)
                i = end
                continue
        if t.text == "using" and i + 2 < n and tokens[i + 2].text == "=":
            alias = tokens[i + 1].text
            # Does the aliased type mention an unordered container?
            k = i + 3
            while k < n and tokens[k].text != ";":
                if tokens[k].text in _UNORDERED_TYPES:
                    aliases.add(alias)
                    unordered.setdefault(alias, tokens[i + 1].line)
                    break
                k += 1
        i += 1
    # One pass for declarations through aliases: `Alias name;`
    for i in range(len(tokens) - 1):
        if tokens[i].text in aliases and re.match(r"[A-Za-z_]", tokens[i + 1].text):
            nxt = tokens[i + 1].text
            if nxt not in {"const", "operator"} and (
                i + 2 >= n or tokens[i + 2].text != "("
            ):
                unordered.setdefault(nxt, tokens[i + 1].line)
    return unordered, pointer_keys


def _scan_body(tokens: list[Token], start: int, end: int,
               unordered_names: dict[str, int], fn: Function) -> None:
    """Collect call names and unordered-iteration sites in a body span."""
    i = start
    while i < end:
        t = tokens[i]
        nxt = tokens[i + 1].text if i + 1 < end else ""
        if re.match(r"[A-Za-z_]", t.text):
            fn.idents.add(t.text)
        if re.match(r"[A-Za-z_]", t.text) and nxt == "(" and t.text not in _NOT_CALL:
            fn.calls.add(t.text)
        # Range-for over an unordered container.
        if t.text == "for" and nxt == "(":
            close = _match_forward(tokens, i + 1, "(", ")")
            depth = 0
            colon = -1
            for k in range(i + 1, close):
                txt = tokens[k].text
                if txt in "([{":
                    depth += 1
                elif txt in ")]}":
                    depth -= 1
                elif txt == ":" and depth == 1:
                    colon = k
                    break
            if colon != -1:
                expr = [tokens[k].text for k in range(colon + 1, close - 1)]
                if any(e in unordered_names for e in expr):
                    fn.unordered_iterations.append((t.line, " ".join(expr)))
        # Explicit iterator walk: container.begin() / cbegin() / rbegin().
        if (
            t.text in unordered_names
            and nxt == "."
            and i + 2 < end
            and tokens[i + 2].text in {"begin", "cbegin", "rbegin", "crbegin"}
        ):
            fn.unordered_iterations.append((t.line, t.text + "." + tokens[i + 2].text + "()"))
        i += 1


def _class_members(tokens: list[Token], open_idx: int, close_idx: int) -> list[tuple[str, int]]:
    """Trailing-underscore data members declared directly in a class body:
    identifiers like `foo_` at brace depth 1 (relative to the class body),
    outside any parentheses (so parameter default arguments don't match),
    followed by ';', '=', '{' or '['."""
    members: dict[str, int] = {}
    depth = 0
    paren = 0
    for k in range(open_idx, close_idx):
        txt = tokens[k].text
        if txt == "{":
            depth += 1
        elif txt == "}":
            depth -= 1
        elif txt == "(":
            paren += 1
        elif txt == ")":
            paren -= 1
        elif (
            depth == 1 and paren == 0
            and len(txt) > 1 and txt.endswith("_")
            and re.match(r"[A-Za-z_]", txt)
            and (k == 0 or tokens[k - 1].text != "using")
        ):
            nxt = tokens[k + 1].text if k + 1 < close_idx else ""
            if nxt in {";", "=", "{", "["}:
                members.setdefault(txt, tokens[k].line)
    return sorted(members.items(), key=lambda kv: kv[1])


_LOCK_TYPES = {"lock_guard", "unique_lock", "scoped_lock", "shared_lock", "MutexLock"}


def _collect_lock_scope_calls(tokens: list[Token]) -> list[tuple[int, str, int]]:
    """(call line, callee, lock declaration line) for every call inside the
    block scope of a named lock object. Config-independent over-approximation;
    the lock-scope rule filters callee names against the risky sets."""
    calls: list[tuple[int, str, int]] = []
    n = len(tokens)
    for i in range(n):
        if tokens[i].text not in _LOCK_TYPES:
            continue
        j = i + 1
        if j < n and tokens[j].text == "<":
            j = _match_forward(tokens, j, "<", ">")
        # Declaration shape: `LockType[<...>] name(...)` or `... name{...}`.
        if not (
            j + 1 < n
            and re.match(r"[A-Za-z_]", tokens[j].text)
            and tokens[j + 1].text in {"(", "{"}
        ):
            continue
        decl_line = tokens[i].line
        depth = 0
        k = j + 1
        while k < n:
            txt = tokens[k].text
            if txt == "{":
                depth += 1
            elif txt == "}":
                depth -= 1
                if depth < 0:
                    break  # enclosing block closed: the lock is destroyed
            nxt = tokens[k + 1].text if k + 1 < n else ""
            if re.match(r"[A-Za-z_]", txt) and nxt == "(" and txt not in _NOT_CALL:
                calls.append((tokens[k].line, txt, decl_line))
            k += 1
    return calls


def _extract_functions_and_classes(
    path: str, tokens: list[Token], unordered_names: dict[str, int]
) -> tuple[list[Function], list[ClassDef], dict[str, str]]:
    functions: list[Function] = []
    classes: list[ClassDef] = []
    dtor_bodies: dict[str, str] = {}
    # (kind, name, brace_depth_at_open) for namespace/class scopes.
    scope: list[tuple[str, str, int]] = []
    depth = 0
    i = 0
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.text == "{":
            depth += 1
            i += 1
            continue
        if t.text == "}":
            depth -= 1
            while scope and scope[-1][2] > depth:
                scope.pop()
            i += 1
            continue
        if t.text in {"namespace", "class", "struct"}:
            # Look ahead for `name ... {` (skip fwd decls / vars).
            j = i + 1
            name = ""
            if j < n and re.match(r"[A-Za-z_]", tokens[j].text):
                name = tokens[j].text
                j += 1
            # Skip qualifiers / base-clause up to '{', ';' or '('.
            guard = 0
            while j < n and tokens[j].text not in {"{", ";", "("} and guard < 64:
                j += 1
                guard += 1
            if j < n and tokens[j].text == "{" and t.text != "namespace":
                body_end = _match_forward(tokens, j, "{", "}")
                end_line = tokens[body_end - 1].line if body_end - 1 < n else t.line
                if name:
                    classes.append(ClassDef(name, path, t.line, end_line,
                                            (tokens[j].line, end_line),
                                            _class_members(tokens, j, body_end)))
                # Fall through: scope tracking still sees the '{'.
                scope.append((t.text, name, depth + 1))
                i = j
                continue
            if j < n and tokens[j].text == "{" and t.text == "namespace":
                scope.append(("namespace", name, depth + 1))
                i = j
                continue
            i = j if j > i else i + 1
            continue
        # Candidate function definition: identifier '(' ... ')' [quals] '{'
        nxt = tokens[i + 1].text if i + 1 < n else ""
        if re.match(r"[A-Za-z_~]", t.text) and nxt == "(" and t.text not in _NOT_CALL:
            close = _match_forward(tokens, i + 1, "(", ")")
            k = close
            # Skip cv/ref/noexcept/attributes/trailing-return tokens.
            guard = 0
            while k < n and guard < 64:
                txt = tokens[k].text
                if txt == "{":
                    break
                if txt == ":":
                    # Constructor init list: hop initializer by initializer.
                    k += 1
                    while k < n:
                        # initializer: name ( ... ) or name { ... }
                        while k < n and tokens[k].text not in {"(", "{"}:
                            k += 1
                        if k >= n:
                            break
                        k = _match_forward(tokens, k, tokens[k].text,
                                           ")" if tokens[k].text == "(" else "}")
                        if k < n and tokens[k].text == ",":
                            k += 1
                            continue
                        break
                    break
                if txt in {";", "=", ")", ",", "}"} or txt == "(":
                    k = -1
                    break
                k += 1
                guard += 1
            if k != -1 and k < n and tokens[k].text == "{":
                body_end = _match_forward(tokens, k, "{", "}")
                # Qualified name: A::B::name directly before the '('.
                qual_parts = [t.text]
                b = i - 1
                while b - 1 >= 0 and tokens[b].text == "::" and re.match(
                    r"[A-Za-z_]", tokens[b - 1].text
                ):
                    qual_parts.insert(0, tokens[b - 1].text)
                    b -= 2
                cls = next((nm for kd, nm, _ in reversed(scope) if kd != "namespace"), "")
                qual = "::".join(qual_parts) if len(qual_parts) > 1 else (
                    f"{cls}::{t.text}" if cls else t.text
                )
                fn = Function(
                    name=t.text,
                    qual=qual,
                    file=path,
                    line=t.line,
                    end_line=tokens[body_end - 1].line if body_end - 1 < n else t.line,
                )
                _scan_body(tokens, k + 1, body_end - 1, unordered_names, fn)
                functions.append(fn)
                if t.text.startswith("~") or (
                    len(qual_parts) > 1 and qual_parts[-1].startswith("~")
                ):
                    owner = qual_parts[-1].lstrip("~")
                    dtor_bodies[owner] = " ".join(
                        tok.text for tok in tokens[k + 1:body_end - 1]
                    )
                # '~Name' tokenizes as '~' + 'Name'; handle that shape too.
                if i >= 1 and tokens[i - 1].text == "~":
                    dtor_bodies[t.text] = " ".join(
                        tok.text for tok in tokens[k + 1:body_end - 1]
                    )
                i = body_end
                continue
        i += 1
    return functions, classes, dtor_bodies


def build_model(path: str, text: str) -> FileModel:
    code, comments = scrub(text)
    tokens = tokenize(code)
    unordered_names, pointer_keys = _collect_unordered_decls(tokens)
    functions, classes, dtors = _extract_functions_and_classes(path, tokens, unordered_names)
    return FileModel(
        path=path,
        raw_lines=text.splitlines(),
        code_lines=code.splitlines(),
        tokens=tokens,
        annotations=parse_annotations(comments),
        functions=functions,
        classes=classes,
        unordered_names=unordered_names,
        pointer_key_decls=pointer_keys,
        dtor_bodies=dtors,
        lock_scope_calls=_collect_lock_scope_calls(tokens),
    )
