"""sos-lint rule implementations.

Three families, seven rules:

Determinism (the replay-identity contract: metrics/wire/trace/report bytes
must be a pure function of the scenario seed):

- ``unordered-iteration`` — no iteration over ``std::unordered_map`` /
  ``std::unordered_set`` (or aliases of them) in code reachable from the
  emission roots. Hash-table iteration order is
  libstdc++-version-dependent and (for pointer-ish keys) address-dependent,
  so one range-for can silently break bitwise metric identity.
- ``banned-entropy`` — no ambient entropy or wall-clock sources
  (``std::rand``, ``std::random_device``, ``system_clock``, ``time()``,
  ...) outside the ``util/rng`` allowlist. All randomness must derive from
  the scenario seed.
- ``pointer-key`` — no ordered associative containers keyed by a pointer:
  iteration order is allocation-address order, i.e. nondeterministic
  across runs even with identical seeds.

Crypto hygiene (constant-time discipline in ``src/crypto`` + the
handshake/resume paths):

- ``memcmp-secret`` — no raw ``memcmp`` / ``==`` / ``!=`` over secret
  material; use ``util::ct_equal``. Sites comparing public data carry
  ``// sos-lint: allow(memcmp-public) <why the operands are public>``.
- ``zeroize-secret`` — structs/classes holding key material must zeroize
  it (``util::secure_wipe`` in their destructor).

Concurrency contracts (the detach/attach seam and the lock discipline the
Clang Thread Safety annotations in ``util/thread_annotations.hpp`` check
at compile time — these rules cover the parts attributes cannot express):

- ``seam-completeness`` — every data member of a seam class (the classes
  whose state crosses task-shard boundaries through detach()/attach())
  must be referenced somewhere in the detach/attach closure (the seam
  bodies plus same-class methods they call), or carry
  ``// sos-lint: allow(seam-exempt) <why this member is seam-inert>``.
  A member added without either is exactly the bug class the seam exists
  to prevent: state silently dropped at a task boundary.
- ``lock-scope`` — in the annotated shared-state files, no callback,
  emission, or scheduler call while a ``lock_guard`` / ``unique_lock`` /
  ``scoped_lock`` / ``MutexLock`` is in scope. Re-entrant callbacks under
  a lock are the classic self-deadlock / lock-order-inversion seed; the
  span is over-approximate (a manual ``unlock()`` does not end it), so
  sound sites annotate ``allow(lock-scope)`` with the reason.

Every rule accepts an inline annotation
``// sos-lint: allow(<tag>) <justification>`` on the flagged line (or as a
standalone comment on the line above). An annotation without a
justification is itself a finding (``lint-annotation``): exemptions are
cheap to grant but must say *why*.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from cxx_model import FileModel

ALL_RULES = (
    "unordered-iteration",
    "banned-entropy",
    "pointer-key",
    "memcmp-secret",
    "zeroize-secret",
    "seam-completeness",
    "lock-scope",
)

# Which annotation tags silence which rule.
ALLOW_TAGS = {
    "unordered-iteration": {"unordered-iteration"},
    "banned-entropy": {"banned-entropy"},
    "pointer-key": {"pointer-key"},
    "memcmp-secret": {"memcmp-secret", "memcmp-public"},
    "zeroize-secret": {"zeroize-secret"},
    "seam-completeness": {"seam-completeness", "seam-exempt"},
    "lock-scope": {"lock-scope"},
}


@dataclass(frozen=True)
class Finding:
    file: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.file}:{self.line}: [{self.rule}] {self.message}"


def _allowed(model: FileModel, line: int, rule: str) -> bool:
    return bool(model.allow_tags(line) & ALLOW_TAGS[rule])


def check_annotations(model: FileModel) -> list[Finding]:
    """A bare allow() with no justification is itself a violation."""
    out = []
    for a in model.annotations:
        if not a.justification:
            out.append(Finding(
                model.path, a.line, "lint-annotation",
                "allow(...) annotation needs a justification "
                "(why is this exemption sound?)",
            ))
        for tag in a.tags:
            known = set().union(*ALLOW_TAGS.values())
            if tag not in known:
                out.append(Finding(
                    model.path, a.line, "lint-annotation",
                    f"unknown allow tag '{tag}' (known: {', '.join(sorted(known))})",
                ))
    return out


# --------------------------------------------------------------------------
# determinism rules
# --------------------------------------------------------------------------

def emission_reachable(models: list[FileModel], cfg) -> set[tuple[str, str]]:
    """(file, qual) of every function in the forward call closure of the
    emission roots. Call edges are name-based (callee name -> every
    function defined with that name), an over-approximation."""
    by_name: dict[str, list] = {}
    for m in models:
        for fn in m.functions:
            by_name.setdefault(fn.name, []).append(fn)

    roots = []
    for m in models:
        in_emission_file = any(p in m.path for p in cfg.emission_paths)
        for fn in m.functions:
            if in_emission_file or fn.name in cfg.emission_roots:
                roots.append(fn)

    seen: set[tuple[str, str]] = set()
    work = list(roots)
    while work:
        fn = work.pop()
        key = (fn.file, fn.qual)
        if key in seen:
            continue
        seen.add(key)
        for callee in fn.calls:
            for target in by_name.get(callee, ()):
                if (target.file, target.qual) not in seen:
                    work.append(target)
    return seen


def rule_unordered_iteration(models: list[FileModel], cfg) -> list[Finding]:
    reach = emission_reachable(models, cfg)
    out = []
    for m in models:
        for fn in m.functions:
            if not fn.unordered_iterations:
                continue
            if (fn.file, fn.qual) not in reach:
                continue
            for line, expr in fn.unordered_iterations:
                if _allowed(m, line, "unordered-iteration"):
                    continue
                out.append(Finding(
                    m.path, line, "unordered-iteration",
                    f"iteration over unordered container '{expr}' in "
                    f"'{fn.qual}', which is reachable from metrics/wire/"
                    "trace/report emission; hash order is not deterministic "
                    "— iterate a sorted copy or an ordered container",
                ))
    return out


def rule_banned_entropy(models: list[FileModel], cfg) -> list[Finding]:
    out = []
    for m in models:
        if any(m.path.endswith(p) or p in m.path for p in cfg.entropy_allow_paths):
            continue
        for i, tok in enumerate(m.tokens):
            nxt = m.tokens[i + 1].text if i + 1 < len(m.tokens) else ""
            hit = tok.text in cfg.banned_entropy or (
                tok.text in cfg.banned_entropy_calls and nxt == "("
            )
            if not hit:
                continue
            if _allowed(m, tok.line, "banned-entropy"):
                continue
            out.append(Finding(
                m.path, tok.line, "banned-entropy",
                f"banned entropy/wall-clock source '{tok.text}' — all "
                "randomness must derive from the scenario seed via "
                "util/rng (util::Rng, util::derive_seed) or crypto::Drbg",
            ))
    return out


def rule_pointer_key(models: list[FileModel], cfg) -> list[Finding]:
    out = []
    for m in models:
        for line, key in m.pointer_key_decls:
            if _allowed(m, line, "pointer-key"):
                continue
            out.append(Finding(
                m.path, line, "pointer-key",
                f"associative container keyed by pointer type '{key}': "
                "iteration order is allocation-address order, which is "
                "nondeterministic across runs — key by a stable id",
            ))
    return out


# --------------------------------------------------------------------------
# crypto hygiene rules
# --------------------------------------------------------------------------

def _in_crypto_paths(path: str, cfg) -> bool:
    return any(p in path for p in cfg.crypto_paths)


def rule_memcmp_secret(models: list[FileModel], cfg) -> list[Finding]:
    secret_re = re.compile(cfg.secret_ident_pattern)
    out = []
    for m in models:
        if not _in_crypto_paths(m.path, cfg):
            continue
        for i, tok in enumerate(m.tokens):
            if tok.text == "memcmp":
                if _allowed(m, tok.line, "memcmp-secret"):
                    continue
                out.append(Finding(
                    m.path, tok.line, "memcmp-secret",
                    "raw memcmp in a crypto path: early-exit comparison "
                    "leaks a timing oracle if an operand is secret — use "
                    "util::ct_equal, or annotate "
                    "'// sos-lint: allow(memcmp-public) <why public>'",
                ))
            elif tok.text in {"==", "!="}:
                # Identifier operands adjacent to the comparison.
                near = [
                    t.text for t in m.tokens[max(0, i - 4):i + 5]
                    if re.match(r"[A-Za-z_]", t.text)
                ]
                hits = [n for n in near if secret_re.search(n)]
                if not hits:
                    continue
                if _allowed(m, tok.line, "memcmp-secret"):
                    continue
                out.append(Finding(
                    m.path, tok.line, "memcmp-secret",
                    f"'{tok.text}' comparison involving secret-named "
                    f"operand '{hits[0]}' in a crypto path — use "
                    "util::ct_equal, or annotate allow(memcmp-public)",
                ))
    return out


def rule_zeroize_secret(models: list[FileModel], cfg) -> list[Finding]:
    secret_member = re.compile(cfg.secret_member_pattern)
    buffer_type = re.compile(cfg.secret_buffer_types)
    # Destructor bodies may live in a different file (hpp decl / cpp def).
    dtors: dict[str, str] = {}
    for m in models:
        dtors.update(m.dtor_bodies)
    out = []
    for m in models:
        if not _in_crypto_paths(m.path, cfg):
            continue
        for cls in m.classes:
            lo, hi = cls.body_lines
            secret_lines = []
            for ln in range(lo, min(hi, len(m.code_lines)) + 1):
                src = m.code_lines[ln - 1]
                if buffer_type.search(src) and secret_member.search(src):
                    secret_lines.append(ln)
            if not secret_lines:
                continue
            body_text = "\n".join(m.code_lines[lo - 1:hi])
            wiped = "secure_wipe" in body_text or "secure_wipe" in dtors.get(cls.name, "")
            if wiped:
                continue
            if _allowed(m, cls.line, "zeroize-secret") or all(
                _allowed(m, ln, "zeroize-secret") for ln in secret_lines
            ):
                continue
            out.append(Finding(
                m.path, secret_lines[0], "zeroize-secret",
                f"'{cls.name}' holds key material (line {secret_lines[0]}) "
                "but never zeroizes it — call util::secure_wipe in the "
                "destructor, or annotate allow(zeroize-secret)",
            ))
    return out


# --------------------------------------------------------------------------
# concurrency-contract rules
# --------------------------------------------------------------------------

def rule_seam_completeness(models: list[FileModel], cfg) -> list[Finding]:
    """Every trailing-underscore member of a seam class must appear in the
    detach/attach closure: the detach()/attach() bodies plus, transitively,
    same-class methods they call. Facts come from the token layer
    (FileModel.token_functions), so verdicts are frontend-independent; the
    clang frontend can only add references on top, never remove them."""
    # (class, method) -> definitions, across all scanned files — the seam
    # bodies usually live in the .cpp while the members live in the .hpp.
    by_class_method: dict[tuple[str, str], list] = {}
    for m in models:
        for fn in m.token_functions:
            parts = fn.qual.split("::")
            if len(parts) >= 2:
                by_class_method.setdefault((parts[-2], parts[-1]), []).append(fn)

    out = []
    for m in models:
        for cls in m.classes:
            if cls.name not in cfg.seam_classes or not cls.members:
                continue
            work = []
            for entry in ("detach", "attach"):
                work.extend(by_class_method.get((cls.name, entry), []))
            if not work:
                # Seam bodies not in the scanned set (partial file list):
                # no reference facts means no sound verdict — stay silent
                # rather than flag every member.
                continue
            seen: set[tuple[str, str, int]] = set()
            referenced: set[str] = set()
            while work:
                fn = work.pop()
                key = (fn.file, fn.qual, fn.line)
                if key in seen:
                    continue
                seen.add(key)
                referenced |= fn.idents
                for callee in fn.calls:
                    work.extend(by_class_method.get((cls.name, callee), []))
            for name, line in cls.members:
                if name in referenced:
                    continue
                if _allowed(m, line, "seam-completeness"):
                    continue
                out.append(Finding(
                    m.path, line, "seam-completeness",
                    f"member '{name}' of seam class '{cls.name}' is never "
                    "referenced in the detach()/attach() closure — state it "
                    "holds silently stays behind at an task-shard "
                    "boundary; wire it through the seam or annotate "
                    "'// sos-lint: allow(seam-exempt) <why seam-inert>'",
                ))
    return out


def rule_lock_scope(models: list[FileModel], cfg) -> list[Finding]:
    """No callback / emission / scheduler calls while a scoped lock is
    alive, in the files carrying thread-safety annotations. The span facts
    are token-level (FileModel.lock_scope_calls) and over-approximate:
    a manual unlock() does not end the span — annotate such sites."""
    banned = set(cfg.lock_scope_calls)
    prefixes = tuple(cfg.lock_scope_call_prefixes)
    out = []
    for m in models:
        if not any(p in m.path for p in cfg.lock_scope_paths):
            continue
        seen: set[tuple[int, str]] = set()
        for line, callee, decl_line in m.lock_scope_calls:
            if not (callee in banned or (prefixes and callee.startswith(prefixes))):
                continue
            if (line, callee) in seen:  # nested lock scopes overlap
                continue
            seen.add((line, callee))
            if _allowed(m, line, "lock-scope"):
                continue
            out.append(Finding(
                m.path, line, "lock-scope",
                f"'{callee}' called while the lock declared on line "
                f"{decl_line} is in scope — callbacks/emission/scheduler "
                "calls under a lock invite re-entrant deadlock; move the "
                "call after the critical section (drop the lock first) or "
                "annotate '// sos-lint: allow(lock-scope) <why safe>'",
            ))
    return out


RULE_FNS = {
    "unordered-iteration": rule_unordered_iteration,
    "banned-entropy": rule_banned_entropy,
    "pointer-key": rule_pointer_key,
    "memcmp-secret": rule_memcmp_secret,
    "zeroize-secret": rule_zeroize_secret,
    "seam-completeness": rule_seam_completeness,
    "lock-scope": rule_lock_scope,
}


def run_rules(models: list[FileModel], cfg) -> list[Finding]:
    findings: list[Finding] = []
    for m in models:
        findings.extend(check_annotations(m))
    for rule in ALL_RULES:
        if rule in cfg.disabled_rules:
            continue
        findings.extend(RULE_FNS[rule](models, cfg))
    return sorted(findings, key=lambda f: (f.file, f.line, f.rule))
