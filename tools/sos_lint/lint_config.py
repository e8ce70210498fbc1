"""sos-lint configuration.

Defaults here describe THIS repo (scan paths, emission roots, crypto
paths, secret-name patterns); ``sos_lint.toml`` next to this file is
merged over them so the catalog can be tuned without touching code.
Paths are repo-relative with forward slashes and are matched by
substring, so a directory prefix covers everything under it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields
from pathlib import Path


@dataclass
class LintConfig:
    # What to scan.
    scan_paths: list[str] = field(default_factory=lambda: ["src"])
    extensions: list[str] = field(default_factory=lambda: [".cpp", ".hpp"])
    disabled_rules: list[str] = field(default_factory=list)

    # unordered-iteration: files whose functions are emission roots (their
    # entire forward call closure must not iterate unordered containers),
    # plus root function names for emission helpers defined elsewhere.
    emission_paths: list[str] = field(default_factory=lambda: [
        "src/deploy/report",   # bench/metric tables
        "src/deploy/sweep",    # sweep cell results feed the tables
        "src/mw/wire",         # wire frames: byte-exact across engines
        "src/sim/trace",       # recorded contact traces are replayed bitwise
        "src/graph/metrics",   # graph metric emission
        "src/mw/stats",        # per-node counters aggregated into metrics
        "src/util/stats",      # summary statistics helpers
        "src/util/log",        # formatted output
    ])
    emission_roots: list[str] = field(default_factory=lambda: [
        "emit_report",         # fixture/selftest root
        "to_json", "render", "add_row", "set_row", "serialize", "encode",
    ])

    # banned-entropy.
    banned_entropy: list[str] = field(default_factory=lambda: [
        "rand", "srand", "drand48", "lrand48", "mrand48", "random",
        "random_device", "system_clock", "gettimeofday", "mt19937",
        "mt19937_64", "default_random_engine",
    ])
    banned_entropy_calls: list[str] = field(default_factory=lambda: [
        # Banned only in call position: `time` and `clock` are common
        # identifier fragments but poisonous as libc calls.
        "time", "clock",
    ])
    entropy_allow_paths: list[str] = field(default_factory=lambda: [
        "src/util/rng.hpp", "src/util/rng.cpp",
    ])

    # crypto hygiene: paths holding secret material (src/crypto plus the
    # handshake/resume session layer).
    crypto_paths: list[str] = field(default_factory=lambda: [
        "src/crypto/", "src/mw/adhoc_manager", "src/mw/wire",
    ])
    # Identifier shapes that name secret values in comparisons.
    secret_ident_pattern: str = (
        r"(^|_)(secret|secrets|okm|prk|ikm|master)(_|$)"
        r"|^(send|recv)_key_?$|^eph_priv_?$|^scalar_$|^seed_$|^prefix_$"
    )
    # Member names that hold key material (zeroize rule)...
    secret_member_pattern: str = (
        r"\b(secret|resume_secret|send_key|recv_key|eph_priv|scalar_"
        r"|seed_|prefix_|key_|master_secret|priv_)\b"
    )
    # ...when declared with a byte-buffer type.
    secret_buffer_types: str = (
        r"std::array<\s*std::uint8_t|std::uint8_t\s+\w+\s*\["
        r"|util::Bytes|X25519Key|EdSeed\b"
    )

    # seam-completeness: classes whose per-node state crosses task-shard
    # boundaries through the detach()/attach() seam. Every trailing-
    # underscore member of these classes must be referenced in the seam
    # closure or carry allow(seam-exempt).
    seam_classes: list[str] = field(default_factory=lambda: [
        "AdHocManager", "MessageManager", "RoutingManager", "SosNode",
    ])

    # lock-scope: files whose locks the rule polices (the ones carrying
    # SOS_GUARDED_BY annotations — where a callback fired under a lock can
    # re-enter the locking layer), the exact callee names that are risky
    # under a lock, and name prefixes treated the same way (the middleware
    # callback convention).
    lock_scope_paths: list[str] = field(default_factory=lambda: [
        "src/crypto/verify_memo", "src/deploy/replay", "src/deploy/sweep",
        "src/util/mutex",
    ])
    lock_scope_calls: list[str] = field(default_factory=lambda: [
        "schedule_at", "schedule_in", "cancel",   # scheduler API
        "emit_report", "to_json", "render",       # emission roots
    ])
    lock_scope_call_prefixes: list[str] = field(default_factory=lambda: [
        "on_",                                    # middleware callbacks
    ])


def load_config(root: Path, override: Path | None = None) -> LintConfig:
    cfg = LintConfig()
    toml_path = override or Path(__file__).resolve().parent / "sos_lint.toml"
    if toml_path.exists():
        try:
            import tomllib
        except ModuleNotFoundError:  # pragma: no cover — python < 3.11
            print(f"sos-lint: warning: tomllib unavailable, "
                  f"ignoring {toml_path}", file=sys.stderr)
            return cfg
        data = tomllib.loads(toml_path.read_text())
        valid = {f.name for f in fields(LintConfig)}
        for key, value in data.items():
            name = key.replace("-", "_")
            if name not in valid:
                print(f"sos-lint: warning: unknown config key '{key}' in "
                      f"{toml_path}", file=sys.stderr)
                continue
            setattr(cfg, name, value)
    return cfg
