#!/usr/bin/env python3
"""sos-lint: determinism & constant-time static analysis for this repo.

The repo's headline guarantee — metrics, wire bytes, traces, and reports
bitwise identical across replay engines, job counts, and memo configs —
was only ever enforced dynamically (determinism pins under TSan). This
tool enforces the *static* half: no nondeterministic iteration or ambient
entropy on emission-reachable paths, and constant-time / zeroizing
discipline for secret material. Rule catalog: rules.py. Config:
lint_config.py (its defaults are the repo's policy).

Usage:
  sos_lint.py --root <repo>                 # lint src/ (CMake `lint` target)
  sos_lint.py --root <repo> --selftest      # run tests/lint_fixtures
  sos_lint.py --root <repo> path1.cpp ...   # lint specific files
  sos_lint.py --format sarif --output <f>   # SARIF 2.1.0 for CI upload

Exit codes: 0 clean, 1 findings (or fixture mismatch), 2 usage/internal
(including a config path entry that matches no scanned file).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from cxx_model import FileModel, build_model  # noqa: E402
from lint_config import LintConfig  # noqa: E402
from rules import ALL_RULES, Finding, run_rules  # noqa: E402


def _load_models(root: Path, paths: list[Path]) -> list[FileModel]:
    models = []
    for p in paths:
        rel = p.relative_to(root).as_posix() if p.is_absolute() else p.as_posix()
        models.append(build_model(rel, p.read_text(encoding="utf-8", errors="replace")))
    return models


# --------------------------------------------------------------------------
# SARIF 2.1.0 output
# --------------------------------------------------------------------------

_SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                 "master/Schemata/sarif-schema-2.1.0.json")

_RULE_HELP = {
    "unordered-iteration": "Hash-order iteration on an emission-reachable path",
    "banned-entropy": "Ambient entropy/wall-clock source outside util/rng",
    "pointer-key": "Associative container keyed by pointer (address order)",
    "memcmp-secret": "Non-constant-time comparison of secret material",
    "zeroize-secret": "Key material not zeroized in the destructor",
    "seam-completeness": "Seam-class member missing from detach()/attach() closure",
    "lock-scope": "Callback/emission/scheduler call under a held lock",
    "lint-annotation": "Malformed or unjustified sos-lint allow() annotation",
}


def to_sarif(findings: list[Finding]) -> dict:
    results = [
        {
            "ruleId": f.rule,
            "level": "error",
            "message": {"text": f.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": f.file, "uriBaseId": "SRCROOT"},
                    "region": {"startLine": f.line},
                },
            }],
        }
        for f in findings
    ]
    rules = [
        {"id": rid, "shortDescription": {"text": desc}}
        for rid, desc in sorted(_RULE_HELP.items())
    ]
    return {
        "version": "2.1.0",
        "$schema": _SARIF_SCHEMA,
        "runs": [{
            "tool": {"driver": {
                "name": "sos-lint",
                "informationUri": "tools/sos_lint/sos_lint.py",
                "rules": rules,
            }},
            "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
            "results": results,
        }],
    }


def validate_sarif(doc: dict) -> list[str]:
    """Structural validation against the SARIF 2.1.0 requirements this tool
    relies on (full JSON-Schema validation needs a package this container
    does not ship; these are the fields the spec marks required plus the
    cross-references GitHub code scanning rejects uploads over)."""
    errs = []
    if doc.get("version") != "2.1.0":
        errs.append("version must be the literal '2.1.0'")
    if not str(doc.get("$schema", "")).endswith("sarif-schema-2.1.0.json"):
        errs.append("$schema must reference sarif-schema-2.1.0.json")
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        errs.append("runs must be a non-empty array")
        return errs
    for ri, run in enumerate(runs):
        driver = run.get("tool", {}).get("driver", {})
        if not driver.get("name"):
            errs.append(f"runs[{ri}].tool.driver.name is required")
        declared = {r.get("id") for r in driver.get("rules", [])}
        for si, res in enumerate(run.get("results", [])):
            where = f"runs[{ri}].results[{si}]"
            if not res.get("ruleId"):
                errs.append(f"{where}.ruleId is required")
            elif res["ruleId"] not in declared:
                errs.append(f"{where}.ruleId '{res['ruleId']}' not declared "
                            "in tool.driver.rules")
            if not res.get("message", {}).get("text"):
                errs.append(f"{where}.message.text is required")
            for loc in res.get("locations", []):
                region = loc.get("physicalLocation", {}).get("region", {})
                if region.get("startLine", 1) < 1:
                    errs.append(f"{where}: region.startLine must be >= 1")
    return errs


def _scan_paths(root: Path, cfg: LintConfig) -> list[Path]:
    out: list[Path] = []
    for sp in cfg.scan_paths:
        base = root / sp
        if not base.exists():
            continue
        for ext in cfg.extensions:
            out.extend(sorted(base.rglob(f"*{ext}")))
    return out


def stale_paths(root: Path, cfg: LintConfig) -> list[str]:
    """Every `*_paths` config entry that matches no file the configured
    scan covers. Entries match by substring, so a stale one (a deleted or
    renamed file) would otherwise be a silent no-op."""
    rels = [p.relative_to(root).as_posix() for p in _scan_paths(root, cfg)]
    out = []
    for f in dataclasses.fields(cfg):
        if not f.name.endswith("_paths"):
            continue
        for entry in getattr(cfg, f.name):
            if not any(entry in rel for rel in rels):
                out.append(f"{f.name} entry '{entry}'")
    return out


def _emit(findings: list[Finding], fmt: str, output: Path | None,
          summary: str) -> int:
    if fmt == "sarif":
        doc = to_sarif(findings)
        errs = validate_sarif(doc)
        if errs:  # a malformed document is a tool bug, not a lint verdict
            print("sos-lint: internal error: generated SARIF is invalid:",
                  file=sys.stderr)
            for e in errs:
                print(f"  {e}", file=sys.stderr)
            return 2
        text = json.dumps(doc, indent=1)
        if output:
            output.write_text(text + "\n")
            print(f"sos-lint: wrote SARIF ({len(findings)} result(s)) "
                  f"to {output}")
        else:
            print(text)
    else:
        for f in findings:
            print(f.render())
    print(summary)
    return 1 if findings else 0


def lint(root: Path, cfg: LintConfig, files: list[Path], fmt: str = "text",
         output: Path | None = None) -> int:
    models = _load_models(root, files)
    findings = run_rules(models, cfg)
    if findings:
        summary = (f"sos-lint: {len(findings)} finding(s) across "
                   f"{len({f.file for f in findings})} file(s)")
    else:
        summary = (f"sos-lint: clean ({len(models)} files, "
                   f"{sum(len(m.functions) for m in models)} functions)")
    return _emit(findings, fmt, output, summary)


def selftest(root: Path) -> int:
    """Run the rule fixtures: tests/lint_fixtures/<rule>_trigger.cpp must
    produce >=1 finding of exactly <rule>; <rule>_clean.cpp must produce
    none at all. A rule that stops firing therefore fails ctest -L lint."""
    fixture_dir = root / "tests" / "lint_fixtures"
    if not fixture_dir.is_dir():
        print(f"sos-lint: selftest: no fixture dir at {fixture_dir}",
              file=sys.stderr)
        return 2
    cfg = LintConfig()
    # Fixtures are self-contained single files: they play the role of both
    # emission code and crypto code so every rule can fire inside one file.
    cfg.emission_paths = ["tests/lint_fixtures"]
    cfg.crypto_paths = ["tests/lint_fixtures"]
    cfg.entropy_allow_paths = []
    cfg.seam_classes = ["SeamFixture"]
    cfg.lock_scope_paths = ["tests/lint_fixtures"]

    failures = []
    cases = sorted(fixture_dir.glob("*.cpp"))
    if not cases:
        print("sos-lint: selftest: fixture dir is empty", file=sys.stderr)
        return 2
    covered: set[str] = set()
    for path in cases:
        stem = path.stem
        if stem.endswith("_trigger"):
            rule, expect_hit = stem[:-len("_trigger")].replace("_", "-"), True
        elif stem.endswith("_clean"):
            rule, expect_hit = stem[:-len("_clean")].replace("_", "-"), False
        else:
            failures.append(f"{path.name}: fixture names must end in "
                            "_trigger.cpp or _clean.cpp")
            continue
        if rule not in ALL_RULES:
            failures.append(f"{path.name}: unknown rule '{rule}'")
            continue
        covered.add(rule)
        models = _load_models(root, [path])
        findings = run_rules(models, cfg)
        if expect_hit:
            mine = [f for f in findings if f.rule == rule]
            stray = [f for f in findings if f.rule not in (rule, )]
            if not mine:
                failures.append(f"{path.name}: expected a '{rule}' finding, "
                                "got none — the rule has stopped firing")
            if stray:
                failures.append(
                    f"{path.name}: stray findings {[f.render() for f in stray]}"
                    " — trigger fixtures must trip exactly their own rule")
            # FileCheck-style line pins: every `// finding:`-marked line
            # must fire, so a rule that loses one detection *form* (e.g.
            # memcmp but not operator==) fails even while its sibling form
            # still fires.
            expected_lines = {
                n for n, line in enumerate(models[0].raw_lines, start=1)
                if "// finding" in line
            }
            got_lines = {f.line for f in mine}
            for n in sorted(expected_lines - got_lines):
                failures.append(f"{path.name}:{n}: marked '// finding' but "
                                f"'{rule}' did not fire there")
            for n in sorted(got_lines - expected_lines):
                failures.append(f"{path.name}:{n}: unexpected '{rule}' "
                                "finding on an unmarked line")
        else:
            if findings:
                failures.append(
                    f"{path.name}: expected clean, got "
                    f"{[f.render() for f in findings]}")
    missing = set(ALL_RULES) - covered
    if missing:
        failures.append("rules without fixtures: " + ", ".join(sorted(missing)))

    # A config path entry naming no scanned file must be reported, not
    # silently match nothing.
    stale_cfg = LintConfig()
    stale_cfg.scan_paths = ["tests/lint_fixtures"]
    stale_cfg.emission_paths = ["tests/lint_fixtures/unordered_iteration",
                                "tests/lint_fixtures/no_such_fixture"]
    stale_cfg.crypto_paths = ["tests/lint_fixtures/"]
    stale_cfg.entropy_allow_paths = []
    stale_cfg.lock_scope_paths = []
    want = ["emission_paths entry 'tests/lint_fixtures/no_such_fixture'"]
    got = stale_paths(root, stale_cfg)
    if got != want:
        failures.append(f"stale config paths: expected {want}, got {got}")

    if failures:
        print("sos-lint selftest FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"sos-lint selftest passed: {len(cases)} fixtures, "
          f"{len(covered)} rules covered")
    return 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", type=Path, default=Path.cwd(),
                    help="repository root (default: cwd)")
    ap.add_argument("--selftest", action="store_true",
                    help="run the rule fixtures in tests/lint_fixtures")
    ap.add_argument("--format", choices=["text", "sarif"], default="text",
                    help="finding output format (sarif = SARIF 2.1.0)")
    ap.add_argument("--output", type=Path, default=None,
                    help="write --format output to this file (sarif only)")
    ap.add_argument("files", nargs="*", type=Path,
                    help="specific files to lint (default: configured scan paths)")
    args = ap.parse_args(argv)

    root = args.root.resolve()
    if args.selftest:
        return selftest(root)

    cfg = LintConfig()
    stale = stale_paths(root, cfg)
    if stale:
        for entry in stale:
            print(f"sos-lint: config {entry} matches no scanned file under "
                  f"{root}; drop or fix it", file=sys.stderr)
        return 2
    files = [p.resolve() for p in args.files] if args.files else _scan_paths(root, cfg)
    if not files:
        print("sos-lint: nothing to scan", file=sys.stderr)
        return 2
    return lint(root, cfg, files, fmt=args.format, output=args.output)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
