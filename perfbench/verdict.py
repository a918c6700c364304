"""Verdicts: the part of a command's answer that must not change.

A verdict is the exit code plus, for every check in the JSON report, its
name, status and sorted violations as (check, where, witness). For
`instance ... --emit` it also holds the digest of the emitted form as
canonical (sort_keys) JSON. Counts (`checks_run`), wall time, stderr,
notes and file paths are left out, so a report that only gains counters or
reads its input from another path still matches its reference.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional


def canonical_digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def _violation_key(v: dict) -> str:
    return json.dumps([v.get("check"), v.get("where"), v.get("witness")], sort_keys=True)


def check_verdict(check: dict) -> dict:
    violations = sorted(_violation_key(v) for v in check.get("violations", []))
    return {
        "name": check["name"],
        "status": check["status"],
        "violations": len(violations),
        "violations_digest": canonical_digest(violations),
    }


def verdict_of(exit_code: int, report_text: str, emitted: Optional[dict] = None) -> dict:
    """The verdict of one command from its exit code, its stdout and, for an
    emitting command, the parsed emitted form. Raises ValueError when stdout
    is not a JSON report."""
    try:
        report = json.loads(report_text)
        checks = report["checks"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValueError(f"stdout is not a formkit JSON report: {exc}") from exc
    out = {"exit": exit_code, "checks": [check_verdict(c) for c in checks]}
    if emitted is not None:
        out["emitted"] = canonical_digest(emitted)
    return out


def differences(verdict: dict, reference: dict) -> list[str]:
    """Human-readable differences; empty when the verdict matches."""
    out = []
    if verdict.get("exit") != reference.get("exit"):
        out.append(f"exit {verdict.get('exit')} != reference {reference.get('exit')}")
    if verdict.get("emitted") != reference.get("emitted"):
        out.append("emitted form differs from the reference")
    got = {c["name"]: c for c in verdict.get("checks", [])}
    want = {c["name"]: c for c in reference.get("checks", [])}
    for name in sorted(set(got) | set(want)):
        if name not in got:
            out.append(f"check {name!r} missing")
        elif name not in want:
            out.append(f"unexpected check {name!r}")
        elif got[name] != want[name]:
            g, w = got[name], want[name]
            out.append(
                f"check {name!r}: status {g['status']} ({g['violations']} violations)"
                f" != reference {w['status']} ({w['violations']} violations)"
            )
    return out
