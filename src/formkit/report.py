"""Violation reports shared by all verification sweeps."""

from __future__ import annotations

from dataclasses import dataclass, field


class InputError(ValueError):
    """Input formkit cannot work on: a malformed document, a relation or
    operator that does not fit its form, or a size beyond a builder's cap.
    The message says where; the command line exits 2 on it."""


@dataclass(frozen=True)
class Violation:
    """One failed check with enough context to replay it.

    ``witness`` holds the offending indices (fibre elements, subset members)
    in sweep order; ``where`` names the object and/or morphism.
    """

    check: str
    where: str = ""
    witness: tuple = ()
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "where": self.where,
            "witness": list(self.witness),
            "detail": self.detail,
        }


@dataclass
class Report:
    """Outcome of a verification sweep: empty violations means clean."""

    violations: list[Violation] = field(default_factory=list)
    checks_run: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, check: str, where: str = "", witness: tuple = (), detail: str = "") -> None:
        self.violations.append(Violation(check, where, witness, detail))

    def count(self, check: str, n: int = 1) -> None:
        self.checks_run += n

    def merge(self, other: "Report") -> "Report":
        self.violations.extend(other.violations)
        self.checks_run += other.checks_run
        self.notes.extend(other.notes)
        return self

    def to_dict(self) -> dict:
        # Stable ordering so reports are byte-identical across runs.
        ordered = sorted(
            self.violations,
            key=lambda v: (v.check, v.where, tuple(map(str, v.witness)), v.detail),
        )
        return {
            "ok": self.ok,
            "checks_run": self.checks_run,
            "violations": [v.to_dict() for v in ordered],
            "notes": list(self.notes),
        }

    def __str__(self) -> str:
        if self.ok:
            return f"clean ({self.checks_run} checks)"
        head = f"{len(self.violations)} violation(s) in {self.checks_run} checks"
        lines = [head]
        for v in self.violations[:10]:
            lines.append(f"  {v.check} @ {v.where} witness={v.witness} {v.detail}")
        if len(self.violations) > 10:
            lines.append(f"  ... {len(self.violations) - 10} more")
        return "\n".join(lines)
