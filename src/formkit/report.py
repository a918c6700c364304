"""Violation reports shared by all verification sweeps, and the base of
formkit's validated value records."""

from __future__ import annotations

from typing import NamedTuple


class Record:
    """A value record: equal, hashed and shown by the fields its
    ``__slots__`` names, in that order. Subclasses validate in ``__init__``."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self.__slots__)})"


class InputError(ValueError):
    """Input formkit cannot work on: a malformed document, a relation or
    operator that does not fit its form, or a size beyond a builder's cap.
    The message says where; the command line exits 2 on it."""


class Violation(NamedTuple):
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


class Report:
    """Outcome of a verification sweep: empty violations means clean."""

    def __init__(self, violations: list[Violation] | None = None, checks_run: int = 0, notes: list[str] | None = None):
        self.violations = [] if violations is None else violations
        self.checks_run = checks_run
        self.notes = [] if notes is None else notes

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
