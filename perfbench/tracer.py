"""Per-layer timing of formkit from outside its source.

`install` wraps public functions of each formkit module in place: a wrapped
function records a span (name, start, end, parent) or, for functions called
millions of times, only bumps a counter. Each wrapper replaces the original
under every name that refers to it in any formkit module, because modules
import functions by name (`cli` does `from .topogenous import verify_order`)
and call them through their own globals. Methods are replaced on the class.

Spans stay in memory; the child process writes them once, when its command
has finished (see child.py).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
from collections import Counter
from time import perf_counter

# (module, attribute, span name). Attribute "Class.method" patches a method.
SPANNED = (
    ("formkit.setmaps", "function_category", "setmaps.function_category"),
    ("formkit.topologies", "build_top_form", "topologies.build"),
    ("formkit.groups", "build_grp_form", "groups.build"),
    ("formkit.partitions", "build_quot_form", "partitions.build"),
    ("formkit.forms", "CategoryPresentation.verify", "forms.base_verify"),
    ("formkit.forms", "FormInstance.verify_laws", "forms.verify_laws"),
    ("formkit.forms", "FormInstance.verify_lifting_iso_laws", "forms.lifting_iso"),
    ("formkit.topogenous", "verify_order", "topogenous.verify_order"),
    ("formkit.topogenous", "classify_order", "topogenous.classify_order"),
    ("formkit.topogenous", "verify_closure", "topogenous.verify_closure"),
    ("formkit.topogenous", "roundtrip_check", "topogenous.roundtrip"),
    ("formkit.morphisms", "transfer_laws_check", "morphisms.transfer_laws"),
    ("formkit.morphisms", "strict_via_operators", "morphisms.strict_via_operators"),
    ("formkit.search", "run_case", "search.case"),
    ("formkit.search", "random_form", "search.random_form"),
    ("formkit.search", "random_order", "search.random_order"),
    ("formkit.jsonio", "load_json", "jsonio.read"),
    ("formkit.jsonio", "form_from_dict", "jsonio.read"),
    ("formkit.jsonio", "order_from_dict", "jsonio.read"),
    ("formkit.jsonio", "form_to_dict", "jsonio.write"),
    ("formkit.jsonio", "dump_json", "jsonio.write"),
)

# Hot functions: counted, never spanned.
COUNTED = (
    ("formkit.lattice", "FiniteLattice.meet", "lattice.meet_join.calls"),
    ("formkit.lattice", "FiniteLattice.join", "lattice.meet_join.calls"),
    ("formkit.lattice", "FiniteLattice.leq", "lattice.leq.calls"),
    ("formkit.topogenous", "closure_from_order", "topogenous.derive.calls"),
    ("formkit.topogenous", "interior_from_order", "topogenous.derive.calls"),
    ("formkit.morphisms", "is_strict", "morphisms.strict_final.calls"),
    ("formkit.morphisms", "is_final", "morphisms.strict_final.calls"),
)

# Spans whose returned Report's checks_run is copied into "<span>.checks".
REPORTS_CHECKS = ("forms.base_verify", "forms.verify_laws", "topogenous.roundtrip", "morphisms.transfer_laws")

ROOT = "cli"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.generated_forms: list = []
        self._stack: list[int] = []

    def spanned(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after(self, name, attr):
        """What a span records about its call beyond its interval."""
        counts = self.counts
        if name in REPORTS_CHECKS:
            return lambda rep, args: counts.update({name + ".checks": rep.checks_run})
        if attr == "function_category":
            return lambda res, args: counts.update({"setmaps.compose_entries": len(res[0].compose_table)})
        if attr == "random_form":
            return lambda form, args: self.generated_forms.append(form)
        if attr == "load_json":
            return lambda res, args: counts.update({"jsonio.bytes_read": os.path.getsize(args[0])})
        if attr == "dump_json":
            return lambda res, args: counts.update({"jsonio.bytes_written": os.path.getsize(args[1])})
        return None

    def install(self) -> None:
        import formkit.cli  # noqa: F401  (imports every module that gets patched)

        for module, attr, name in SPANNED:
            _replace(module, attr, lambda fn, n=name, a=attr: self.spanned(n, fn, self._after(n, a.split(".")[-1])))
        for module, attr, name in COUNTED:
            _replace(module, attr, lambda fn, n=name: self.counted(n, fn))

    def distinct_forms(self) -> int:
        """Distinct generated forms, by digest of their canonical JSON."""
        from formkit.jsonio import form_to_dict

        form_to_dict = getattr(form_to_dict, "__wrapped__", form_to_dict)  # leave no span
        digests = set()
        for form in self.generated_forms:
            text = json.dumps(form_to_dict(form), sort_keys=True, separators=(",", ":"))
            digests.add(hashlib.sha256(text.encode()).digest())
        return len(digests)

    def dump(self, path: str) -> None:
        doc = {
            "spans": self.spans,
            "counts": dict(self.counts),
            "generated_forms": len(self.generated_forms),
            "distinct_forms": self.distinct_forms(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _replace(module_name: str, attr: str, make) -> None:
    module = sys.modules[module_name]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        setattr(cls, meth, make(cls.__dict__[meth]))
        return
    orig = getattr(module, attr)
    wrapped = make(orig)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "formkit" or name.startswith("formkit.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapped)


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (name, start, end, parent), kids in zip(spans, children):
        covered = 0.0
        cur_s = cur_e = None
        for s, e in sorted(kids):
            s, e = max(s, start), min(e, end)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((end - start) - covered)
    return out
