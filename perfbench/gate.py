"""Correctness gate: the observable answer of each command, its digest, and
the facts the theory fixes independently of any recorded reference.

Only what a user reads counts as the answer: the exit code, the CLI text,
and in JSON output the dimension, names, full-coordinate vectors,
representatives, symmetry verdict, violations and tables.  ``rank`` and any
field a later version adds (stage statistics, totals) are left out, because
a faster solver may change them legitimately.
"""

from __future__ import annotations

import hashlib
import json
import re

from workloads import expected_ok

_CLASSIFICATION_KEYS = ("dimension", "unknowns", "vectors", "representatives",
                        "names", "strict", "symmetry_emerged")
_KEEP = {
    "verify": ("id", "ok", "violations"),
    "annihilator": ("id", "flagged", "basis", "dimension"),
}

#: Violation counts of the as-printed tables that the catalog documents.
VERBATIM_VIOLATIONS = {"m3:6:3": 74, "m4:6:2": 34}


def _pick(data: dict, keys) -> dict:
    return {k: data[k] for k in keys if k in data}


def observable(command, code, stdout: str):
    """The part of a command's result that the gate compares."""
    if "--json" not in command or not stdout:
        return [code, stdout]
    data = json.loads(stdout)
    sub = command[0]
    if sub == "classify":
        if "--grid" in command:
            data = {ident: _pick(cl, _CLASSIFICATION_KEYS)
                    for ident, cl in data.items()}
        else:
            data = _pick(data, _CLASSIFICATION_KEYS)
    elif sub in _KEEP:
        data = _pick(data, _KEEP[sub])
    return [code, data]


def digest(command, code, stdout: str) -> str:
    blob = json.dumps(observable(command, code, stdout), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _classifications(command, stdout: str) -> dict[str, tuple]:
    """id -> (dimension, names, symmetry_emerged or None)."""
    out = {}
    if "--json" in command:
        data = json.loads(stdout)
        items = data.items() if "--grid" in command else [(command[1], data)]
        for ident, cl in items:
            out[ident] = (cl["dimension"], tuple(cl["names"]),
                          cl["symmetry_emerged"])
        return out
    lines = stdout.splitlines()
    if "--grid" in command:
        pairs = [line.split(": ", 1) for line in lines]
    else:
        pairs = [(command[1], lines[0])]
    for ident, summary in pairs:
        m = re.fullmatch(r"dimension (\d+); (?:representatives: (.*)|\[L1,L1\]=0)",
                         summary)
        if m is None:
            out[ident] = (None, (), None)
            continue
        names = tuple(m.group(2).split(", ")) if m.group(2) else ()
        out[ident] = (int(m.group(1)), names, None)
    return out


def _violation_count(command, stdout: str) -> int | None:
    if "--json" in command:
        data = json.loads(stdout)
        return data.get("total")
    m = re.match(r"(\d+) violation\(s\)", stdout)
    return int(m.group(1)) if m else None


def theory_problems(command, code, stdout: str) -> list[str]:
    """Facts fixed by the mathematics, checked without any reference:
    every catalog id has dimension 0 except n1:1 (dimension 1, S1 and S2),
    symmetry emerges under strict mode, repaired tables pass, as-printed
    ones and broken files fail, with the documented violation counts."""
    sub, target = command[0], command[1]
    verbatim = "--verbatim-tables" in command
    if sub == "classify":
        if code != 0:
            return [f"exit {code}"]
        problems = []
        for ident, (dim, names, emerged) in _classifications(command,
                                                             stdout).items():
            if ident == "n1:1":
                want = (1, ("S1", "S2"))
            else:  # JSON also names the zero table, text does not
                want = (0, ("zero",) if "--json" in command else ())
            if (dim, names) != want:
                problems.append(f"{ident}: dimension {dim}, names {names}")
            if "--strict-symmetry" in command and "--json" in command \
                    and emerged is not True:
                problems.append(f"{ident}: symmetry did not emerge")
        return problems
    if sub == "verify":
        if target.startswith("@"):
            ok = expected_ok(target[1:])
        else:
            ok = not verbatim
        if code != (0 if ok else 1):
            return [f"exit {code}, expected {0 if ok else 1}"]
        want = VERBATIM_VIOLATIONS.get(target) if verbatim else None
        got = _violation_count(command, stdout)
        if want is not None and got is not None and got != want:
            return [f"{got} violations, expected {want}"]
        return []
    return [] if code == 0 else [f"exit {code}"]
