"""Seeded command lists for the benchmark workloads.

A command is a tuple of CLI tokens.  A token ``@<name>`` stands for a JSON
algebra file that the benchmark writes at set-up (see ``write_inputs``); the
command's key, which the reference answers are filed under, keeps the
``@<name>`` spelling so that it does not depend on where the file lives.

The seed picks, for every slot of a workload, one of the slot's spellings,
and it picks the order of the commands.  The spellings of one slot name the
same table (``m4:<n>:2`` is ``m1:<n>`` and ``m3:<n>:2`` is ``m2:<n>``, which
the catalog tests pin bit for bit), or differ only in a rational parameter,
so a pass does the same amount of work whatever the seed: the spread of a
metric over seeds measures the program and the machine, not the draw.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

Command = tuple[str, ...]


def _cmds(*lines: str) -> tuple[Command, ...]:
    return tuple(tuple(line.split()) for line in lines)


# classify-large: a few large ids, where constraint generation is 80-90% of
# the time and per-call costs vanish.
LARGE_SLOTS: tuple[tuple[Command, ...], ...] = (
    _cmds("classify n1:24"),
    _cmds("classify m1:24", "classify m4:24:2"),
    _cmds("classify m3:16:3"),
)

# classify-sweep: the README's grid use over all six families, text and
# JSON, strict symmetry on small ladders (twice the unknowns), and n1:1, the
# one id whose solution space is nonzero.
_SWEEP_GRIDS: tuple[tuple[str, ...], ...] = (
    ("classify n1 --grid 2..7",),
    ("classify n2 --grid 2..7",),
    ("classify m1 --grid 2..5", "classify m4 --grid 2:2,3:2,4:2,5:2"),
    ("classify m2 --grid 2..5", "classify m3 --grid 2:2,3:2,4:2,5:2"),
    ("classify m3 --grid 4:3,6:3",),
    ("classify m4 --grid 4:3,6:3",),
    ("classify n1 --grid 1..4 --strict-symmetry",),
    ("classify n2 --grid 1..4 --strict-symmetry",),
)
SWEEP_SLOTS: tuple[tuple[Command, ...], ...] = tuple(
    _cmds(*(f"{line}{suffix}" for line in slot))
    for slot in _SWEEP_GRIDS for suffix in ("", " --json")
) + (_cmds("classify n1:1"), _cmds("classify n1:1 --json"))

# verify-tables: the checkers and the JSON reader and writer, on repaired
# and as-printed chain bimodules and on assembled superalgebra files; no
# classification at all.
_CHAIN_IDS = ("m3:6:3", "m4:6:2", "m3:8:3", "m4:8:3", "m3:10:4", "m4:10:4")
_TWINS = {"m4:6:2": ("m4:6:2", "m1:6")}
_CHAIN_COMMANDS = ("verify {}", "verify {} --json", "annihilator {}",
                   "table {} --json")

#: Parameters of the one-parameter n1:1 family the seed draws from; the
#: checkers' cost does not depend on which one is drawn.
MEMBER_PARAMETERS = ("1", "4", "9", "-1", "1/4", "2", "-3", "9/4")
_FILE_INPUTS = ("zero-n1:12", "zero-m1:8", "zero-m3:8:3", "zero-m4:8:3",
                "s2", "member:c={c}", "broken:c={c}", "verbatim-m3:8:3")
_FILE_COMMANDS = ("verify @{}", "annihilator @{}", "table @{} --json")
_FILE_JSON_VERIFY = ("member:c={c}", "broken:c={c}", "verbatim-m3:8:3")


def _tables_slots(c: str) -> tuple[tuple[Command, ...], ...]:
    slots = []
    for ident in _CHAIN_IDS:
        for form in _CHAIN_COMMANDS:
            spellings = _TWINS.get(ident, (ident,))
            slots.append(_cmds(*(form.format(s) for s in spellings)))
            slots.append(_cmds(form.format(ident) + " --verbatim-tables"))
    for name in _FILE_INPUTS:
        name = name.format(c=c)
        for form in _FILE_COMMANDS:
            slots.append(_cmds(form.format(name)))
    for name in _FILE_JSON_VERIFY:
        slots.append(_cmds(f"verify @{name.format(c=c)} --json"))
    return tuple(slots)


WORKLOADS = ("classify-large", "classify-sweep", "verify-tables")


def plan(workload: str, seed: int) -> list[Command]:
    """The command list of one pass of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "classify-large":
        slots = LARGE_SLOTS
    elif workload == "classify-sweep":
        slots = SWEEP_SLOTS
    elif workload == "verify-tables":
        slots = _tables_slots(rng.choice(MEMBER_PARAMETERS))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    commands = [rng.choice(slot) for slot in slots]
    rng.shuffle(commands)
    return commands


def every_command(workload: str) -> set[Command]:
    """Every command any seed can put into a pass of ``workload``."""
    if workload == "classify-large":
        slot_sets = [LARGE_SLOTS]
    elif workload == "classify-sweep":
        slot_sets = [SWEEP_SLOTS]
    elif workload == "verify-tables":
        slot_sets = [_tables_slots(c) for c in MEMBER_PARAMETERS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {cmd for slots in slot_sets for slot in slots for cmd in slot}


def key(command: Command) -> str:
    return " ".join(command)


def file_inputs(commands) -> list[str]:
    """Names of the JSON files the commands read, in first-use order."""
    names = []
    for cmd in commands:
        for tok in cmd:
            if tok.startswith("@") and tok[1:] not in names:
                names.append(tok[1:])
    return names


def expected_ok(name: str) -> bool:
    """Whether the JSON input ``name`` passes the superidentity."""
    return not name.startswith(("broken:", "verbatim-"))


def _member(c: Fraction, broken: bool):
    from sl2super import OddBracketTable, assemble, module_n1, sl2

    # [x0,x0] = 2c e, [x1,x1] = 2c f, [x0,x1] = c h solves the system for
    # every c; doubling the h-coefficient breaks the superidentity.
    products = {(0, 0): {0: 2 * c}, (1, 1): {1: 2 * c},
                (0, 1): {2: 2 * c if broken else c}}
    return assemble(sl2(), module_n1(1), OddBracketTable.build(products))


def build_input(name: str):
    """The superalgebra the JSON input ``name`` holds."""
    from sl2super import assemble, resolve, superalgebra_s2

    if name == "s2":
        return superalgebra_s2()
    if name.startswith(("member:c=", "broken:c=")):
        kind, c = name.split(":c=")
        return _member(Fraction(c), kind == "broken")
    if name.startswith("zero-"):
        spec = resolve(name[len("zero-"):])
    elif name.startswith("verbatim-"):
        spec = resolve(name[len("verbatim-"):], verbatim=True)
    else:
        raise ValueError(f"unknown input {name!r}")
    return assemble(spec.even, spec)


def write_inputs(names, directory: Path) -> dict[str, str]:
    """Write each named input as ``<directory>/<index>.json``; returns the
    name to path map."""
    paths = {}
    for index, name in enumerate(names):
        path = directory / f"input-{index}.json"
        path.write_text(build_input(name).to_json(), encoding="utf-8")
        paths[name] = str(path)
    return paths
