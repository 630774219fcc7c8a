"""Command line front end.

Subcommands: ``table`` (print a multiplication table), ``verify`` (run the
identity checks), ``annihilator`` (products forced to zero), ``classify``
(solve for the unknown odd products), ``errata`` (catalog of table repairs).

Algebra ids are catalog strings (``sl2``, ``s1``, ``s2``, ``n1:<n>``,
``n2:<n>``, ``m1:<n>``, ``m2:<n>``, ``m3:<n>:<k>``, ``m4:<n>:<k>``) or paths
to JSON files in the shared schema.  Exit codes: 0 all checks pass, 1 a
mathematical violation was found, 2 usage or input error, 141 (128 plus
SIGPIPE, as a shell reports for a writer that signal ends) the reader closed
the output early, with nothing printed on stderr.  Set
``SUPERALG_COLOR=0`` to disable ANSI color (color is only used on a tty).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import (BimoduleSpec, Element, SuperAlgebra,
                      check_bimodule_axioms, check_leibniz,
                      check_leibniz_super, right_annihilator)
from .catalog import (_PARAMETER, CATALOG_IDS, ERRATA, MAX_MODULE_DIM,
                      assemble, module_dim, resolve)
from .classify import InvalidStructure, annihilator_prefilter, classify

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

FAMILIES = ("n1", "n2", "m1", "m2", "m3", "m4")


class _Palette:
    def __init__(self, stream):
        enabled = (hasattr(stream, "isatty") and stream.isatty()
                   and os.environ.get("SUPERALG_COLOR") != "0")
        self.enabled = enabled

    def paint(self, text: str, code: str) -> str:
        if not self.enabled:
            return text
        return f"\x1b[{code}m{text}\x1b[0m"

    def good(self, text: str) -> str:
        return self.paint(text, "32")

    def bad(self, text: str) -> str:
        return self.paint(text, "31")


def _load(identifier: str, verbatim: bool):
    """Resolve a catalog id or a JSON file path."""
    looks_like_path = (os.sep in identifier or identifier.endswith(".json")
                       or os.path.isfile(identifier))
    if looks_like_path:
        try:
            with open(identifier, "r", encoding="utf-8") as fh:
                return SuperAlgebra.from_json(fh.read())
        except OSError as exc:
            raise _UsageError(f"cannot read {identifier}: {exc}") from exc
        except ValueError as exc:
            raise _UsageError(
                f"{identifier} is not a valid algebra file: {exc}") from exc
    try:
        return resolve(identifier, verbatim=verbatim)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


class _UsageError(Exception):
    pass


def _emit_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _table_lines(alg: SuperAlgebra) -> list[str]:
    lines = []
    for (i, j), vec in sorted(alg.table_items()):
        if not vec:
            continue
        expr = alg.format_element(Element(dict(vec)))
        lines.append(f"[{alg.label(i)},{alg.label(j)}] = {expr}")
    return lines


def _as_algebra(obj) -> SuperAlgebra:
    if isinstance(obj, BimoduleSpec):
        return assemble(obj.even, obj)
    return obj


def cmd_table(args) -> int:
    alg = _as_algebra(_load(args.id, args.verbatim_tables))
    if args.json:
        sys.stdout.write(alg.to_json())
    else:
        for line in _table_lines(alg):
            print(line)
    return EXIT_OK


def cmd_verify(args) -> int:
    pal = _Palette(sys.stdout)
    obj = _load(args.id, args.verbatim_tables)
    if isinstance(obj, BimoduleSpec):
        report = check_bimodule_axioms(obj)
    elif obj.is_purely_even():
        report = check_leibniz(obj)
    else:
        report = check_leibniz_super(obj)
    if args.json:
        _emit_json({
            "id": args.id,
            "ok": report.ok,
            "total": len(report),
            "violations": [
                {"identity": v.identity, "labels": list(v.labels),
                 "residual": {k: str(c) for k, c in v.residual.items()}}
                for v in list(report)[:10]
            ],
        })
        return EXIT_OK if report.ok else EXIT_VIOLATION
    if report.ok:
        print(pal.good("OK"))
        return EXIT_OK
    total = len(report)
    print(pal.bad(f"{total} violation(s); showing first {min(total, 10)}:"))
    for v in list(report)[:10]:
        print("  " + v.describe())
    return EXIT_VIOLATION


def cmd_annihilator(args) -> int:
    obj = _load(args.id, args.verbatim_tables)
    if isinstance(obj, BimoduleSpec):
        flags = annihilator_prefilter(obj.even, obj)
        labels = [obj.odd_labels[m] for m in sorted(flags)]
        if args.json:
            _emit_json({"id": args.id, "flagged": labels})
        elif labels:
            for lab in labels:
                print(lab)
        else:
            print("none")
        return EXIT_OK
    elements = right_annihilator(obj)
    rendered = [obj.format_element(el) for el in elements]
    if args.json:
        _emit_json({"id": args.id, "basis": rendered,
                    "dimension": len(rendered)})
    elif rendered:
        for r in rendered:
            print(r)
    else:
        print("none")
    return EXIT_OK


def _parse_grid(family: str, grid: str) -> list[str]:
    two_param = family in ("m3", "m4")
    ids = []
    for part in grid.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo, hi = part.split("..", 1)
            if two_param:
                raise _UsageError(
                    f"{family} needs explicit n:k pairs in --grid")
            if not (_PARAMETER.fullmatch(lo) and _PARAMETER.fullmatch(hi)):
                raise _UsageError(f"bad grid range {part!r}")
            lo_i, hi_i = int(lo), int(hi)
            if lo_i > hi_i:
                raise _UsageError(f"grid range {part!r} is reversed; "
                                  f"write it as {hi}..{lo}")
            # bound the range before expanding it: the module dimension
            # grows with n, and a negative n names no module
            if (lo_i < -MAX_MODULE_DIM
                    or module_dim(family, hi_i) > MAX_MODULE_DIM):
                raise _UsageError(
                    f"grid range {part!r} goes past the module dimension "
                    f"limit of {MAX_MODULE_DIM}")
            ids.extend(f"{family}:{n}" for n in range(lo_i, hi_i + 1))
        elif ":" in part:
            if not two_param:
                raise _UsageError(f"{family} takes a single parameter")
            ids.append(f"{family}:{part}")
        else:
            if two_param:
                raise _UsageError(
                    f"{family} needs explicit n:k pairs in --grid")
            ids.append(f"{family}:{part}")
    if not ids:
        raise _UsageError("empty --grid specification")
    # one line and one JSON key per id, in the order first named
    return list(dict.fromkeys(ids))


def _classify_one(identifier: str, args):
    obj = _load(identifier, args.verbatim_tables)
    if not isinstance(obj, BimoduleSpec):
        raise _UsageError(
            f"{identifier} is not a bimodule id; classify needs one of "
            "n1/n2/m1/m2/m3/m4")
    return classify(obj.even, obj, strict=args.strict_symmetry)


def cmd_classify(args) -> int:
    if args.grid is not None:
        family = args.id
        if family not in FAMILIES:
            raise _UsageError(
                f"--grid needs a bare family name, not {family!r}")
        ids = _parse_grid(family, args.grid)
        results = []
        for identifier in ids:
            cl = _classify_one(identifier, args)
            results.append((identifier, cl))
        if args.json:
            _emit_json({identifier: cl.to_json_dict()
                        for identifier, cl in results})
        else:
            for identifier, cl in results:
                print(f"{identifier}: {cl.summary_line()}")
        return EXIT_OK

    cl = _classify_one(args.id, args)
    if args.json:
        _emit_json(cl.to_json_dict())
        return EXIT_OK
    print(cl.summary_line())
    if cl.dimension > 0:
        for name, rep in zip(cl.names, cl.representatives):
            print(f"representative {name}:")
            for line in _table_lines(rep):
                print("  " + line)
        print(cl.verdict_line())
    return EXIT_OK


def cmd_errata(args) -> int:
    if args.family is not None and args.family not in FAMILIES:
        raise _UsageError(f"unknown family {args.family!r}; errata takes "
                          f"one of {'/'.join(FAMILIES)}")
    entries = [e for e in ERRATA
               if args.family is None or e.family == args.family]
    if args.json:
        _emit_json([
            {"family": e.family, "printed": e.printed,
             "repaired": e.repaired, "justification": e.justification}
            for e in entries
        ])
        return EXIT_OK
    for e in entries:
        print(f"[{e.family}]")
        print(f"  printed:  {e.printed}")
        print(f"  repaired: {e.repaired}")
        print(f"  reason:   {e.justification}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl2super",
        description="Exact tables, identity checks, and odd-product "
                    "classification for Leibniz superalgebras over the "
                    "3-dimensional simple even part.",
        epilog="catalog ids: " + ", ".join(CATALOG_IDS))
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_id=True):
        if with_id:
            p.add_argument("id", help="catalog id or JSON file path")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        p.add_argument("--verbatim-tables", action="store_true",
                       help="build m3/m4 exactly as printed, without repairs")

    p = sub.add_parser("table", help="print the multiplication table")
    common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run the applicable identity checks")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("annihilator",
                       help="odd products forced to zero / right annihilator")
    common(p)
    p.set_defaults(func=cmd_annihilator)

    p = sub.add_parser("classify",
                       help="solve for all admissible odd product tables")
    common(p)
    p.add_argument("--strict-symmetry", action="store_true",
                   help="treat both orders of each odd pair as independent "
                        "unknowns and verify symmetry emerges")
    p.add_argument("--grid", metavar="RANGES",
                   help="batch mode: id is a family name and RANGES is "
                        "e.g. 2..8 or 4:2,6:2,6:3")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("errata", help="list the catalog table repairs")
    p.add_argument("family", nargs="?",
                   help="restrict to one family (e.g. m3)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.set_defaults(func=cmd_errata)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed reader fails here, not at exit
        return status
    except BrokenPipeError:
        # the reader stopped early (``| head``): stdout goes to devnull so
        # that the interpreter's final flush does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidStructure as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    raise SystemExit(main())
