"""One pass over a command list, in the process that runs it.

Run as ``python3 worker.py <plan.json> <result.json>``: the benchmark starts
one fresh worker per pass, so no cache survives from one pass to the next,
while the commands of one pass share the process the way the ids of one
``--grid`` invocation do.  Each command goes through ``sl2super.cli.main``
with stdout and stderr captured; the answer checks run after the clock
stops.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from time import perf_counter

import gate
from workloads import key


def run_pass(commands, paths: dict[str, str], tracer=None) -> dict:
    """Run ``commands`` once through ``sl2super.cli.main``.

    ``paths`` maps each ``@name`` token to its file.  Returns the per-command
    results, ``pass_s`` (the sum of the commands' wall times, which leaves
    the benchmark's own answer checks out of the pass) and, when ``tracer``
    is given, its spans.
    """
    from sl2super import cli

    if tracer is not None:
        tracer.install()
    items = []
    stdout_bytes = 0
    try:
        for command in commands:
            argv = [paths[t[1:]] if t.startswith("@") else t for t in command]
            out, err = io.StringIO(), io.StringIO()
            start = perf_counter()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a wrong answer, not a stop
                code = f"{type(exc).__name__}: {exc}"
            seconds = perf_counter() - start
            text = out.getvalue()
            stdout_bytes += len(text.encode("utf-8"))
            for t in command:
                if t.startswith("@"):
                    text = text.replace(paths[t[1:]], t)
            try:
                problems = gate.theory_problems(command, code, text)
                answer = gate.digest(command, code, text)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problems, answer = [f"unreadable output: {exc!r}"], None
            items.append({"key": key(command), "code": code,
                          "seconds": seconds, "digest": answer,
                          "problems": problems})
    finally:
        if tracer is not None:
            tracer.remove()
    result = {"items": items,
              "pass_s": sum(item["seconds"] for item in items),
              "stdout_bytes": stdout_bytes}
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    return result


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    tracer = None
    if plan["trace"]:
        from spans import Tracer
        tracer = Tracer()
    result = run_pass([tuple(c) for c in plan["commands"]], plan["paths"],
                      tracer)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
