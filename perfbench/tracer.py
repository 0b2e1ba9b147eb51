"""Per-layer trace of one convexcount CLI command, taken from outside the library.

Run as ``python perfbench/tracer.py <convexcount arguments>`` with the package
on ``PYTHONPATH``.  The script wraps every public module-level function of each
layer in every module namespace that binds it (modules import names directly,
so ``production.mat_vec`` and ``cli.charpoly_determinant`` are patched as well
as ``exact.mat_vec``), runs ``convexcount.cli.main`` with the arguments, and
keeps one span (name, start, end, parent) per call in memory.  At exit it
writes the spans and a few counters as one JSON line on stderr, prefixed with
``SPANS_MARKER``; stdout is left exactly as the CLI printed it.

``summarize`` turns that line into per-layer metrics for one process, in the
harness process.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "production", "exact", "closedform", "spectral", "oracle", "verify")
SPANS_MARKER = "perfbench-spans "

# Scalar helpers called tens of thousands of times per command or more
# (closedform evaluates two binomials per term; the oracle tests chord pairs).
# A span costs more than the call itself, so their time stays in the caller's
# self time.
UNTRACED = frozenset({"exact.binomial", "exact.exact_div", "oracle.crossing"})


class Recorder:
    """Spans of the main thread, kept in memory until the process ends.

    A span is ``[name_id, start, end, parent_index]``; the parent is the span
    open on the main thread when the call began, or -1.  Calls made on other
    threads (the oracle's thread fan-out) run untraced, and their time falls
    in the main thread's waiting caller.
    """

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.main_thread = threading.get_ident()

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def open(self, name_id: int) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name_id, perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    def parent_layer(self) -> str:
        if not self.stack:
            return ""
        return self.names[self.spans[self.stack[-1]][0]].split(".", 1)[0]

    def count(self, name: str, result) -> None:
        """Counters read off return values, so the library needs no hooks."""
        layer, func = name.split(".", 1)
        if name == "production.count_sequence":
            self.counters["production.levels"] += len(result)
            bits = max((row.total.bit_length() for row in result), default=0)
            self.counters["production.max_bits"] = max(self.counters["production.max_bits"], bits)
        elif name == "spectral.real_roots":
            self.counters["spectral.roots"] += len(result)
        elif name == "verify.run_suite":
            self.counters["verify.checks"] += len(result)
        elif layer == "oracle" and self.parent_layer() != "oracle":
            # Histograms and counts of enumerated objects, outermost call only.
            if func.endswith("_histogram") or func == "spanning_counts":
                self.counters["oracle.objects"] += sum(result)
            elif func == "count_spanning_structures":
                self.counters["oracle.objects"] += result

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counters": dict(self.counters)}


def _wrap(rec: Recorder, name: str, fn):
    nid = rec.name_id(name)

    if inspect.isgeneratorfunction(fn):
        # One span per resumption, so the consumer's work between items is
        # not charged to the generator.
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                if threading.get_ident() != rec.main_thread:
                    yield from it
                    return
                index = rec.open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec.close(index)
                yield item

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if threading.get_ident() != rec.main_thread:
            return fn(*args, **kwargs)
        index = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        rec.count(name, result)
        return result

    return wrapper


def install(rec: Recorder) -> None:
    """Replace each layer's public functions wherever a module binds them."""
    modules = [importlib.import_module(f"convexcount.{layer}") for layer in LAYERS]
    wrappers = {}
    for layer, module in zip(LAYERS, modules):
        for attr, value in vars(module).items():
            name = f"{layer}.{attr}"
            if (
                inspect.isfunction(value)
                and value.__module__ == module.__name__
                and not attr.startswith("_")
                and name not in UNTRACED
            ):
                wrappers[value] = _wrap(rec, name, value)
    for module in modules + [importlib.import_module("convexcount")]:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, attr, wrappers[value])


def main(argv: list[str]) -> int:
    rec = Recorder()
    install(rec)
    from convexcount import cli

    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        sys.stdout.flush()
        sys.stderr.write(SPANS_MARKER + json.dumps(rec.dump()) + "\n")
    return code


# ---------------------------------------------------------------------------
# Harness side.

def parse_spans(stderr: str) -> dict | None:
    """The dump written by ``main``, or None if the child wrote none."""
    for line in reversed(stderr.splitlines()):
        if line.startswith(SPANS_MARKER):
            return json.loads(line[len(SPANS_MARKER):])
    return None


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(children[i], start, end)
        for i, (_, start, end, _) in enumerate(spans)
    ]


def summarize(dump: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced process whose wall time was ``wall_s``.

    The layer self times plus ``process.outside_main_s`` (interpreter start,
    imports and exit: the part of the wall outside ``cli.main``) add up to
    ``trace.wall_s``.
    """
    names, spans = dump["names"], dump["spans"]
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_by_name: dict[str, float] = defaultdict(float)
    for (nid, _, _, _), own in zip(spans, selfs):
        calls[names[nid]] += 1
        self_by_name[names[nid]] += own
    main_s = sum(end - start for _, start, end, parent in spans if parent < 0)

    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for name, own in self_by_name.items():
        out[name.split(".", 1)[0] + ".self_s"] += own

    def self_of(prefix: str) -> float:
        return sum(v for k, v in self_by_name.items() if k.startswith(prefix))

    out.update(
        {
            "exact.mat_vec.calls": calls["exact.mat_vec"],
            "exact.mat_vec.self_s": self_by_name["exact.mat_vec"],
            "exact.charpoly_determinant.self_s": self_by_name["exact.charpoly_determinant"],
            "production.count_sequence.calls": calls["production.count_sequence"],
            "production.count_sequence.self_s": self_by_name["production.count_sequence"],
            "spectral.real_roots.calls": calls["spectral.real_roots"],
            "spectral.real_roots.self_s": self_by_name["spectral.real_roots"],
            "spectral.eigenvector.self_s": self_by_name["spectral.eigenvector_from_charpoly"],
            "spectral.charpoly_closed.self_s": self_of("spectral.charpoly_closed_"),
            "spectral.charpoly_recurrence.self_s": self_by_name["spectral.charpoly_recurrence"],
            "closedform.entries": sum(
                n for k, n in calls.items() if k.startswith("closedform.") and k.endswith("_entry")
            ),
            "process.outside_main_s": wall_s - main_s,
            "trace.wall_s": wall_s,
        }
    )
    for key in ("production.levels", "production.max_bits", "spectral.roots", "oracle.objects", "verify.checks"):
        out[key] = dump["counters"].get(key, 0)
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
