"""Time the calls into each layer of ``debias`` from outside the package.

:meth:`Tracer.install` replaces the module-level entry points through which
each layer is reached with timing wrappers; :meth:`Tracer.uninstall` puts the
originals back.  Two kinds of boundary are recorded:

* phase boundaries (``cli.main``, ``coin.take_bits``, ``oracle.verify_*``,
  the analysis tables and cells, inversion, snapshots) become spans with an
  id, a parent span id, start, end and self time, kept in memory;
* per-item boundaries (session ``process``/``clone``/``__init__`` and each
  item a ``cli`` reader yields) become aggregated counts and summed durations,
  keyed by the name of the wrapped call that made them.

Self time is a call's duration minus the time of the wrapped calls made
inside it, so the self times of all records add up to the root span.
A wrapped name that no longer exists raises at install time: a renamed
layer must fail the traced run, not report zero.
"""

from __future__ import annotations

import time

ROOT = "<root>"

# (module, attribute) pairs, by kind of boundary.  Classes are addressed
# through their module so that the check for a vanished name covers them.
PHASES = [
    ("cli", "main"),
    ("cli", "_build_extract_session"),
    ("cli", "_prescan_m"),
    ("cli", "_write_bits"),
    ("cli", "take_bits"),
    ("coin", "take_bits"),
    ("coin", "CoinExtractor.snapshot"),
    ("oracle", "verify_coin"),
    ("oracle", "verify_dice"),
    ("oracle", "verify_markov"),
    ("analysis", "tosses_table"),
    ("analysis", "time_table"),
    ("analysis", "tosses_per_bit"),
    ("analysis", "processing_time"),
    ("inversion", "reconstruct"),
    ("inversion", "flip_and_rebuild"),
]
CALLS = [
    ("coin", "CoinExtractor.process"),
    ("coin", "CoinExtractor.clone"),
    ("coin", "CoinExtractor.__init__"),
    ("dice", "DiceExtractor.process"),
    ("dice", "DiceExtractor.clone"),
    ("dice", "DiceExtractor.__init__"),
    ("markov", "MarkovExtractor.process"),
    ("markov", "MarkovExtractor.clone"),
    ("markov", "MarkovExtractor.__init__"),
]
READERS = [
    ("cli", "_coin_symbols"),
    ("cli", "_packed_symbols"),
    ("cli", "_int_tokens"),
    ("cli", "_checked_faces"),
    ("cli", "_mapped_states"),
]


def _resolve(modules: dict, module: str, dotted: str):
    """Return ``(owner, attribute, value, qualified name)`` or raise."""
    owner = modules[module]
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            break
    value = getattr(owner, attr, None) if owner is not None else None
    if value is None:
        raise RuntimeError(
            f"traced entry point debias.{module}.{dotted} no longer exists; "
            "update bench/tracer.py to the new layer boundary"
        )
    # A function re-exported by another module keeps its home module's name.
    home = getattr(value, "__module__", "") or ""
    layer = home.rsplit(".", 1)[-1] if home.startswith("debias.") else module
    return owner, attr, value, f"{layer}.{dotted}"


class Tracer:
    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        # A frame is [name, time spent in wrapped children, enclosing span id].
        self.stack: list[list] = [[ROOT, 0.0, None]]
        # name -> caller's name -> [count, total_s, self_s]
        self.calls: dict[str, dict[str, list]] = {}
        self.spans: list[dict | None] = []
        self.counters = {"coin.deliveries": 0, "coin.bits": 0}
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, span: bool, count_coin_work: bool = False):
        """Time ``fn``; with ``count_coin_work`` (for ``CoinExtractor.process``)
        also add the deliveries and bits it adds to the session's totals."""
        stack, spans, perf, t_origin = self.stack, self.spans, time.perf_counter, self.t0
        by_caller = self.calls.setdefault(name, {})
        counters = self.counters

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if span:
                sid = len(spans)
                spans.append(None)
            else:
                sid = parent[2]
            frame = [name, 0.0, sid]
            stack.append(frame)
            if count_coin_work:
                session = args[0]
                m0, b0 = session.messages_total, len(session.output)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dt = t1 - t0
                parent[1] += dt
                rec = by_caller.get(parent[0])
                if rec is None:
                    rec = by_caller[parent[0]] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                if count_coin_work:
                    counters["coin.deliveries"] += session.messages_total - m0
                    counters["coin.bits"] += len(session.output) - b0
                if span:
                    spans[sid] = {
                        "id": sid, "parent": parent[2], "name": name,
                        "start": t0 - t_origin, "end": t1 - t_origin, "self": dt - frame[1],
                    }

        return wrapper

    def wrap_reader(self, fn, name: str):
        """Time every ``next()`` on the generators ``fn`` returns; the count
        is the number of items yielded."""
        stack, perf = self.stack, time.perf_counter
        by_caller = self.calls.setdefault(name, {})

        def factory(*args, **kwargs):
            it = fn(*args, **kwargs)

            def timed():
                while True:
                    parent = stack[-1]
                    frame = [name, 0.0, parent[2]]
                    stack.append(frame)
                    t0 = perf()
                    item = frame  # sentinel: no item
                    try:
                        item = next(it)
                    except StopIteration:
                        pass
                    finally:
                        dt = perf() - t0
                        stack.pop()
                        parent[1] += dt
                        rec = by_caller.get(parent[0])
                        if rec is None:
                            rec = by_caller[parent[0]] = [0, 0.0, 0.0]
                        rec[0] += item is not frame
                        rec[1] += dt
                        rec[2] += dt - frame[1]
                    if item is frame:
                        return
                    yield item

            return timed()

        return factory

    def install(self) -> None:
        from debias import analysis, cli, coin, dice, inversion, markov, oracle

        modules = {
            "analysis": analysis, "cli": cli, "coin": coin, "dice": dice,
            "inversion": inversion, "markov": markov, "oracle": oracle,
        }
        plan = []
        for kind, entries in (("phase", PHASES), ("call", CALLS), ("reader", READERS)):
            for module, dotted in entries:
                plan.append((kind, *_resolve(modules, module, dotted)))
        for kind, owner, attr, value, name in plan:
            if kind == "reader":
                new = self.wrap_reader(value, name)
            else:
                new = self.wrap(value, name, span=kind == "phase",
                                count_coin_work=name == "coin.CoinExtractor.process")
            self._undo.append((owner, attr, value))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def root_span(self, fn, *args):
        """Run ``fn(*args)`` as the root span ``bench.op``; return its result."""
        return self.wrap(fn, "bench.op", span=True)(*args)

    def dump(self) -> dict:
        return {
            "calls": [[n, p, *rec] for n, by in sorted(self.calls.items())
                      for p, rec in sorted(by.items())],
            "spans": [s for s in self.spans if s is not None],
            "counters": dict(self.counters),
        }
