"""Spans recorded around the benchmark's calls into randbell's layers.

`install` replaces module attributes of randbell with wrappers that record
one span per call: name, start, end, parent span and process id, plus a few
counts taken from the call's arguments or result.  Spans stay in memory and
are written out at the end.  Pool workers forked by the program inherit the
wrappers; a span that closes in a worker while its parent belongs to another
process is the root of that worker's subtree, and the worker appends the
subtree to a per-process file, because its memory is lost when it exits.

The hook points name private functions (`_collect_chunks`, `_evaluate_chunk`,
`_SETTINGS_FROM_UNIFORMS`); a change that renames them must move the hooks.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path


class Tracer:
    def __init__(self, worker_dir: Path):
        self.worker_dir = Path(worker_dir)
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._count = 0

    def wrap(self, name: str, fn, attrs=None):
        """`fn` with a span around each call; `attrs(args, result)` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pid = os.getpid()
            self._count += 1
            parent = self._stack[-1] if self._stack else None
            span = {"id": f"{pid}:{self._count}", "name": name, "pid": pid,
                    "parent": parent["id"] if parent else None,
                    "start": time.perf_counter()}
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                self.spans.append(span)
            if attrs is not None:
                span.update(attrs(args, result))
            if parent is not None and parent["pid"] != pid:
                self._flush_worker(pid)
            return result

        return traced

    def _flush_worker(self, pid: int) -> None:
        mine = [s for s in self.spans if s["pid"] == pid]
        self.spans = [s for s in self.spans if s["pid"] != pid]
        with open(self.worker_dir / f"worker-{pid}.jsonl", "a", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in mine)

    def all_spans(self) -> list[dict]:
        """Spans of this process and of every worker that flushed."""
        spans = list(self.spans)
        for path in sorted(self.worker_dir.glob("worker-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh)
        return spans


def _chunk_attrs(args, result):
    _config, lo, hi = args[:3]
    return {"trials": hi - lo, "bytes": sum(int(a.nbytes) for a in result)}


def _forms_attrs(args, result):
    rows, forms = result[1].shape
    return {"rows": rows, "forms": forms}


def install(tracer: Tracer):
    """Wrap randbell's layer entry points; returns the traced `cli.main`."""
    from randbell import chsh, cli, montecarlo, quantum, sampling

    run = tracer.wrap("montecarlo.run_experiment", montecarlo.run_experiment)
    sweep = tracer.wrap("montecarlo.sweep", montecarlo.sweep)
    cli.run_experiment = montecarlo.run_experiment = run
    cli.sweep = montecarlo.sweep = sweep
    montecarlo._collect_chunks = tracer.wrap(
        "montecarlo.collect", montecarlo._collect_chunks,
        lambda args, _r: {"workers": args[0].workers})
    montecarlo._evaluate_chunk = tracer.wrap(
        "montecarlo.chunk", montecarlo._evaluate_chunk, _chunk_attrs)
    sampling.uniform_block = tracer.wrap(
        "sampling.uniform_block", sampling.uniform_block,
        lambda _a, result: {"bytes": int(result.nbytes)})
    settings = montecarlo._SETTINGS_FROM_UNIFORMS
    for scenario, fn in settings.items():
        settings[scenario] = tracer.wrap("sampling.settings", fn)
    quantum.joint_outcome00 = tracer.wrap("quantum.probs", quantum.joint_outcome00)
    quantum.marginal_outcome0 = tracer.wrap("quantum.probs", quantum.marginal_outcome0)
    chsh.enumerate_forms = tracer.wrap("chsh.forms", chsh.enumerate_forms)
    chsh.form_coefficients = tracer.wrap("chsh.forms", chsh.form_coefficients, _forms_attrs)
    return tracer.wrap("cli.main", cli.main)
