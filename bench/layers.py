"""Per-layer metrics derived from the spans of one traced invocation.

A layer's self time is its span's duration minus the time its child spans
cover.  Per-chunk costs are means over the invocation's chunks, so the four
layer costs (generator, settings map, probabilities, forms + winner) add up
to the mean chunk time exactly; the chunk median and 90th percentile give
the chunk time's own spread.  A chunk's time excludes the one-off build of
the form tables that the first chunk in each process triggers; that build is
reported as chsh.forms.setup_ms.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# name -> (unit, better); the order is the order they are printed in.
LAYER_METRICS = {
    "sampling.uniform_block.ms_per_chunk": ("ms", "lower"),
    "sampling.uniform_block.mb_per_chunk": ("MB", "lower"),
    "sampling.settings.ms_per_chunk": ("ms", "lower"),
    "quantum.probs.ms_per_chunk": ("ms", "lower"),
    "chsh.forms.setup_ms": ("ms", "lower"),
    "chsh.forms.flops_per_chunk": ("flop", "lower"),
    "montecarlo.forms_winner.self_ms_per_chunk": ("ms", "lower"),
    "montecarlo.chunk.ms_p50": ("ms", "lower"),
    "montecarlo.chunk.ms_p90": ("ms", "lower"),
    "montecarlo.chunks": ("count", "lower"),
    "montecarlo.collect.busy_s": ("s", "lower"),
    "montecarlo.collect.wall_s": ("s", "lower"),
    "montecarlo.pool.wait_s": ("s", "lower"),
    "montecarlo.pool.bytes_returned": ("B", "lower"),
    "montecarlo.aggregate.ms": ("ms", "lower"),
    "montecarlo.violating_frac": ("ratio", "higher"),
    "montecarlo.worker_peak_rss_mb": ("MB", "lower"),
    "cli.output.ms": ("ms", "lower"),
    "cli.output.bytes": ("B", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
}

MB = float(1 << 20)


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def span_metrics(spans: list[dict], settings_per_party: int, min_eta: bool) -> dict:
    """Every per-layer metric the spans of one invocation determine."""
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)

    def child_time(span, name):
        return sum(_dur(c) for c in children[span["id"]] if c["name"] == name)

    (main,) = [s for s in spans if s["name"] == "cli.main"]
    chunks = [s for s in spans if s["name"] == "montecarlo.chunk"]
    layers = {"uniform": [], "settings": [], "probs": [], "self": [], "net": []}
    for chunk in chunks:
        net = _dur(chunk) - child_time(chunk, "chsh.forms")
        parts = [child_time(chunk, n) for n in
                 ("sampling.uniform_block", "sampling.settings", "quantum.probs")]
        for key, value in zip(("uniform", "settings", "probs"), parts):
            layers[key].append(value)
        layers["self"].append(net - sum(parts))
        layers["net"].append(net)
    mean_ms = {k: 1e3 * statistics.fmean(v) for k, v in layers.items()}

    uniform = [s for s in spans if s["name"] == "sampling.uniform_block"]
    forms = [s for s in spans if s["name"] == "chsh.forms"]
    builds = [s for s in forms if "forms" in s]
    batch = statistics.median(c["trials"] for c in chunks)
    rows, nforms = builds[0]["rows"], builds[0]["forms"]
    flops = 2 * batch * rows * nforms
    if min_eta:
        flops += 2 * 2 * batch * settings_per_party * nforms

    collects = [s for s in spans if s["name"] == "montecarlo.collect"]
    wall = sum(_dur(s) for s in collects)
    busy = sum(_dur(c) for c in chunks)
    workers = max(s["workers"] for s in collects)
    runs = [s for s in spans if s["name"] == "montecarlo.run_experiment"]
    aggregate = sum(_dur(r) - child_time(r, "montecarlo.collect") for r in runs)

    return {
        "sampling.uniform_block.ms_per_chunk": mean_ms["uniform"],
        "sampling.uniform_block.mb_per_chunk": statistics.fmean(s["bytes"] for s in uniform) / MB,
        "sampling.settings.ms_per_chunk": mean_ms["settings"],
        "quantum.probs.ms_per_chunk": mean_ms["probs"],
        "chsh.forms.setup_ms": 1e3 * sum(_dur(s) for s in forms) / len(builds),
        "chsh.forms.flops_per_chunk": float(flops),
        "montecarlo.forms_winner.self_ms_per_chunk": mean_ms["self"],
        "montecarlo.chunk.ms_p50": 1e3 * statistics.median(layers["net"]),
        "montecarlo.chunk.ms_p90": 1e3 * _p90(layers["net"]),
        "montecarlo.chunks": float(len(chunks)),
        "montecarlo.collect.busy_s": busy,
        "montecarlo.collect.wall_s": wall,
        "montecarlo.pool.wait_s": wall - busy / workers,
        "montecarlo.pool.bytes_returned": float(sum(c["bytes"] for c in chunks
                                                    if c["pid"] != main["pid"])),
        "montecarlo.aggregate.ms": 1e3 * aggregate,
        "cli.output.ms": 1e3 * (_dur(main) - sum(_dur(c) for c in children[main["id"]])),
        "chunk_mean_ms": mean_ms["net"],
    }
