"""The benchmark's workloads: CLI invocations of randbell.

Each workload is one `randbell` command line.  The benchmark passes the
workload seed as `--seed` and a fresh `--out-dir`; the program sees nothing
else.  Trial counts are multiples of the 65,536-trial chunk so that every
chunk is full and per-chunk costs compare across workloads.  README.md says
why each workload exists.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

CHUNK = 1 << 16


def nproc() -> int:
    """CPUs this process may run on (what `nproc` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                 # "run" or "sweep"
    scenario: str
    ratios: tuple[float, ...]
    visibility: float
    selection: str
    fmt: str
    trials: int                  # per config
    parallel: bool               # --workers nproc, else 1

    @property
    def settings_per_party(self) -> int:
        return 3 if self.scenario == "rotm" else 2

    def workers(self) -> int:
        return nproc() if self.parallel else 1

    def argv(self, seed: int, trials: int, out_dir: str) -> list[str]:
        ratios = ",".join(str(r) for r in self.ratios)
        ratio_flag = ["--alpha-ratios", ratios] if self.command == "sweep" else ["--alpha-ratio", ratios]
        return [self.command, "--scenario", self.scenario, *ratio_flag,
                "--visibility", str(self.visibility), "--selection", self.selection,
                "--workers", str(self.workers()), "--format", self.fmt,
                "--trials", str(trials), "--seed", str(seed), "--out-dir", out_dir]

    def expected_configs(self, trials: int) -> list[dict]:
        """Config fields each result's summary.json must echo."""
        return [{"scenario": self.scenario, "alpha_ratio": r, "visibility": self.visibility,
                 "selection_policy": self.selection, "trials": trials,
                 "workers": self.workers()}
                for r in self.ratios]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("rim-mes", "run", "rim", (1.0,), 1.0, "max-i", "csv", 16 * CHUNK, False),
        Workload("rotm-noisy", "run", "rotm", (0.5,), 0.95, "max-i", "csv", 16 * CHUNK, False),
        Workload("rom-sweep-par", "sweep", "rom", (0.5, 0.75, 1.0), 1.0, "min-eta", "both",
                 8 * CHUNK, True),
    )
}
