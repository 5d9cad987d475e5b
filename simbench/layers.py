"""Per-layer accounting: exact counters from the program's public objects,
and a profiling hook that attributes host time and calls to layers.

Counters: :class:`Capture` records every Simulator, NVMeDriver, NVMeSSD,
MetricsRegistry and CheckContext a repetition builds (fleet worlds are
built inside ``run_fleet``, out of the caller's reach), and
:func:`counters` sums their public statistics.

Tracing: :class:`LayerProfile` runs the interpreter's C profiler over the
timed phase.  It sees every call, including each generator resumption
(which is how the event loop dispatches into the layers), keeps its
records in memory, and gives each function's self time (its span minus
its child spans).  A function's layer is its module path.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Any

from repro.checks import CheckContext
from repro.host.driver import NVMeDriver
from repro.nvme.ssd import NVMeSSD
from repro.obs import MetricsRegistry
from repro.sim import BandwidthLink, Simulator

__all__ = ["LAYERS", "STAGES", "Capture", "counters", "stage_p50s", "LayerProfile"]

#: layers in report order; ``other`` holds the rest of ``repro`` (analysis,
#: runner, experiments, ...) and the benchmark's own frames
LAYERS = ("sim.kernel", "sim.resources", "pcie", "core", "host", "nvme",
          "obs", "checks", "apps", "workloads", "fleet", "faults", "mgmt",
          "baselines", "stdlib", "other")

_PACKAGE_LAYERS = frozenset(LAYERS) - {"sim.kernel", "sim.resources",
                                       "stdlib", "other"}

_CAPTURED = (Simulator, NVMeDriver, NVMeSSD, MetricsRegistry, CheckContext)


class Capture:
    """Context manager that records instances of the counted classes."""

    def __init__(self) -> None:
        self.made: dict[type, list] = {cls: [] for cls in _CAPTURED}
        self._saved: list[tuple[type, Any]] = []

    def __enter__(self) -> "Capture":
        for cls in _CAPTURED:
            original = cls.__init__
            bucket = self.made[cls]

            def init(obj, *args, _original=original, _bucket=bucket,
                     **kwargs):
                _original(obj, *args, **kwargs)
                _bucket.append(obj)

            self._saved.append((cls, original))
            cls.__init__ = init
        return self

    def __exit__(self, *exc) -> None:
        for cls, original in reversed(self._saved):
            cls.__init__ = original
        self._saved.clear()


def counters(cap: Capture) -> dict[str, int]:
    """Totals of the counted statistics over every captured object."""
    made = cap.made
    drivers, ssds = made[NVMeDriver], made[NVMeSSD]
    registries = made[MetricsRegistry]
    return {
        "events": sum(s.events_processed for s in made[Simulator]),
        "driver_submitted": sum(d.stats.submitted for d in drivers),
        "driver_retries": sum(d.stats.retries for d in drivers),
        "driver_timeouts": sum(d.stats.timeouts for d in drivers),
        "ssd_write_bytes": sum(s.stats.write_bytes for s in ssds),
        "spans": sum(len(r.spans) + r.spans.dropped for r in registries),
        "invariant_checks": sum(sum(c.counts.values())
                                for c in made[CheckContext]),
        # bytes hosts wrote to BM-Store namespaces (the engine's counter)
        "ns_write_bytes": sum(c.value for r in registries
                              for labels, c in r.counters("ns_bytes").items()
                              if ("op", "write") in labels),
    }


STAGES = ("fetch", "qos", "ssd_dma")


def stage_p50s(cap: Capture) -> dict[str, float]:
    """p50 of each engine stage in STAGES, in ns; 0 unless the world has
    a single registry that records spans."""
    registries = cap.made[MetricsRegistry]
    hists = (registries[0].snapshot()["histograms"]
             if len(registries) == 1 else {})
    out = {}
    for stage in STAGES:
        hist = hists.get(f"span_stage_ns{{stage={stage}}}")
        out[stage] = float(hist["p50"]) if hist else 0.0
    return out


def _layer_of(filename: str, src: str, bench: str) -> str:
    if not filename.startswith(src):
        return "other" if filename.startswith(bench) else "stdlib"
    parts = filename[len(src):].split(os.sep)
    if parts[0] == "sim":
        return "sim.kernel" if parts[-1] == "kernel.py" else "sim.resources"
    return parts[0] if parts[0] in _PACKAGE_LAYERS else "other"


class LayerProfile:
    """The C profiler over one timed phase, summed by layer."""

    def __init__(self, src_root: str, bench_root: str):
        self._src = os.path.join(src_root, "repro") + os.sep
        self._bench = bench_root + os.sep
        self._prof = cProfile.Profile()

    def __enter__(self) -> "LayerProfile":
        self._prof.enable()
        return self

    def __exit__(self, *exc) -> None:
        self._prof.disable()

    def dump(self, path: str) -> None:
        """Write the raw per-function records (pstats format)."""
        self._prof.dump_stats(path)

    def layers(self) -> tuple[dict[str, dict[str, float]], int]:
        """Per-layer ``{"calls", "self_s"}`` and the link transfer count.

        A generator resumption counts as a call, so call counts are the
        number of times control entered a layer's functions.
        """
        out = {name: {"calls": 0, "self_s": 0.0} for name in LAYERS}
        transfer = BandwidthLink.transfer.__code__
        link_transfers = 0
        stats = pstats.Stats(self._prof).stats
        for (filename, line, func), (_, calls, self_s, _, _) in stats.items():
            row = out[_layer_of(filename, self._src, self._bench)]
            row["calls"] += calls
            row["self_s"] += self_s
            if (func == transfer.co_name and line == transfer.co_firstlineno
                    and filename == transfer.co_filename):
                link_transfers += calls
        return out, link_transfers
