"""Span tracing of gwdetect from outside the package.

Each traced public function is replaced by a wrapper in every loaded
``gwdetect`` module that binds it, because ``cli`` and ``pipeline`` import with
``from .x import y``: patching only the defining module would silently miss
those calls.  Spans nest, so a span's self time is its duration minus the
durations of the spans it encloses.  Statistics are kept in memory and read
out per pass.
"""

import functools
import os
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

# (span name, defining module, attribute); a dotted attribute names a
# classmethod on a class of that module.
TARGETS = (
    ("dataio.read_signal", "gwdetect.dataio", "read_signal"),
    ("dataio.write_signal", "gwdetect.dataio", "write_signal"),
    ("spectral.welch_psd", "gwdetect.spectral", "welch_psd"),
    ("statdist.f_quantile", "gwdetect.statdist", "f_quantile"),
    ("statdist.normal_quantile", "gwdetect.statdist", "normal_quantile"),
    ("detectors.f_statistic", "gwdetect.detectors", "f_statistic"),
    ("detectors.fm_statistic", "gwdetect.detectors", "fm_statistic"),
    ("detectors.z_statistic", "gwdetect.detectors", "z_statistic"),
    ("detectors.janapati_di", "gwdetect.detectors", "janapati_di"),
    ("detectors.qiu_di", "gwdetect.detectors", "qiu_di"),
    ("detectors.experimental_band", "gwdetect.detectors", "experimental_band"),
    ("detectors.theoretical_band", "gwdetect.detectors", "theoretical_band"),
    ("pipeline.DatasetManifest.load", "gwdetect.pipeline", "DatasetManifest.load"),
    ("pipeline.extract_packet", "gwdetect.pipeline", "extract_packet"),
    ("pipeline.compute_path_scores", "gwdetect.pipeline", "compute_path_scores"),
    ("pipeline.run_baseline", "gwdetect.pipeline", "run_baseline"),
    ("pipeline.case_damaged", "gwdetect.pipeline", "case_damaged"),
    ("pipeline.roc_sweep", "gwdetect.pipeline", "roc_sweep"),
    ("pipeline.run_inspection", "gwdetect.pipeline", "run_inspection"),
    ("simulate.synth_dataset", "gwdetect.simulate", "synth_dataset"),
    ("simulate.propagate", "gwdetect.simulate", "propagate"),
    ("cli.cmd_simulate", "gwdetect.cli", "cmd_simulate"),
    ("cli.cmd_detect", "gwdetect.cli", "cmd_detect"),
    ("cli.cmd_roc", "gwdetect.cli", "cmd_roc"),
    ("cli.cmd_psd", "gwdetect.cli", "cmd_psd"),
)


def _count_bytes(tracer, args, kwargs, result):
    tracer.counters["dataio.read_signal.bytes"] += os.path.getsize(args[0])


def _count_records(tracer, args, kwargs, result):
    tracer.counters["manifest_records"] += len(result.entries)


def _count_cases(tracer, args, kwargs, result):
    tracer.counters["pipeline.cases_scored"] += sum(len(c) for c in result.cases.values())


# Counters taken from a span's result or arguments.
AFTER = {
    "dataio.read_signal": _count_bytes,
    "pipeline.DatasetManifest.load": _count_records,
    "pipeline.compute_path_scores": _count_cases,
}


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Aggregated span statistics plus free-form counters."""

    def __init__(self):
        self._children = []  # enclosed-span time of each open span
        self.reset()

    def reset(self):
        self.stats = {name: SpanStats() for name, _, _ in TARGETS}
        self.counters = Counter()

    def wrap(self, name, fn):
        after = AFTER.get(name)
        children = self._children

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = children.pop()
                st = self.stats[name]
                st.calls += 1
                st.total_s += dt
                st.self_s += dt - inner
                if children:
                    children[-1] += dt
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return span


def install(tracer):
    """Patch every target in every gwdetect module; returns an undo function.

    A target the package no longer defines is reported on stderr and left
    out, so its counters read 0.
    """
    undo = []
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "gwdetect" or name.startswith("gwdetect."))]
    for name, modname, attr in TARGETS:
        home = sys.modules.get(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name, None)
            raw = None if cls is None else cls.__dict__.get(meth)
            if not isinstance(raw, classmethod):
                print(f"perfbench: cannot trace {name}: not found", file=sys.stderr)
                continue
            setattr(cls, meth, classmethod(tracer.wrap(name, raw.__func__)))
            undo.append((cls, meth, raw))
            continue
        fn = getattr(home, attr, None)
        if fn is None:
            print(f"perfbench: cannot trace {name}: not found", file=sys.stderr)
            continue
        wrapped = tracer.wrap(name, fn)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, fn))

    def uninstall():
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)

    return uninstall


def pass_values(tracer):
    """Every per-layer value of one pass, keyed by metric name."""
    stats, counters = tracer.stats, tracer.counters
    out = {}
    for name, st in stats.items():
        out[f"{name}.calls"] = st.calls
        out[f"{name}.s"] = st.total_s
        out[f"{name}.self_s"] = st.self_s
    records = counters["manifest_records"]
    out["dataio.parses_per_record"] = (
        stats["dataio.read_signal"].calls / records if records else 0.0)
    welch = stats["spectral.welch_psd"]
    out["spectral.welch_psd.us_per_call"] = (
        1e6 * welch.total_s / welch.calls if welch.calls else 0.0)
    for q in ("statdist.f_quantile", "statdist.normal_quantile"):
        hits, misses = counters[f"{q}.hits"], counters[f"{q}.misses"]
        out[f"{q}.misses"] = misses
        out[f"{q}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for key in ("dataio.read_signal.bytes", "pipeline.cases_scored",
                "cli.files_written", "cli.bytes_written"):
        out[key] = counters[key]
    return out
