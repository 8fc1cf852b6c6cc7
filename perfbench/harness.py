"""Runs one workload: set-up, timed passes, checks, metrics, report.

A pass is the workload's fixed list of ops for one pass index, run back to
back by one caller in this process; each op is timed on its own. Passes
repeat until starting another would run past the time budget, and at least
one always runs. Checks run between passes, outside the timed region.

Every reported time is an op's or set-up's wall time scaled to a fixed host
speed by the probes of hostspeed.py, run between ops; see that module for
why. A pass's time is the sum of its ops' scaled times. The raw wall times
go into the report next to them.

Set-up runs once to make the inputs, and again ``setup_reps_per_pass`` times
in every pass, before ops at fixed positions; those repeats are left out of
the op and pass timings and their output is dropped. Spread over the whole
run, they see the same host speed as the passes, so ``setup_s``, the median
of all set-up times, is not decided by the speed of the run's first moment.

With tracing on, set-up and passes run under a Tracer, and every pass also
runs untraced on the same ops, first on even passes and second on odd ones;
the paired difference gives the tracing overhead.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy

from hostspeed import PROBE_EVERY_S, REFERENCE_S, HostSpeed
from tracing import GENERATORS, SpanTotals, Tracer, child_times
from workloads import SIZES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
MAX_FAILURE_MESSAGES = 10

# End-to-end metrics (tracing off) and per-layer metrics (tracing on), as
# listed in BENCHMARK.json; every workload emits every one of them.
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "pass_s": "s",
}
TRACED_LAYERS = ("graphs", "labelling", "decompose", "bloom", "routing")
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in TRACED_LAYERS},
    "graphs.generate_s": "s",
}


class Raised:
    """Stands in for the result of an op whose call raised."""

    def __init__(self, exc: Exception):
        self.error = f"{type(exc).__name__}: {exc}"


@dataclass
class Measured:
    """Timings of the timed passes.

    Every pass runs the same ops (labels and work) in the same order, so op i
    of any pass has label labels[i % len(labels)]. Ops are recorded as start
    and end times and scaled to the reference host speed by ``scale`` once
    the run is over, when the probes after the last op exist too. The times
    are kept in flat arrays: per-op Python floats would add about 40 bytes an
    op to peak memory, and more for every extra pass a faster program fits
    into the run.
    """

    labels: list[str] = field(default_factory=list)
    works: list[int] = field(default_factory=list)
    starts: array = field(default_factory=lambda: array("d"))
    ends: array = field(default_factory=lambda: array("d"))
    op_times: array = field(default_factory=lambda: array("d"))  # scaled
    pass_times: list[float] = field(default_factory=list)  # scaled
    pass_walls: list[float] = field(default_factory=list)  # unscaled
    pass_rates: list[float] = field(default_factory=list)  # work per second of op time

    def add_pass(self, ops: list, spans: list[tuple[float, float]]) -> None:
        labels, works = [op.label for op in ops], [op.work for op in ops]
        if not self.labels:
            self.labels, self.works = labels, works
        elif (labels, works) != (self.labels, self.works):
            raise ValueError(f"pass {self.passes} runs other ops than pass 0")
        for start, end in spans:
            self.starts.append(start)
            self.ends.append(end)

    def scale(self, speed: HostSpeed) -> None:
        for start, end in zip(self.starts, self.ends):
            self.op_times.append((end - start) * speed.factor(start, end))
        n = len(self.labels)
        for k in range(self.passes):
            times = self.op_times[k * n : (k + 1) * n]
            self.pass_times.append(sum(times))
            self.pass_walls.append(sum(self.ends[k * n : (k + 1) * n]) - sum(self.starts[k * n : (k + 1) * n]))
            self.pass_rates.append(sum(self.works) / sum(t for t, w in zip(times, self.works) if w))

    @property
    def passes(self) -> int:
        return len(self.starts) // max(1, len(self.labels))

    @property
    def samples(self) -> int:
        return len(self.op_times)

    @property
    def pass_s(self) -> float:
        return statistics.median(self.pass_times)

    @property
    def work_per_s(self) -> float:
        return statistics.median(self.pass_rates)

    def quantile(self, q: float) -> float:
        if len(self.op_times) == 1:
            return self.op_times[0]
        return statistics.quantiles(self.op_times, n=100, method="inclusive")[round(q * 100) - 1]

    def by_label(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for i, t in enumerate(self.op_times):
            out.setdefault(self.labels[i % len(self.labels)], []).append(t)
        return out

    def per_label(self) -> dict:
        """label -> (ops per second of op time, median op time)."""
        return {
            label: (len(times) / sum(times), statistics.median(times))
            for label, times in self.by_label().items()
        }


def environment() -> dict:
    src = ROOT / "src" / "bitpath"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(ROOT),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def git_commit(root: Path) -> str | None:
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _normalise(value):
    return json.loads(json.dumps(value, sort_keys=True))


class Runner:
    """Runs set-up and passes for one workload and checks every op's output.

    Set-ups and ops are recorded as (start, end) times; ``scaled`` turns
    them into times at the reference host speed once the run is over.
    """

    def __init__(self, workload, seed: int, tracer: Tracer | None):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        # op id -> (phase, label); id 0 collects calls made between ops
        self.op_meta: list[tuple[str, str]] = [("between ops", "")]
        self.op_spans: dict[int, tuple[float, float]] = {}  # traced op id -> (start, end)
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.setup_spans: list[tuple[float, float]] = []
        self.speed = HostSpeed()

    def _begin(self, phase: str, label: str) -> None:
        self.tracer.op = len(self.op_meta)
        self.op_meta.append((phase, label))

    def scaled(self, spans: list[tuple[float, float]]) -> list[float]:
        return [(end - start) * self.speed.factor(start, end) for start, end in spans]

    def op_speed(self) -> list[float]:
        """op id -> the factor that scales the op's span times."""
        return [
            self.speed.factor(*self.op_spans[op]) if op in self.op_spans else 1.0
            for op in range(len(self.op_meta))
        ]

    def setup(self) -> object:
        """One timed set-up, between two probes; returns the inputs it made."""
        gc.collect()
        self.speed.probe()
        if self.tracer:
            self._begin("setup", f"setup {len(self.setup_spans)}")
        start = perf_counter()
        inputs = self.workload.setup(self.seed)
        self.setup_spans.append((start, perf_counter()))
        if self.tracer:
            self.op_spans[self.tracer.op] = self.setup_spans[-1]
            self.tracer.op = 0
        self.speed.probe()
        return inputs

    def run_pass(self, ops: list, phase: str, measured: bool = True) -> tuple[list, list]:
        """(start, end) of every op, and the ops' results.

        The host is probed before the pass, after every PROBE_EVERY_S of op
        time and after the pass. A measured pass is traced when tracing is on
        and repeats set-up; the other kind is the untraced twin that gives
        the tracing overhead.
        """
        traced = measured and self.tracer is not None
        reps = self.workload.setup_reps_per_pass if measured else 0
        setup_before = {len(ops) * j // reps for j in range(reps)}
        spans, results, done = [], [], {}
        pending = 0.0  # op time since the last probe
        gc.collect()
        self.speed.probe()
        for i, op in enumerate(ops):
            if i in setup_before:
                self.setup()
                pending = 0.0
            if traced:
                self._begin(phase, op.label)
            start = perf_counter()
            try:
                out = op.call(done)
            except Exception as exc:  # a failing op is counted, not fatal
                out = Raised(exc)
            end = perf_counter()
            spans.append((start, end))
            if traced:
                self.op_spans[self.tracer.op] = (start, end)
            results.append(out)
            done[op.label] = out
            pending += end - start
            if pending >= PROBE_EVERY_S:
                self.speed.probe()
                pending = 0.0
        if pending:
            self.speed.probe()
        if traced:
            self.tracer.op = 0
        return spans, results

    def check(self, ops: list, results: list, phase: str) -> None:
        for op, out in zip(ops, results):
            self.attempted += 1
            try:
                if isinstance(out, Raised):
                    problem = out.error
                elif _normalise(op.fingerprint(out)) != _normalise(op.expected()):
                    problem = "output differs from the expected fingerprint"
                else:
                    continue
            except Exception as exc:  # a broken check counts as a failed op
                problem = f"check raised {type(exc).__name__}: {exc}"
            self.failed += 1
            if len(self.failures) < MAX_FAILURE_MESSAGES:
                self.failures.append(f"{phase} {op.label}: {problem}")


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: str = "full",
    goldens: dict | None = None,
    out_dir: Path | None = None,
) -> tuple[dict, dict]:
    """Returns (result line, full report).

    With trace, every pass runs twice on the same ops, traced and untraced,
    in alternating order; the per-layer numbers come from the traced runs and
    the tracing overhead from the paired difference of scaled pass times.
    The time budget counts everything after the first set-up: passes,
    set-up repeats, probes, checks and untraced twins.
    """
    if goldens is None:
        goldens = json.loads((Path(__file__).parent / "goldens.json").read_text())
    workload = WORKLOADS[name](SIZES[sizes][name], goldens)
    tracer = Tracer() if trace else None
    runner = Runner(workload, seed, tracer)

    def untraced_pass(ops: list) -> list:
        tracer.uninstall()
        try:
            return runner.run_pass(ops, "untraced", measured=False)[0]
        finally:
            tracer.install()

    if tracer:
        tracer.install()
    inputs = runner.setup()

    measured = Measured()
    untraced_spans: list[list] = []
    counts: dict = {}
    k = 0
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        ops = workload.ops(inputs, seed, k)
        untraced_first = tracer is not None and k % 2 == 0
        if untraced_first:
            untraced_spans.append(untraced_pass(ops))
        spans, results = runner.run_pass(ops, f"pass {k}")
        measured.add_pass(ops, spans)
        runner.check(ops, results, f"pass {k}")
        if k == 0:
            counts = workload.counts(inputs, ops, results)
        del results
        if tracer and not untraced_first:
            untraced_spans.append(untraced_pass(ops))
        k += 1
        now = perf_counter()
        if (now - start) + (now - pass_start) > seconds:
            break
    if tracer:
        tracer.uninstall()
    measured.scale(runner.speed)
    setup_times = runner.scaled(runner.setup_spans)
    speeds = runner.speed.factors()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "sizes": sizes,
        "seconds": seconds,
        "environment": environment(),
        "closed_loop": "one caller in one process; the next op starts when the previous returns",
        "setup_reps": len(setup_times),
        "passes": measured.passes,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failed_share": runner.failed / runner.attempted,
        "failures": runner.failures,
        "counts": counts,
        "host_speed": {
            "reference_s": REFERENCE_S,
            "probes": len(speeds),
            "factor_quartiles": statistics.quantiles(speeds, n=4),
            "factor_range": [min(speeds), max(speeds)],
        },
        "unscaled": {
            "setup_s": statistics.median(end - start for start, end in runner.setup_spans),
            "pass_s": statistics.median(measured.pass_walls),
        },
    }
    if tracer:
        metrics, report["layers"] = _layer_metrics(
            workload, tracer, runner, measured, counts, [sum(runner.scaled(s)) for s in untraced_spans]
        )
        if out_dir is not None:
            tracer.write(out_dir / f"{name}-seed{seed}.spans.tsv.gz")
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "work_per_s": measured.work_per_s,
            "op_p50_ms": measured.quantile(0.5) * 1e3,
            "op_p90_ms": measured.quantile(0.9) * 1e3,
            "pass_s": measured.pass_s,
        }
        report["named"] = {
            "setup_s": {"value": metrics["setup_s"], "unit": "s", "samples": len(setup_times)},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "failed_share": {"value": report["failed_share"], "unit": "ratio"},
            **workload.named(measured),
        }
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    report["metrics"] = {key: {"value": metrics[key], "unit": units[key]} for key in units}
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": report["metrics"],
    }
    if out_dir is not None:
        path = out_dir / f"{name}-seed{seed}-trace{int(trace)}.json"
        path.write_text(json.dumps(report, indent=1) + "\n")
    return result, report


def _layer_metrics(workload, tracer, runner, measured, counts, untraced_times) -> tuple[dict, dict]:
    spans, meta = tracer.spans, runner.op_meta
    child = child_times(spans)
    op_speed = runner.op_speed()
    totals = lambda keep_op, scale: SpanTotals(spans, child, op_speed, keep_op, scale)
    setup = totals(lambda op: meta[op][0] == "setup", 1 / len(runner.setup_spans))
    timed = lambda op: meta[op][0].startswith("pass ")
    per_pass = totals(timed, 1 / measured.passes)
    per_input = {
        label: totals(lambda op, label=label: timed(op) and meta[op][1] == label, 1)
        for label in dict.fromkeys(measured.labels)
    }
    metrics = {
        f"{layer}.self_s": setup.layer_self_s(layer) + per_pass.layer_self_s(layer)
        for layer in TRACED_LAYERS
    }
    metrics["graphs.generate_s"] = sum(setup.total_s(name) for name in GENERATORS)
    counts["trace.spans"] = sum(1 for s in spans if meta[s[4]][0] == "pass 0")
    overhead = statistics.median(t - u for t, u in zip(measured.pass_times, untraced_times))
    layers = {
        "named": {
            "trace.overhead_s": overhead,
            "trace.overhead_share": overhead / statistics.median(untraced_times),
            "graphs.generate_s": metrics["graphs.generate_s"],
            "cli.self_s": setup.layer_self_s("cli") + per_pass.layer_self_s("cli"),
            **workload.layer_metrics(per_pass, per_input, counts),
        },
        "per_setup": setup.table(),
        "per_pass": per_pass.table(),
    }
    return metrics, layers
