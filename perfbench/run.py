"""Benchmark of the orbitbell command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Each operation is one in-process call to
``orbitbell.cli.main(argv)`` with stdout captured, in a closed loop: one
caller, one thread, the next call only after the previous returns. A
pass runs every cell of the workload once, in an order shuffled by the
seed. Every output is checked by ``oracle.py`` after its pass, outside
the timed region.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced passes with passes in which every layer function is wrapped by
``tracer.py``, reports the per-layer metrics of the traced passes and
writes their spans under ``.perfbench/``. The last line of stdout is the
result as JSON; the line before it holds diagnostics (seed, samples,
host). Exits 2 without a result when the checkout has no package.

End-to-end times are reported at the reference host speed of
``gauge.py``, which cancels the drift of a shared host's speed; the
diagnostics keep the raw wall times.
"""

import os

# Pinned before numpy is first imported, here and in child interpreters.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import gauge  # noqa: E402
import numpy  # noqa: E402
import oracle  # noqa: E402
from tracer import Tracer, layer_metrics, summarize  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"


def _analyze(d: int, m: int) -> tuple[str, ...]:
    return ("analyze", "--outcomes", str(d), "--settings", str(m), "--format", "json")


# Cells of one pass, and one cheap operation on the same code path that
# warms the process up before timing. README.md gives the reasons.
WORKLOADS = {
    "outcomes-heavy": (
        tuple(_analyze(d, m) for d, m in ((2, 2), (3, 2), (5, 4), (6, 4), (8, 2), (10, 2))),
        _analyze(2, 2),
    ),
    "settings-heavy": (
        tuple(_analyze(d, m) for d, m in ((2, 12), (2, 13), (3, 8), (4, 6))),
        _analyze(2, 2),
    ),
    "verify-sweep": (
        (("verify",),),
        ("verify", "--outcomes-max", "2", "--settings-max", "2"),
    ),
}

SETUP_SAMPLES = 11
GAUGE_SAMPLES = 25
# Times the import, then the gauge's kernel (which needs numpy, so only
# after the import) in the same interpreter.
_CHILD_IMPORT = (
    "import sys, time\n"
    "sys.path[:0] = [sys.argv[1]]\n"
    "t = time.perf_counter()\n"
    "import orbitbell.cli\n"
    "t = time.perf_counter() - t\n"
    "sys.path[:0] = [sys.argv[2]]\n"
    "import gauge\n"
    f"print(repr([t] + [gauge.kernel() for _ in range({GAUGE_SAMPLES})]))\n"
)


def import_cli():
    """The checkout's ``orbitbell.cli``; exits 2 if the checkout has none."""
    if not (SRC / "orbitbell" / "cli.py").is_file():
        print("perfbench: no src/orbitbell package in this checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("orbitbell.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported {cli.__file__}, not the checkout's", file=sys.stderr)
        raise SystemExit(2)
    return cli


def setup_samples() -> tuple[list[float], list[float]]:
    """Seconds to import ``orbitbell.cli``, one sample per fresh
    interpreter: (wall, at the reference speed)."""
    wall, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", _CHILD_IMPORT, str(SRC), str(Path(__file__).resolve().parent)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, *kernel_samples = json.loads(out.stdout)
        wall.append(seconds)
        scaled.append(gauge.scale(seconds, kernel_samples))
    return wall, scaled


def calibrate() -> float:
    """Median seconds of a fixed pure-Python loop: a gauge of machine speed."""
    runs = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) % 1_000_003
        runs.append(time.perf_counter() - start)
    return sorted(runs)[1]


def tail_rank(n: int) -> int:
    """0-based rank of the highest of n sorted samples with ten above it."""
    return max(0, n - 11)


class ClosedLoop:
    """Runs CLI operations one after another and checks every output."""

    def __init__(self, cli, cells, seed: int) -> None:
        self.cli = cli
        self.cells = list(cells)
        self.rng = random.Random(seed)
        self.first_output: dict[tuple[str, ...], str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _call(self, argv: tuple[str, ...]):
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(list(argv))
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            rc = f"raised {exc!r}"
        return argv, rc, buf.getvalue()

    def _check(self, argv: tuple[str, ...], rc, text: str) -> None:
        self.attempted += 1
        if argv[0] == "analyze":
            found = oracle.check_certificate(int(argv[2]), int(argv[4]), rc, text)
        else:
            opts = dict(zip(argv[1::2], argv[2::2]))
            grid = int(opts.get("--outcomes-max", 6)), int(opts.get("--settings-max", 6))
            found = oracle.check_verify(*grid, rc, text)
        if self.first_output.setdefault(argv, text) != text:
            found.append("output differs from its first run")
        if found:
            self.failed += 1
            self.problems.extend(f"{' '.join(argv)}: {p}" for p in found)

    def warm_up(self, argv: tuple[str, ...]) -> None:
        self._check(*self._call(argv))

    def run_pass(self, gauged: bool) -> tuple[float, float | None, int]:
        """One pass in shuffled order: (wall seconds, seconds at the
        reference speed or None if not gauged, bytes of certificates)."""
        order = list(self.cells)
        self.rng.shuffle(order)

        def work():
            return [self._call(argv) for argv in order]

        if gauged:
            results, wall, scaled = gauge.timed(work)
        else:
            start = time.perf_counter()
            results = work()
            wall, scaled = time.perf_counter() - start, None
        for result in results:
            self._check(*result)
        cert_bytes = sum(len(text.encode()) for argv, _, text in results if argv[0] == "analyze")
        return wall, scaled, cert_bytes


def per_layer_metrics(spans: list[list], traced, untraced, problems: list[str]) -> dict:
    """Medians over traced passes; call counts must repeat exactly."""
    per_pass = [layer_metrics(summarize(s)) for s in spans]
    metrics = {}
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        if name.endswith(".calls"):
            if len(set(values)) != 1:
                problems.append(f"{name} varies across passes: {sorted(set(values))}")
            metrics[name] = {"value": values[0], "unit": "count"}
        else:
            metrics[name] = {"value": statistics.median(values), "unit": "s"}
    metrics["certificate.bytes"] = {"value": traced[0][2], "unit": "B"}
    ratio = statistics.median(p[0] for p in traced) / statistics.median(p[0] for p in untraced)
    metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    return metrics


def write_spans(workload: str, seed: int, spans: list[list]) -> Path:
    """Write the traced passes' spans; one file per workload, the last run wins.

    A span is written as [name index, start us, end us, parent index],
    with times counted from the start of its pass.
    """
    names: dict[str, int] = {}
    passes = []
    for spans_of_pass in spans:
        t0 = spans_of_pass[0][1] if spans_of_pass else 0.0
        passes.append([
            [names.setdefault(n, len(names)), round((s - t0) * 1e6), round((e - t0) * 1e6), p]
            for n, s, e, p in spans_of_pass
        ])
    SPANS_DIR.mkdir(exist_ok=True)
    out = SPANS_DIR / f"spans-{workload}.json"
    out.write_text(json.dumps({
        "workload": workload, "seed": seed, "names": list(names),
        "span": ["name", "start_us", "end_us", "parent"], "passes": passes,
    }))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    setup_wall, setup = ([], []) if args.trace else setup_samples()
    calib_before = calibrate()
    cells, warm_up = WORKLOADS[args.workload]
    loop = ClosedLoop(cli, cells, args.seed)
    deadline = time.perf_counter() + args.seconds
    loop.warm_up(warm_up)

    # A new pass (or traced pair) starts only if one as long as the last
    # still fits. Traced runs report raw times, so their passes go ungauged.
    untraced: list[tuple[float, float | None, int]] = []
    traced: list[tuple[float, float | None, int]] = []
    spans: list[list] = []
    tracer = Tracer()
    while not untraced or time.perf_counter() + untraced[-1][0] * (1 + args.trace) < deadline:
        untraced.append(loop.run_pass(gauged=not args.trace))
        if args.trace:
            tracer.install()
            try:
                traced.append(loop.run_pass(gauged=False))
            finally:
                tracer.uninstall()
            spans.append(tracer.take())
    calib_after = calibrate()

    times = sorted(scaled if scaled is not None else wall for wall, scaled, _ in untraced)
    rank = tail_rank(len(times))
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cells": [" ".join(c) for c in cells],
        "passes": len(times),
        "pass_s.wall_samples": [wall for wall, _, _ in untraced],
        "pass_s.scaled_samples": [scaled for _, scaled, _ in untraced],
        "pass_s.tail.percentile": round(100.0 * (rank + 1) / len(times), 2),
        "pass_s.tail.samples_beyond": len(times) - rank - 1,
        "setup_s.wall_samples": setup_wall,
        "setup_s.scaled_samples": setup,
        "error_rate": loop.failed / loop.attempted,
        "host.calib_s": [calib_before, calib_after],
        "host.nproc": os.cpu_count(),
        "host.python": platform.python_version(),
        "host.numpy": numpy.__version__,
        "host.blas_threads": BLAS_THREADS,
    }

    if args.trace:
        metrics = per_layer_metrics(spans, traced, untraced, loop.problems)
        diagnostics["spans_file"] = str(write_spans(args.workload, args.seed, spans).relative_to(ROOT))
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "pass_s.p50": {"value": statistics.median(times), "unit": "s"},
            "pass_s.tail": {"value": times[rank], "unit": "s"},
            "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MiB"},
        }

    diagnostics["problems"] = loop.problems[:20]
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({
        "correct": not loop.problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
