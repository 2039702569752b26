"""padicres benchmark: one workload per process, one caller, jobs=1.

    python3 perfbench/run.py --workload res-large --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
src/.  A run builds the workload's cases from the seed, then runs whole
passes over them until --seconds have gone by, and checks every output
against perfbench/checks.py.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics: setup_s (median of fresh-process
set-ups), wall_s (median pass time) and peak_rss_mb.  --trace 1 spends the
first half of the run untraced and the second half with tracing.Tracer
installed, and reports the per-layer metrics of one pass (times are medians
over the traced passes, host-speed scaled like wall_s) and trace.overhead,
the traced over the untraced median pass time.  Results and spans are also written to perfbench/results/.

Host speed.  On a shared host the same pass can take from 0.6 to 1.2 times
its median, in phases that last from seconds to minutes, so medians of
separate processes disagree by far more than a code change worth
measuring.  A fixed reference loop (pure Python and big-integer
arithmetic, no padicres code) is therefore timed before and after every
set-up and every pass, and between operations at most every
SAMPLE_EVERY_S.  setup_s and wall_s are given in seconds at the host speed
where that loop takes REFERENCE_S: measured time * REFERENCE_S / (median
of the reference times around and during it).  The raw times are kept in
the results file.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from workloads import WORKLOADS, build

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
# fresh processes timed per run for setup_s
SETUP_REPEATS = 7
# typical time of one _reference_work() on the host the bounds were set on
REFERENCE_S = 0.012
# least time between two samples of the host speed inside a pass
SAMPLE_EVERY_S = 0.2


def _reference_work() -> int:
    acc, x, m = 1, 3**700, 7**1500
    for i in range(480):
        acc = acc * (x + i) % m
    d = {}
    for i in range(19200):
        k = (i * 7919) % 1009
        d[k] = d.get(k, 0) + i
    return acc ^ len(d)


class HostSpeed:
    """Times of the reference loop, sampled between operations."""

    def __init__(self):
        self.samples = []
        self.last = float("-inf")

    def sample(self):
        start = time.perf_counter()
        _reference_work()
        self.last = time.perf_counter()
        self.samples.append(self.last - start)

    def tick(self):
        if time.perf_counter() - self.last >= SAMPLE_EVERY_S:
            self.sample()


class Timings:
    """Raw times, each with the host speed sampled around and during it."""

    def __init__(self):
        self.speed = HostSpeed()
        self.raw, self.windows = [], []

    def start(self) -> int:
        """Call before the timed work; returns the first sample's index."""
        self.speed.sample()
        return len(self.speed.samples) - 1

    def add(self, elapsed: float, first: int):
        self.speed.sample()
        self.raw.append(elapsed)
        self.windows.append((first, len(self.speed.samples)))

    def scaled(self) -> list:
        """Each raw time at the host speed where the reference loop takes
        REFERENCE_S; the speed is the median of the samples around it."""
        return [
            t * REFERENCE_S / statistics.median(self.speed.samples[a:b])
            for t, (a, b) in zip(self.raw, self.windows)
        ]


def load_program():
    """Import padicres from this checkout's src/, with the modules its
    oracles import lazily, and return the modules the workloads call."""
    src = ROOT / "src"
    if not (src / "padicres" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no padicres sources under {src}")
    sys.path.insert(0, str(src))
    import mpmath  # noqa: F401  (imported lazily by the float oracles)

    import padicres
    from padicres import cli, links, parsing, resultants

    if Path(padicres.__file__).resolve().parent != src / "padicres":
        raise SystemExit(f"perfbench: imported padicres from {padicres.__file__}, not {src}")
    return SimpleNamespace(cli=cli, links=links, parsing=parsing, resultants=resultants)


def time_setup(workload: str, seed: int) -> Timings:
    """Wall times of fresh processes that import the program and build
    (generate and parse) the workload's inputs."""
    timings = Timings()
    for _ in range(SETUP_REPEATS):
        first = timings.start()
        timings.speed.sample()
        timings.speed.sample()
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload, "--seed", str(seed)],
            check=True,
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
        )
        elapsed = time.perf_counter() - start
        timings.speed.sample()
        timings.speed.sample()
        timings.add(elapsed, first)
    return timings


class Failure:
    """An operation that raised; equal to another Failure with the same text."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, Failure) and other.text == self.text


def run_pass(cases, case_times, speed: HostSpeed):
    """One pass; its time is the sum of the operations' wall times, so the
    host-speed samples taken between them do not count."""
    outputs = []
    total = 0.0
    for i, case in enumerate(cases):
        speed.tick()
        before = time.perf_counter()
        try:
            outputs.append(case.run())
        except Exception as exc:  # a library call failed: counted, not fatal
            outputs.append(Failure(exc))
        elapsed = time.perf_counter() - before
        case_times[i].append(elapsed)
        total += elapsed
    return total, outputs


def run_passes(cases, seconds: float, state: dict, before_pass=None, after_pass=None) -> Timings:
    """Whole passes until `seconds` have gone by (at least one); returns the
    pass times.  Every pass's outputs must equal the first pass's."""
    times = Timings()
    start = time.perf_counter()
    while not times.raw or time.perf_counter() - start < seconds:
        first = times.start()
        if before_pass:
            before_pass()
        elapsed, outputs = run_pass(cases, state["case_times"], times.speed)
        if after_pass:
            after_pass()
        times.add(elapsed, first)
        if state["outputs"] is None:
            state["outputs"] = outputs
        elif outputs != state["outputs"]:
            state["nondeterministic"] = True
    return times


def check_outputs(cases, outputs) -> tuple:
    """(correct, failed per pass): every output of an operation that did
    not fail must pass its check."""
    correct, failed = True, 0
    for case, output in zip(cases, outputs):
        if isinstance(output, Failure) or case.failed(output):
            failed += 1
            detail = output.text if isinstance(output, Failure) else f"exit code {output[0]}"
            print(f"failed: {case.name}: {detail}", file=sys.stderr)
            continue
        try:
            case.check(output)
        except Exception as exc:
            correct = False
            print(f"WRONG: {case.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
    return correct, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cases = build(args.workload, args.seed, load_program())
    if args.setup_only:
        return 0

    state = {"outputs": None, "nondeterministic": False, "case_times": [[] for _ in cases]}
    metrics = {}
    if args.trace == 0:
        setup = time_setup(args.workload, args.seed)
        times = run_passes(cases, args.seconds, state)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["setup_s"] = {"value": statistics.median(setup.scaled()), "unit": "s"}
        metrics["wall_s"] = {"value": statistics.median(times.scaled()), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        passes = len(times.raw)
        extra = {"setup_raw_s": setup.raw, "setup_reference_s": setup.speed.samples}
    else:
        from tracing import Tracer, metric_unit

        times = run_passes(cases, args.seconds / 2, state)
        tracer = Tracer()
        per_pass, dumped = [], {}

        def begin():
            tracer.reset()
            begin.origin = time.perf_counter()

        def end():
            per_pass.append(tracer.summary())
            if not dumped:
                dumped.update(tracer.dump(begin.origin))

        with tracer:
            traced = run_passes(cases, args.seconds / 2, state, begin, end)
        # layer times get their pass's host-speed factor, like trace.wall_s
        factors = [scaled / raw for scaled, raw in zip(traced.scaled(), traced.raw)]
        for name in per_pass[0]:
            if metric_unit(name) == "s":
                value = statistics.median(p[name] * f for p, f in zip(per_pass, factors))
            else:
                value = per_pass[0][name]
            metrics[name] = {"value": value, "unit": metric_unit(name)}
        untraced_s = statistics.median(times.scaled())
        traced_s = statistics.median(traced.scaled())
        metrics["trace.wall_s"] = {"value": traced_s, "unit": "s"}
        metrics["trace.overhead"] = {"value": traced_s / untraced_s, "unit": "ratio"}
        passes = len(times.raw) + len(traced.raw)
        extra = {"traced_pass_raw_s": traced.raw, "traced_reference_s": traced.speed.samples}

    correct, failed = check_outputs(cases, state["outputs"])
    if state["nondeterministic"]:
        correct = False
        print("WRONG: outputs differ between passes", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": passes * len(cases),
        "failed": passes * failed,
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(
        json.dumps(
            dict(
                result,
                pass_raw_s=times.raw,
                pass_reference_s=times.speed.samples,
                pass_scaled_s=times.scaled(),
                **extra,
                case_median_raw_s={c.name: statistics.median(t) for c, t in zip(cases, state["case_times"])},
            ),
            indent=1,
        )
        + "\n"
    )
    if args.trace:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(dumped) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
