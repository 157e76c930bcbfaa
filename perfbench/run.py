"""Benchmark of fockqha: one workload per run, measured in a fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--small]
    python3 perfbench/run.py [--seed N] [--seconds S] [--small]   # every workload

A run imports the package from ``src/`` next to this directory, builds the
workload's inputs and references from the seed, then repeats whole rounds
of the workload's operations until ``--seconds`` have passed.  Before every
round it empties the package's module-level caches and rebuilds the
workload's grids and bases, so each round starts where a fresh ``fockqha``
process starts after set-up; a warm Weyl cache would time work no CLI user
ever sees.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` is the median over
fresh child interpreters of the time from their start to the end of
``import fockqha`` plus the grids and bases; ``run_s`` the median round
time; ``peak_rss_mb`` this process's peak resident set; ``accuracy_digits``
-log10 of the largest deviation of any output from its reference.
``--trace 1`` alternates untraced and traced rounds and prints the
per-layer metrics of the traced ones; ``trace.overhead_s`` is the traced
minus the untraced median round time.  The last line of standard output is
the result as JSON.
"""

from __future__ import annotations

import os

# pin the BLAS pools before numpy is imported, as the fockqha CLI does
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import references  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
NAMES = ["identities", "theorem_a", "semiclassical", "two_variables"]
SETUP_SAMPLES = 3
WEYL_SAMPLE = 3  # Weyl arguments checked against the Laguerre form per traced run

# end-to-end metrics: (name, unit, better)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("accuracy_digits", "digits", "higher"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--small", action="store_true", help="small sizes, for a quick check")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Import fockqha from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import fockqha

    if Path(fockqha.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"fockqha was imported from {fockqha.__file__}, not from {SRC}")
    return fockqha


def build_models(params_list):
    """Build the grids and Gaussian-grid bases the package caches per model."""
    import fockqha.model

    for params in params_list:
        params.grid()
        fockqha.model._grid_basis(params)


def setup_child(args) -> int:
    """Child interpreter of a setup_s sample: import, build, report ready."""
    import_package()
    import workloads

    build_models(workloads.WORKLOADS[args.workload].models(args.small))
    print("ready", flush=True)
    return 0


def time_setup(args) -> float:
    """Seconds from starting a child interpreter until it reports ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child", "--workload", args.workload]
    if args.small:
        cmd.append("--small")
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
        status = child.wait(timeout=120)
    if line.strip() != "ready" or status != 0:
        raise RuntimeError(f"setup child exited with status {status}")
    return elapsed


def package_caches():
    """cache_clear / clear of every lru_cache and module-level *CACHE dict."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name != "fockqha" and not name.startswith("fockqha."):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, "cache_clear"):
                found[id(value)] = value.cache_clear
            elif isinstance(value, dict) and attr.upper().endswith("CACHE"):
                found[id(value)] = value.clear
    return list(found.values())


class Checks:
    """Failed checks and the deviations from independent references."""

    def __init__(self):
        self.failures = []
        self.deviations = []

    def close(self, label, value, reference, tol):
        dev = float(np.max(np.abs(np.asarray(value) - np.asarray(reference))))
        self.deviations.append(dev)
        if not dev <= tol:
            self.failures.append(f"{label}: deviation {dev:.3e} > {tol:.1e}")

    def true(self, label, condition):
        if not condition:
            self.failures.append(label)


class Runner:
    """Rounds of one workload, their times, failures and check results."""

    def __init__(self, workload, models, caches):
        self.workload = workload
        self.models = models
        self.caches = caches
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.deviations = []
        self._reported = set()

    def round(self) -> float:
        for clear in self.caches:
            clear()
        build_models(self.models)
        gc.collect()
        outputs = {}
        with warnings.catch_warnings():
            # at D = 24 every theorem_a stage warns of fit nodes outside the
            # trusted Berezin window; the checks, not the warnings, judge
            warnings.simplefilter("ignore")
            t0 = time.perf_counter()
            for name, run, _ in self.workload.ops:
                self.attempted += 1
                try:
                    outputs[name] = run(outputs)
                except Exception:  # an operation that raises counts as failed
                    self.failed += 1
                    if name not in self._reported:
                        self._reported.add(name)
                        print(f"operation {name} failed:", file=sys.stderr)
                        traceback.print_exc()
            elapsed = time.perf_counter() - t0
        checks = Checks()
        for name, _, check in self.workload.ops:
            if name in outputs:
                check(outputs[name], checks)
        self.deviations.extend(checks.deviations)
        for failure in checks.failures:
            if failure not in self.failures:
                self.failures.append(failure)
                print(f"check failed: {failure}", file=sys.stderr)
        return elapsed


def weyl_err_max(fq, tracer, seed) -> float:
    """Largest entry error of sampled Weyl matrices against the Laguerre form."""
    keys = sorted(set(tracer.weyl_keys), key=repr)
    if not keys:
        return 0.0
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(keys), size=min(WEYL_SAMPLE, len(keys)), replace=False)
    err = 0.0
    for i in sorted(picks):
        params, z = keys[i]
        exact = references.weyl_reference(np.array(z), params.t, fq.multi_indices(params))
        err = max(err, float(np.max(np.abs(fq.weyl(params, np.array(z)).matrix - exact))))
    return err


def run_one(args) -> int:
    try:
        fq = import_package()
    except ImportError as exc:
        print(f"cannot import fockqha from {SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as outdir:
        workload = cls(args.seed, args.small, outdir)
        runner = Runner(workload, cls.models(args.small), package_caches())
        if args.trace:
            metrics, samples = traced_rounds(fq, runner, args)
        else:
            setups = [time_setup(args) for _ in range(SETUP_SAMPLES if not args.small else 1)]
            start = time.perf_counter()
            samples = [runner.round()]
            while time.perf_counter() - start < args.seconds:
                samples.append(runner.round())
            worst = max(runner.deviations, default=0.0)
            metrics = {
                "setup_s": statistics.median(setups),
                "run_s": statistics.median(samples),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "accuracy_digits": -math.log10(max(worst, 1e-17)),
            }
    units = dict((name, unit) for name, unit, _ in END_TO_END + tracing.PER_LAYER)
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  small=args.small, round_s=samples, check_failures=runner.failures)
    suffix = "-small" if args.small else ""
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for name, entry in result["metrics"].items():
        print(f"{args.workload}  {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"{args.workload}  rounds = {len(samples)}  attempted = {runner.attempted}  failed = {runner.failed}")
    print(json.dumps(result))
    return 0


def traced_rounds(fq, runner, args):
    """Alternate untraced and traced rounds; per-layer metrics of the traced."""
    tracer = tracing.Tracer()
    plain, traced, per_round = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        plain.append(runner.round())
        tracer.reset()
        tracer.install()
        try:
            traced.append(runner.round())
        finally:
            tracer.uninstall()
        per_round.append(tracer.metrics())
        if len(per_round) == 1:
            err = weyl_err_max(fq, tracer, args.seed)
    metrics = {}
    for name in per_round[0]:
        values = [m[name] for m in per_round]
        metrics[name] = statistics.median(values) if name.endswith("_s") else values[-1]
    metrics["operators.weyl.err_max"] = err
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics, plain + traced


def run_all(args) -> int:
    """Every workload, each in its own interpreter; a table of the results."""
    status = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.small:
            cmd.append("--small")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit status {proc.returncode}")
            status = 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            status = 1
        print(f"{name}  correct = {result['correct']}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_child:
        return setup_child(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
