"""Benchmark of the balm solver and learners; see README.md in this directory.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite-solve --seed 1 --seconds 6 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics, or with
``--trace 1`` the per-layer ones. ``--workload all`` runs every workload in
its own process, one after the other. Each run also writes its rounds,
counts and (when traced) spans to ``perfbench/out/``.
"""

import os

# BLAS reads its thread count when numpy loads it, so fix it first.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("suite-solve", "sparse-solve", "sac-pipeline", "zero-net-train")
SETUP_REPEATS = 4
# Kernel runs that scale each set-up sample: one run varies by about 20%
# from the next, and set-up is timed only SETUP_REPEATS times.
SETUP_KERNEL_RUNS = 8
# Time to import balm (numpy and scipy with it) in a fresh interpreter.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import balm; print(time.perf_counter() - start)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="small inputs, for the benchmark's own tests"
    )
    parser.add_argument("--out-dir", type=Path, default=HERE / "out")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_package():
    """Import balm from this checkout's src/, and from nowhere else."""
    package = ROOT / "src" / "balm"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {package} not found; run from the root of a checkout")
    sys.path.insert(0, str(package.parent))
    import balm

    if Path(balm.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: balm was imported from {balm.__file__}, not {package}")


def import_seconds() -> tuple[list[float], list[float]]:
    """Imports of balm, raw and corrected for the host's speed.

    This process's import comes first, then that of ``SETUP_REPEATS - 1``
    fresh interpreters.
    """
    start = time.perf_counter()
    load_package()
    raw = [time.perf_counter() - start]
    from hostspeed import at_reference_speed

    corrected = [at_reference_speed(raw[0], SETUP_KERNEL_RUNS)]
    for _ in range(SETUP_REPEATS - 1):
        command = [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
        raw.append(float(done.stdout))
        corrected.append(at_reference_speed(raw[-1], SETUP_KERNEL_RUNS))
    return raw, corrected


def run_workload(args) -> dict:
    imports, imports_corrected = import_seconds()

    from hostspeed import Meter, at_reference_speed
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    def phase(name):
        if tracer:
            tracer.phase = name

    workload = WORKLOADS[args.workload](args.tiny)
    setups, setups_corrected = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workload.setup(args.seed)
        setups.append(time.perf_counter() - start)
        setups_corrected.append(at_reference_speed(setups[-1], SETUP_KERNEL_RUNS))

    # Traced runs report no end-to-end metric, so they run no kernel.
    meter = Meter(calibrate=not args.trace)
    phase("warmup")
    workload.warmup(inputs, meter)

    phase("measure")
    meter = Meter(calibrate=not args.trace)
    rounds, walls, timed, corrected = [], [], [], []
    begin = time.perf_counter()
    while True:
        start, raw_s, corrected_s = time.perf_counter(), meter.raw_s, meter.corrected_s
        rounds.append(workload.round(inputs, meter))
        walls.append(time.perf_counter() - start)
        timed.append(meter.raw_s - raw_s)
        corrected.append(meter.corrected_s - corrected_s)
        if time.perf_counter() - begin >= args.seconds:
            break
    rate = sum(r.lm_iters for r in rounds) / meter.corrected_s

    phase("check")
    problems = workload.check(inputs, rounds)

    if tracer:
        metrics = layer_metrics(tracer, len(rounds), SETUP_REPEATS)
    else:
        metrics = {
            "setup_s": {
                "value": statistics.median(imports_corrected) + statistics.median(setups_corrected),
                "unit": "s",
            },
            "lm_iters_per_s": {"value": rate, "unit": "1/s"},
            "lm_iters": {"value": rounds[0].lm_iters, "unit": "count"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "import_s": imports,
        "import_corrected_s": imports_corrected,
        "setup_repeats_s": setups,
        "setup_repeats_corrected_s": setups_corrected,
        "round_walls_s": walls,
        "round_timed_s": timed,
        "round_timed_corrected_s": corrected,
        "lm_iters_per_s_raw": sum(r.lm_iters for r in rounds) / meter.raw_s,
        "kernel_mean_s": meter.kernel_s / max(meter.kernels, 1),
        "counts": rounds[0].counts,
        "check_failures": problems,
        "result": result,
    }
    if tracer:
        report["trace"] = tracer.dump()

    for message in problems:
        print(f"check failed: {message}")
    print(f"{args.workload}: {len(rounds)} rounds, counts {rounds[0].counts}")
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, separators=(",", ":")) + "\n")
    return result


def run_all(args) -> dict:
    """Each workload in its own process; metrics are prefixed with the workload name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        command += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        command += ["--trace", str(args.trace), "--out-dir", str(args.out_dir)]
        command += ["--tiny"] if args.tiny else []
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
            print(f"{name:15} {metric:34} {value['value']:.6g} {value['unit']}")
    return combined


def main(argv=None) -> int:
    args = parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
