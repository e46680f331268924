"""trajkit benchmark: three seeded workloads driven through ``trajkit.cli.cli_main``.

    python3 bench/run.py --workload prep|eval|closed-loop|all --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``.
The load is a closed loop with one caller in one thread: the next op
starts when the previous one returns. Every op's outputs are checked
(untimed) and an op that exits nonzero or fails a check counts as
failed.

``--trace 0`` reports the end-to-end metrics: op latency median and p90,
items per second of timed wall time, the share of ops that passed,
peak RSS of this process and ``setup_s``, the median over fresh
processes of the time from process start to the first timed op
(import, input generation and warm-up). ``--trace 1`` runs one traced
pass of the input set for the per-layer metrics (see tracing.py), then
alternates untraced and traced ops to report the tracing overhead.

Human-readable lines come first, with sample counts and provenance; the
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Spans and a full result
record are written under ``.bench_out/``.
"""

import os

# one BLAS/OpenMP thread: the load model is a single caller in one thread
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

from tracing import PER_LAYER, Patches, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1  # the eval check also compares against reference_eval.json for this seed
WARMUP_OPS = 2
SETUP_RUNS = 5  # fresh processes timed for setup_s
REFERENCE = BENCH / "reference_eval.json"
END_TO_END = (("op_ms_p50", "ms"), ("op_ms_p90", "ms"), ("items_per_s", "items/s"),
              ("ok_frac", "ratio"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def import_cli():
    """Import ``trajkit.cli`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "trajkit" / "cli.py").is_file():
        raise SystemExit(f"error: no trajkit sources under {src}")
    sys.path.insert(0, str(src))
    import trajkit
    import trajkit.cli

    if Path(trajkit.__file__).resolve().parent != src / "trajkit":
        raise SystemExit(f"error: imported trajkit from {trajkit.__file__}, not {src}")
    return trajkit.cli


def setup(workload, seed: int, workdir: Path):
    """Import the CLI, generate the seeded inputs, run the warm-up ops."""
    cli = import_cli()
    items = workload.make(np.random.default_rng(seed), workdir)
    if workload.name == "eval" and REFERENCE.is_file():
        ref = json.loads(REFERENCE.read_text())
        if ref["seed"] == seed:
            for item in items:
                item.expect["reference"] = ref["items"][item.name]
    for item in items[:WARMUP_OPS]:
        run_op(cli.cli_main, item)
    return cli, items


def run_op(cli_main, item, tracer=None) -> tuple:
    """Run one op's CLI calls; returns (seconds, exit code of the first failure or 0)."""
    start = perf_counter()
    code = 0
    for argv in item.argvs:
        try:
            code = cli_main(argv) if tracer is None else tracer.call("cli", cli_main, argv)
        except Exception as exc:  # an escaped exception is a failed op
            print(f"{item.name}: {argv[0]} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            code = -1
        if code != 0:
            break
    return perf_counter() - start, code


def checked(workload, item, code: int) -> list:
    if code != 0:
        return [f"exit code {code}"]
    try:
        return workload.check(item)
    except Exception as exc:  # a malformed output is a failed op, not a crashed run
        return [f"check raised {type(exc).__name__}: {exc}"]


class Tally:
    def __init__(self):
        self.latencies = []
        self.units = 0
        self.attempted = 0
        self.failures = []

    def add(self, item, seconds: float, fails: list) -> None:
        self.attempted += 1
        self.latencies.append(seconds)
        if fails:
            self.failures.append(f"{item.name}: {'; '.join(fails)}")
        else:
            self.units += item.units


def measure(workload, cli, items, seed: int, seconds: float, corrupt=False) -> Tally:
    """Closed loop over seeded passes of the input set for ``seconds``."""
    order = np.random.default_rng([seed, 1])
    tally = Tally()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        for idx in order.permutation(len(items)):
            item = items[idx]
            elapsed, code = run_op(cli.cli_main, item)
            if corrupt and code == 0:
                workload.corrupt(item)
            tally.add(item, elapsed, checked(workload, item, code))
            if perf_counter() >= deadline:
                break
    return tally


def measure_traced(workload, cli, items, seed: int, seconds: float, spans_path: Path):
    """One traced pass for the per-layer metrics, then untraced/traced pairs
    until ``seconds`` have passed, for the tracing overhead."""
    order = np.random.default_rng([seed, 1])
    tracer = Tracer()
    patches = Patches(tracer)
    plain, traced = Tally(), Tally()
    layers = None
    deadline = perf_counter() + seconds
    n_pass = 0
    while layers is None or perf_counter() < deadline:
        for k, idx in enumerate(order.permutation(len(items))):
            item = items[idx]
            for use_trace in ((False, True) if (k + n_pass) % 2 == 0 else (True, False)):
                tally = traced if use_trace else plain
                if use_trace:
                    tracer.op += 1
                    patches.install()
                try:
                    elapsed, code = run_op(cli.cli_main, item, tracer if use_trace else None)
                finally:
                    patches.remove()
                tally.add(item, elapsed, checked(workload, item, code))
                if use_trace and layers is not None:
                    tracer.spans.clear()  # keep only the first pass in memory
            if layers is not None and perf_counter() >= deadline:
                break
        if layers is None:
            layers = layer_metrics(tracer, len(items))
            tracer.write(spans_path)
        n_pass += 1
    layers["trace.overhead_frac"] = (float(np.median(traced.latencies))
                                     / float(np.median(plain.latencies)) - 1.0)
    return layers, plain, traced


def setup_seconds(workload_name: str, seed: int) -> list:
    """Time fresh processes from start to the point they would begin timing."""
    times = []
    for _ in range(SETUP_RUNS):
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
             "--seed", str(seed), "--setup-only"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise SystemExit("error: setup process failed")
        times.append(elapsed)
    return times


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def provenance(seed: int) -> dict:
    import scipy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def latency_summary(tally: Tally) -> dict:
    lat_ms = 1e3 * np.array(tally.latencies)
    p90 = float(np.percentile(lat_ms, 90))
    return {"p50": float(np.median(lat_ms)), "p90": p90, "n": len(lat_ms),
            "beyond_p90": int(np.sum(lat_ms > p90))}


def run_workload(args) -> dict:
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        cli, items = setup(workload, args.seed, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return {}
        stem = f"{args.workload}-seed{args.seed}"
        if args.trace:
            layers, plain, traced = measure_traced(workload, cli, items, args.seed,
                                                   args.seconds, OUT / f"spans-{stem}.json")
            units = dict(PER_LAYER)
            metrics = {n: {"value": layers[n], "unit": units[n]} for n, _ in PER_LAYER}
            failures = plain.failures + traced.failures
            attempted = plain.attempted + traced.attempted
            counts = {"untraced": latency_summary(plain), "traced": latency_summary(traced),
                      "pass_ops": len(items)}
        else:
            tally = measure(workload, cli, items, args.seed, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            lat = latency_summary(tally)
            setups = setup_seconds(args.workload, args.seed)
            values = {
                "op_ms_p50": lat["p50"],
                "op_ms_p90": lat["p90"],
                "items_per_s": tally.units / sum(tally.latencies),
                "ok_frac": 1.0 - len(tally.failures) / tally.attempted,
                "peak_rss_mb": peak_rss_mb,
                "setup_s": float(np.median(setups)),
            }
            metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
            failures, attempted = tally.failures, tally.attempted
            counts = {"latency": lat, "failed_frac": len(failures) / attempted,
                      "failed_frac_base": attempted, "setup_runs": setups}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "provenance": provenance(args.seed), "samples": counts,
              "failures": failures[:20], **result}
    (OUT / f"result-{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=2))
    print_human(record)
    return result


def print_human(record: dict) -> None:
    print(f"# workload {record['workload']}  trace={record['trace']}  "
          f"provenance {json.dumps(record['provenance'])}")
    s = record["samples"]
    print(f"#   ops attempted {record['attempted']}, failed {record['failed']}", end="")
    if "failed_frac" in s:
        lat = s["latency"]
        print(f" (failed_frac {s['failed_frac']:.4f} of {s['failed_frac_base']} ops); "
              f"latency n={lat['n']}, {lat['beyond_p90']} beyond p90; "
              f"setup runs {len(s['setup_runs'])}")
    else:
        print(f"; untraced n={s['untraced']['n']}, traced n={s['traced']['n']}, "
              f"one traced pass = {s['pass_ops']} ops")
    for name, m in record["metrics"].items():
        print(f"#   {name:34s} {m['value']:14.6g} {m['unit']}")
    for line in record["failures"]:
        print(f"#   FAILED {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload != "all":
        result = run_workload(args)
        if not args.setup_only:
            print(json.dumps(result))
        return 0
    # each workload in a fresh process, so peak RSS is that workload's own
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
