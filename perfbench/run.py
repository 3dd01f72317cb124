"""wcelab benchmark: certification workloads measured through the CLI.

    python3 perfbench/run.py --workload rotation-full --seed 0 --seconds 50 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. The run sets up the workload's inputs, then runs passes of the
workload through `wcelab.cli.main` until `--seconds` have gone by, checks
every verdict against `perfbench/expected/<workload>.json`, and prints one
JSON object as the last line of standard output:

- `--trace 0`: the end-to-end metrics (setup, wall and CPU time of a pass,
  time to verdict of one CLI call, peak memory; see README.md for the
  times that are scaled to reference speed);
- `--trace 1`: untraced and traced passes alternate; the per-layer metrics
  come from the traced ones, and the spans of the first traced pass are
  written to `.perfbench_work/<workload>/spans.jsonl`.

The line before it holds the machine metadata, sample counts and the
per-n check time (`--trace 1`). See README.md for how to read a result.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

from spans import Tracer
from workloads import WORKLOADS, seed_slot

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 5
# The speed of a shared box drifts by a third within minutes, in phases of
# 10-20 s, so no run is long enough to average it out. After every CLI call
# of a SCALED workload the benchmark times a fixed reference piece of work:
# small LAPACK calls and the Python around them, the mix of rotation-full.
# Each call time is reported scaled by REF_S over the reference time next to
# it, that is, as the time on a box that runs the reference piece in REF_S.
# REF_S is about the reference's median in a quiet phase of the 2-core
# x86-64 box the benchmark was written on (0.035-0.041 s; slow phases read
# up to 0.088 s). The unscaled times are on the info line.
# The reference piece runs right after the call, while the OpenBLAS threads
# still spin (for about 0.1 s), so it runs under the same load as the call.
# After a sleep it tracked the calls much worse: a spread of 0.13 over five
# runs against 0.02.
REF_ROUNDS = 40
REF_MATRICES = [numpy.random.default_rng(0).standard_normal((n, n))
                for n in (4, 8, 12, 16, 20, 24)]
REF_S = 0.040
# dense-n64's call times are not scaled. Its calls keep both cores busy
# (process CPU about twice wall), and neither this piece nor one of n = 64
# LAPACK calls tracked them: scaled, the five-run spread of certify_s came
# out at 0.12-0.17 against 0.08 unscaled, whose pass times stayed within
# 5.0-6.2 s while the reference piece ran 49-88 ms.
SCALED = {"rotation-full"}
# Set-up is mostly a fresh interpreter importing numpy and scipy: reading
# files and mapping libraries more than computing, and it did not track the
# reference piece. Each import of wcelab.cli is scaled instead by a fresh
# interpreter importing only IMPORT_REF_MODULES, timed right before it, to
# IMPORT_REF_S (about that import's median on the box above). The input
# builds, a few hundredths of a second, are not scaled.
IMPORT_REF_MODULES = "numpy, scipy.linalg"
IMPORT_REF_S = 0.60

# Fixed here rather than read from wcelab, so the metric names stay put.
CHECK_GROUPS = ("condexp", "norm", "vanishing", "partial_isometry", "func_calc",
                "polar", "aluthge", "normality", "spectrum", "spectral_decomp",
                "measure_axioms", "reconstruction")
# per-layer metric -> (unit, what it reads: span name calls / inclusive time,
# or layer self time)
PER_LAYER = {
    "lapack.svd_calls": ("count", "calls", "lapack.svd"),
    "lapack.svd_s": ("s", "total", "lapack.svd"),
    "lapack.eigh_calls": ("count", "calls", "lapack.eigh"),
    "lapack.eigh_s": ("s", "total", "lapack.eigh"),
    "lapack.norm2_calls": ("count", "calls", "lapack.norm2"),
    "lapack.norm2_s": ("s", "total", "lapack.norm2"),
    "lapack.self_s": ("s", "self", "lapack"),
    "opalgebra.operator_constructions": ("count", "calls",
                                         "opalgebra.WeightedOperator.__init__"),
    "opalgebra.operator_norm_calls": ("count", "calls", "opalgebra.operator_norm"),
    "opalgebra.func_calc_oracle_calls": ("count", "calls", "opalgebra.func_calc_oracle"),
    "opalgebra.polar_oracle_calls": ("count", "calls", "opalgebra.polar_oracle"),
    "opalgebra.self_s": ("s", "self", "opalgebra"),
    "spectral.check_spectral_axioms_s": ("s", "total", "spectral.check_spectral_axioms"),
    "spectral.measure_of_calls": ("count", "calls",
                                  "spectral.SpectralMeasureTable.measure_of"),
    "spectral.self_s": ("s", "self", "spectral"),
    "condexp.cond_exp_values_s": ("s", "total", "condexp.cond_exp_values"),
    "condexp.cond_exp_values_calls": ("count", "calls", "condexp.cond_exp_values"),
    "condexp.cond_exp_operator_s": ("s", "total", "condexp.cond_exp_operator"),
    "condexp.cond_exp_operator_calls": ("count", "calls", "condexp.cond_exp_operator"),
    "condexp.self_s": ("s", "self", "condexp"),
    "measure.self_s": ("s", "self", "measure"),
    "wce.self_s": ("s", "self", "wce"),
    **{f"checks.{g}_s": ("s", "total", f"checks.check_{g}") for g in CHECK_GROUPS},
    "checks.self_s": ("s", "self", "checks"),
    "instance_io.parse_s": ("s", "total", "instance_io.parse_instance"),
    "instance_io.serialize_s": ("s", "total", "instance_io.serialize_instance"),
    "generator.gen_s": ("s", "total", "generator.gen_instance"),
    "suite.run_suite_s": ("s", "total", "suite.run_suite"),
    "suite.render_text_s": ("s", "total", "suite.VerificationReport.render_text"),
    "suite.to_json_s": ("s", "total", "suite.VerificationReport.to_json"),
    "cli.self_s": ("s", "self", "cli"),
}


class SetupError(Exception):
    """The checkout cannot run the benchmark; nothing is measured."""


def load_program():
    """Import wcelab from this checkout's src/, never from elsewhere."""
    if not (SRC / "wcelab" / "cli.py").is_file():
        raise SetupError(f"no wcelab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        from wcelab import cli
    except ImportError as e:
        raise SetupError(f"cannot import wcelab: {e}") from None
    if Path(cli.__file__).resolve().parent != SRC / "wcelab":
        raise SetupError(f"wcelab was imported from {cli.__file__}, not {SRC}")
    return cli


def run_cli(cli, argv: list[str]) -> int:
    """One `wcelab` command; its standard output is captured and dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def time_import(modules: str) -> float:
    """Wall time of a fresh interpreter that imports `modules` (src/ first
    on its path)."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c",
                    f"import sys; sys.path.insert(0, sys.argv[1]); import {modules}",
                    str(SRC)], check=True, cwd=ROOT, timeout=120)
    return time.perf_counter() - start


def reference_piece() -> float:
    """Seconds the fixed reference piece takes: the box's speed right now."""
    start = time.perf_counter()
    for _ in range(REF_ROUNDS):
        for m in REF_MATRICES:
            numpy.linalg.svd(m)
            numpy.linalg.norm(m, 2)
            numpy.linalg.eigh(m + m.T)
            m @ m
    return time.perf_counter() - start


def scaled(values: list[float], refs: list[float]) -> list[float]:
    """Each time at reference speed, by the reference piece timed after it;
    unchanged for a pass that timed no reference piece."""
    if not refs:
        return list(values)
    return [v * REF_S / r for v, r in zip(values, refs, strict=True)]


def run_pass(cli, calls: list[list[str]], work: Path, tag: str, reference: bool) -> dict:
    """Run one pass in a closed loop; reports are kept for the verdict check.

    `times` and `cpus` hold the wall and process CPU time of each CLI call,
    `refs` the reference piece timed right after it, if `reference` (never
    in traced passes, whose wrapped numpy would trace it). `wall` adds up
    the calls only.
    """
    outcomes, times, cpus, refs = [], [], [], []
    for i, argv in enumerate(calls):
        report = work / f"report-{tag}-{i:02d}.json"
        cpu0, start = time.process_time(), time.perf_counter()
        try:
            rc = run_cli(cli, argv + ["--report", str(report)])
        except Exception:   # a crash is a failed verdict, not a crashed benchmark
            traceback.print_exc(file=sys.stderr)
            rc = None
        times.append(time.perf_counter() - start)
        cpus.append(time.process_time() - cpu0)
        outcomes.append((rc, report))
        if reference:
            refs.append(reference_piece())
    return {"wall": sum(times), "times": times, "cpus": cpus, "refs": refs,
            "outcomes": outcomes}


def read_verdicts(report: Path) -> dict[str, dict[str, str]]:
    """digest prefix -> record name -> status letter (p, f or s)."""
    doc = json.loads(report.read_text())
    out: dict[str, dict[str, str]] = {}
    for r in doc["records"]:
        names = out.setdefault(r["instance_digest"][:16], {})
        if r["name"] in names:
            raise ValueError(f"duplicate record {r['name']} in {report}")
        names[r["name"]] = r["status"][0]
    return out


def count_failed(expected: dict, slot: int, outcomes: list) -> tuple[int, int]:
    """(instances attempted, instances whose verdicts differ) for one pass."""
    names, patterns = expected["record_names"], expected["patterns"]
    attempted = failed = 0
    for (rc, report), entries in zip(outcomes, expected["slots"][str(slot)], strict=True):
        want = {digest: patterns[k] for digest, k in entries}
        attempted += len(want)
        want_rc = 1 if any("f" in p for p in want.values()) else 0
        try:
            got = read_verdicts(report) if rc is not None else None
        except (OSError, ValueError, KeyError) as e:
            print(f"perfbench: unreadable report {report}: {e}", file=sys.stderr)
            got = None
        if rc != want_rc or got is None or set(got) != set(want):
            failed += len(want)
            continue
        for digest, pattern in want.items():
            statuses = got[digest]
            if sorted(statuses) != names or "".join(statuses[n] for n in names) != pattern:
                failed += 1
    return attempted, failed


def blas_info() -> dict:
    """BLAS build and effective thread count of numpy's and scipy's OpenBLAS."""
    import ctypes

    import numpy
    import scipy

    info: dict = {}
    for pkg in (numpy, scipy):
        entry: dict = {}
        try:
            blas = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
            entry["build"] = {k: blas.get(k) for k in ("name", "version",
                                                       "openblas configuration")}
        except (TypeError, KeyError):
            pass
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    entry["threads"] = fn()
                    break
        info[pkg.__name__] = entry
    return info


def machine_info() -> dict:
    import numpy
    import scipy

    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                   "GOTO_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "blas_thread_env": {k: os.environ[k] for k in thread_vars if k in os.environ},
    }


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer, window: slice) -> dict[str, float]:
    totals = tracer.layer_totals(window)
    names, layers = totals["names"], totals["layers"]
    out = {}
    for metric, (_unit, kind, key) in PER_LAYER.items():
        if kind == "self":
            out[metric] = layers.get(key, {}).get("self_s", 0.0)
        elif kind == "calls":
            out[metric] = names.get(key, {}).get("calls", 0)
        else:
            out[metric] = names.get(key, {}).get("total_s", 0.0)
    return out


def measure(cli, workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    build = WORKLOADS[workload]
    slot = seed_slot(seed)
    expected = json.loads((HERE / "expected" / f"{workload}.json").read_text())
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    cli_call = functools.partial(run_cli, cli)
    import_s, import_refs, build_s = [], [], []
    for _ in range(SETUP_REPS):
        import_refs.append(time_import(IMPORT_REF_MODULES))
        import_s.append(time_import("wcelab.cli"))
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        calls = build(slot, work, cli_call)
        build_s.append(time.perf_counter() - start)
    reference = workload in SCALED

    # Lazy imports and the BLAS thread pool start on the first call; one
    # untimed call keeps that out of the first pass.
    run_pass(cli, calls[:1], work, "w", reference)

    attempted = failed = 0
    untraced, traced, layer_runs = [], [], []
    tracer = Tracer()
    spans_window = None
    per_n: dict = {}
    # Start another round only if one as long as the last still fits.
    deadline = time.perf_counter() + seconds
    round_s = 0.0
    while not untraced or time.perf_counter() + round_s <= deadline:
        round_start = time.perf_counter()
        p = run_pass(cli, calls, work, f"u{len(untraced)}", reference)
        untraced.append(p)
        if trace:
            first = len(tracer.spans)
            with tracer.install():
                build(slot, work, cli_call)
                p_traced = run_pass(cli, calls, work, f"t{len(traced)}", False)
            traced.append(p_traced)
            window = slice(first, len(tracer.spans))
            layer_runs.append(layer_metrics(tracer, window))
            if spans_window is None:
                spans_window = window
                per_n = tracer.instance_ms_by_n(window)
        round_s = time.perf_counter() - round_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for p in untraced + traced:
        a, f = count_failed(expected, slot, p["outcomes"])
        attempted += a
        failed += f

    # Per call of the pass: the median of its times over the passes.
    call_s = list(map(statistics.median, zip(*(scaled(p["times"], p["refs"])
                                              for p in untraced))))
    call_cpu_s = list(map(statistics.median, zip(*(scaled(p["cpus"], p["refs"])
                                                  for p in untraced))))
    info = {
        "workload": workload, "seed": seed, "slot": slot, "trace": int(trace),
        "machine": machine_info(),
        "passes": len(untraced), "calls_per_pass": len(calls),
        "call_ms": [1000.0 * t for t in call_s],
        "call_samples_ms": [[round(1000.0 * t, 2) for t in scaled(p["times"], p["refs"])]
                            for p in untraced],
        "ref_s": REF_S, "calls_scaled": reference,
        "ref_median_s": (statistics.median(r for p in untraced for r in p["refs"])
                         if reference else None),
        "unscaled_setup_import_s": import_s, "setup_import_ref_s": import_refs,
        "setup_build_s": build_s,
        "unscaled_pass_wall_s": [p["wall"] for p in untraced],
        "unscaled_pass_cpu_s": [sum(p["cpus"]) for p in untraced],
    }
    if trace:
        certify_traced = statistics.median(p["wall"] for p in traced)
        certify_untraced = statistics.median(p["wall"] for p in untraced)
        metrics = {k: (statistics.median(r[k] for r in layer_runs), PER_LAYER[k][0])
                   for k in PER_LAYER}
        metrics["trace.overhead_s"] = (certify_traced - certify_untraced, "s")
        metrics["trace.certify_traced_s"] = (certify_traced, "s")
        metrics["trace.certify_untraced_s"] = (certify_untraced, "s")
        spans_path = work / "spans.jsonl"
        tracer.write(spans_path, {"workload": workload, "seed": seed,
                                  "instance_ms_by_n": per_n}, spans_window)
        info.update(traced_passes=len(traced), spans=spans_window.stop - spans_window.start,
                    spans_file=str(spans_path.relative_to(ROOT)), instance_ms_by_n=per_n)
    else:
        metrics = {
            "setup_s": (statistics.median(v * IMPORT_REF_S / r
                                          for v, r in zip(import_s, import_refs))
                        + statistics.median(build_s), "s"),
            "certify_s": (sum(call_s), "s"),
            "cpu_s": (sum(call_cpu_s), "s"),
            "verdict_ms_p50": (1000.0 * statistics.median(call_s), "ms"),
            "verdict_ms_p90": (1000.0 * percentile(call_s, 90), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return info, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = load_program()
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    info, result = measure(cli, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"perfbench": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
