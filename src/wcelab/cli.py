"""Command line surface: instance generation, file verification, and the
seeded acceptance suite.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
parse error, or an input or output that cannot be read or written: a file,
or standard output closed before the text report was printed, in which
case the JSON report is still written in full.

While a command runs, numpy's bundled OpenBLAS is held at one thread:
every matrix here is 64 x 64 or smaller, and on those a second BLAS thread
only spins. A user who sets OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
OMP_NUM_THREADS keeps their own setting.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import math
import os
import sys
import time
from pathlib import Path
from typing import Callable, Iterator

import numpy

from .checks import BASIC_GROUPS, CHECK_GROUPS, DEFAULT_TOL, FULL_GROUPS
from .errors import ConfigInvalidError, ParseError
from .generator import GeneratorConfig, gen_instance, rotation_config
from .instance_io import parse_instance, serialize_instance
from .suite import resolve_groups, run_suite

_MODES = ("measurable_u", "partial_isometry", "zero_blocks", "constant_u",
          "point_map")

# Environment variables through which a user picks the OpenBLAS thread count.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# Thread-count symbols of the prefixed OpenBLAS builds that numpy 2.x
# bundles (64-bit and 32-bit integer interface) and of a plain OpenBLAS,
# "{}" being "get" or "set".
_OPENBLAS_THREAD_SYMBOLS = ("scipy_openblas_{}_num_threads64_",
                            "scipy_openblas_{}_num_threads",
                            "openblas_{}_num_threads64_", "openblas_{}_num_threads")


def _tolerance(text: str) -> float:
    """A --tol value: a finite number, zero or more.
    argparse reports a rejected value with the flag's name and exit 2."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value) or value < 0.0:
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wcelab",
        description="Verify closed-form decompositions of weighted "
                    "conditional-expectation operators against dense "
                    "linear-algebra oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a seeded instance file")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--n", type=int, default=8, help="point count (2..64)")
    gen.add_argument("--blocks", type=int, default=3, help="partition block count")
    gen.add_argument("--mode", action="append", choices=_MODES, default=[],
                     help="special generation mode; repeatable")
    gen.add_argument("-o", "--output", type=Path, default=None,
                     help="output file (default: stdout)")

    verify = sub.add_parser("verify", help="run checks over instance files")
    verify.add_argument("files", nargs="+", type=Path)
    verify.add_argument("--checks", default=None,
                        help="comma-separated check groups "
                             f"(default: all; known: {','.join(CHECK_GROUPS)})")
    verify.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                        help="relative operator comparison tolerance")
    verify.add_argument("--report", type=Path, default=None,
                        help="write the machine-readable JSON report here")

    suite = sub.add_parser("suite", help="run the seeded verification suite")
    suite.add_argument("--seeds", default="1..200",
                       help="inclusive seed range A..B (default 1..200)")
    suite.add_argument("--full", action="store_true",
                       help="include the spectral checks and point maps")
    suite.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    suite.add_argument("--report", type=Path, default=None)
    return parser


def _parse_seed_range(text: str) -> range:
    sep = ".." if ".." in text else None
    if sep is None:
        raise ValueError(f"seed range must look like A..B, got {text!r}")
    lo_text, hi_text = text.split(sep, 1)
    lo, hi = int(lo_text), int(hi_text)
    if lo < 0:
        raise ValueError(f"seeds must be >= 0, got {text!r}")
    if hi < lo:
        raise ValueError(f"empty seed range {text!r}")
    return range(lo, hi + 1)


def _write(path: Path, text: str) -> bool:
    """Write text to path; on failure print an error naming the path."""
    try:
        path.write_text(text)
    except OSError as e:
        print(f"error: cannot write {path}: {e}", file=sys.stderr)
        return False
    return True


def _certify(bundles, groups, tol: float, report_path: Path | None) -> int:
    """Run the checks, write the JSON report and print the text report.

    The report path is written, empty, before the run, so a path that
    cannot be written exits 2 before any check runs or prints. The JSON
    report is written before the text is printed, so a closed standard
    output does not lose it.
    """
    if report_path is not None and not _write(report_path, ""):
        return 2
    start = time.perf_counter()
    report = run_suite(bundles, groups, tol)
    text = report.render_text(time.perf_counter() - start)
    if report_path is not None and not _write(report_path, report.to_json()):
        return 2
    print(text)
    return 0 if report.all_passed else 1


def _cmd_gen(args: argparse.Namespace) -> int:
    cfg = GeneratorConfig(
        seed=args.seed,
        n=args.n,
        block_count=args.blocks,
        measurable_u="measurable_u" in args.mode,
        partial_isometry="partial_isometry" in args.mode,
        zero_blocks="zero_blocks" in args.mode,
        constant_u="constant_u" in args.mode,
        with_point_map="point_map" in args.mode,
    )
    try:
        doc = serialize_instance(gen_instance(cfg))
    except ConfigInvalidError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.output is None:
        print(doc)
    elif not _write(args.output, doc + "\n"):
        return 2
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    bundles = []
    for path in args.files:
        try:
            bundles.append(parse_instance(path.read_text()))
        except (OSError, UnicodeDecodeError) as e:
            print(f"error: cannot read {path}: {e}", file=sys.stderr)
            return 2
        except ParseError as e:
            print(f"error: {path}: {e}", file=sys.stderr)
            return 2
    try:
        groups = resolve_groups(None if args.checks is None else args.checks.split(","))
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return _certify(bundles, groups, args.tol, args.report)


def _cmd_suite(args: argparse.Namespace) -> int:
    try:
        seeds = _parse_seed_range(args.seeds)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    bundles = [gen_instance(rotation_config(s, with_point_map=args.full))
               for s in seeds]
    groups = FULL_GROUPS if args.full else BASIC_GROUPS
    return _certify(bundles, groups, args.tol, args.report)


@functools.cache
def _openblas_thread_controls() -> tuple[tuple[Callable[[], int],
                                               Callable[[int], None]], ...]:
    """(get, set) thread-count functions of the OpenBLAS bundled with numpy
    (`numpy.libs/*openblas*`); empty for any other BLAS."""
    controls = []
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in _OPENBLAS_THREAD_SYMBOLS:
            get = getattr(handle, symbol.format("get"), None)
            put = getattr(handle, symbol.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                controls.append((get, put))
                break
    return tuple(controls)


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Hold numpy's bundled OpenBLAS at one thread, then restore the count
    it had; a no-op when the user set a thread variable."""
    if any(var in os.environ for var in _BLAS_THREAD_VARS):
        yield
        return
    controls = _openblas_thread_controls()
    previous = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(controls, previous):
            put(count)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"gen": _cmd_gen, "verify": _cmd_verify, "suite": _cmd_suite}
    with _one_blas_thread():
        try:
            code = handlers[args.command](args)
            # Flushed here, so that a closed standard output raises inside
            # this block and not at interpreter exit.
            sys.stdout.flush()
        except BrokenPipeError:
            # Python flushes standard output again at exit: point it at
            # devnull so that flush does not raise too.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
