"""Every function and method defined in src/wcelab is run by some wcelab
command, so the package holds no code that only the unit tests reach.

The commands run in-process under sys.setprofile: gen in every mode;
verify on a generated file and on every file of the edge table
(edge_instances.json: the float limits, a file with labels and a point
map, malformed files); and the full seeded suite with a report. A
function counts as run when a frame of its code is entered.
"""

import inspect
import sys
import types
from pathlib import Path

from wcelab import cli

from conftest import EDGE_INSTANCES, edge_file

SRC = Path(cli.__file__).resolve().parent

MODES = ("measurable_u", "partial_isometry", "zero_blocks", "constant_u", "point_map")


def _functions(code):
    """The code objects of every def nested in code: functions, methods and
    closures; class bodies, lambdas and comprehensions are not defs."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                yield const
            yield from _functions(const)


def defined_functions():
    """(file name, first line) -> name of every def in the package."""
    return {(path.name, code.co_firstlineno): code.co_name
            for path in sorted(SRC.glob("*.py"))
            for code in _functions(compile(path.read_text(), str(path), "exec"))}


def command_lines(tmp_path):
    generated = tmp_path / "generated.json"
    argvs = [["gen", "--seed", "3", "--n", "6", "--mode", mode] for mode in MODES]
    argvs[0] += ["-o", str(generated)]
    argvs.append(["verify", str(generated)])
    argvs += [["verify", str(edge_file(tmp_path, name))] for name in EDGE_INSTANCES]
    argvs.append(["suite", "--seeds", "1..20", "--full", "--tol", "1e-8",
                  "--report", str(tmp_path / "report.json")])
    return argvs


def test_every_function_in_src_is_run_by_a_command(tmp_path, capsys, monkeypatch):
    # The parser and the BLAS thread lookup are built once per process, and
    # the lookup runs not at all under a user's thread setting: clear the
    # caches and the variables so this trace sees both.
    for var in cli._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    cli._openblas_thread_controls.cache_clear()
    cli._build_parser.cache_clear()
    argvs = command_lines(tmp_path)
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in argvs]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    entered = {(Path(file).name, line) for file, line in entered
               if Path(file).resolve().parent == SRC}
    # gen and the generated file pass, each edge file exits as the table
    # says, and the suite passes.
    assert codes == [0] * 6 + [entry["exit"] for entry in EDGE_INSTANCES.values()] + [0]
    unreached = [f"{file}:{line} {name}"
                 for (file, line), name in sorted(defined_functions().items())
                 if (file, line) not in entered]
    assert not unreached, "run by no command: " + ", ".join(unreached)
