import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wcelab
from wcelab import checks, cli
from wcelab.checks import CHECK_GROUPS, RECORDS
from wcelab.cli import main
from wcelab.generator import GeneratorConfig, gen_instance
from wcelab.instance_io import InstanceBundle, serialize_instance
from wcelab.measure import FiniteMeasureSpace
from wcelab.suite import run_suite
from wcelab.wce import WceInstance, build_operator

from conftest import coarsest_partition, constant, edge_file


def trivial_bundle():
    sp = FiniteMeasureSpace([1.0, 2.0, 0.5])
    one = constant(sp, 1.0)
    return InstanceBundle(WceInstance(coarsest_partition(sp), one, one))


class TestRunSuite:
    def test_empty_input(self):
        report = run_suite([])
        assert report.all_passed
        assert len(report.records) == 0

    def test_trivial_instance_passes_everything(self):
        report = run_suite([trivial_bundle()])
        assert report.failed == 0
        assert report.passed > 0

    def test_each_record_name_in_one_group(self):
        assert list(RECORDS) == list(CHECK_GROUPS)
        names = [name for group in RECORDS.values() for name in group]
        assert len(names) == len(set(names)) == 39

    def test_record_completeness(self):
        bundles = [gen_instance(GeneratorConfig(seed=s, n=6, block_count=2,
                                                with_point_map=True))
                   for s in (1, 2)]
        report = run_suite(bundles)
        expected = sum(len(RECORDS[g]) for g in CHECK_GROUPS) * len(bundles)
        assert len(report.records) == expected
        names = {r.name for r in report.records}
        for group_names in RECORDS.values():
            assert set(group_names) <= names

    def test_statements_come_from_the_table(self):
        bundle = gen_instance(GeneratorConfig(seed=1, n=6, block_count=2,
                                              with_point_map=True))
        statements = {name: st for group in RECORDS.values() for name, st in group.items()}
        for bundles in ([bundle], [trivial_bundle()]):
            records = run_suite(bundles).records
            assert {r.name: r.statement for r in records} == statements

    def test_order_independent(self):
        bundles = [gen_instance(GeneratorConfig(seed=s, n=5, block_count=2))
                   for s in (3, 4, 5)]
        fwd = run_suite(bundles).to_json()
        rev = run_suite(list(reversed(bundles))).to_json()
        assert fwd == rev

    def test_unknown_group_rejected(self):
        with pytest.raises(ValueError, match="unknown checks"):
            run_suite([trivial_bundle()], checks=["nonsense"])

    def test_failure_carries_instance(self):
        # An absurdly tight tolerance forces failures; failing records
        # must embed the offending instance document.
        bundle = gen_instance(GeneratorConfig(seed=8, n=6, block_count=2))
        report = run_suite([bundle], checks=["norm"], tol=1e-30)
        fails = [r for r in report.records if r.status == "fail"]
        assert fails and fails[0].instance_doc == serialize_instance(bundle)


class TestCli:
    def test_gen_verify_cycle(self, tmp_path, capsys):
        inst_file = tmp_path / "inst.json"
        assert main(["gen", "--seed", "5", "--n", "6", "--blocks", "2",
                     "--mode", "point_map", "-o", str(inst_file)]) == 0
        report_file = tmp_path / "report.json"
        code = main(["verify", str(inst_file), "--report", str(report_file)])
        assert code == 0
        doc = json.loads(report_file.read_text())
        assert doc["summary"]["failed"] == 0
        assert doc["summary"]["total"] == len(doc["records"])
        out = capsys.readouterr().out
        assert "summary:" in out

    def test_parser_is_built_once_and_keeps_no_mode(self, tmp_path):
        # The parser is built once per process; a --mode given to one call
        # must not reach the next through the shared `append` default.
        assert cli._build_parser() is cli._build_parser()
        modes = [cli._build_parser().parse_args(["gen", "--seed", "1", *extra]).mode
                 for extra in (["--mode", "zero_blocks"], [], ["--mode", "constant_u"])]
        assert modes == [["zero_blocks"], [], ["constant_u"]]
        gen = ["gen", "--seed", "5", "--n", "6", "--blocks", "3"]
        moded, plain, fresh = (tmp_path / f"{name}.json" for name in ("moded", "plain", "fresh"))
        assert main(gen + ["--mode", "zero_blocks", "-o", str(moded)]) == 0
        assert main(gen + ["-o", str(plain)]) == 0
        src = str(Path(wcelab.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-m", "wcelab.cli", *gen, "-o", str(fresh)],
                       env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
        assert plain.read_text() == fresh.read_text() != moded.read_text()

    def test_verify_selected_checks(self, tmp_path):
        inst_file = tmp_path / "inst.json"
        main(["gen", "--seed", "5", "--n", "6", "--blocks", "2",
              "-o", str(inst_file)])
        report_file = tmp_path / "report.json"
        assert main(["verify", str(inst_file), "--checks", "norm,polar",
                     "--report", str(report_file)]) == 0
        doc = json.loads(report_file.read_text())
        names = {r["name"] for r in doc["records"]}
        assert names == set(RECORDS["norm"]) | set(RECORDS["polar"])

    def test_verify_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        # Nesting deeper than the decoder's recursion limit is invalid JSON
        # too: an error line, never a traceback.
        for text in ("{not json", "[" * 100000 + "]" * 100000):
            bad.write_text(text)
            assert main(["verify", str(bad)]) == 2
            assert capsys.readouterr().err.startswith(f"error: {bad}: invalid JSON: ")

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("field", ["u", "w"])
    def test_verify_nonfinite_symbol_exits_2(self, tmp_path, capsys, field, token):
        doc = {"weights": [1.0, 2.0], "partition": [[0, 1]],
               "u": [[1.0, 0.0], [2.0, 0.0]], "w": [[1.0, 0.0], [1.0, 0.0]]}
        doc[field][1] = [0.0, 1.0]
        text = json.dumps(doc).replace("[0.0, 1.0]", f"[0.0, {token}]")
        bad = tmp_path / "nonfinite.json"
        bad.write_text(text)
        assert main(["verify", str(bad)]) == 2
        assert f"field '{field}' entry 1 is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["weights", "u", "w"])
    def test_verify_oversized_integer_exits_2(self, tmp_path, capsys, field):
        doc = {"weights": [1.0, 2.0], "partition": [[0, 1]],
               "u": [[1.0, 0.0], [2.0, 0.0]], "w": [[1.0, 0.0], [1.0, 0.0]]}
        doc[field][1] = 10**400 if field == "weights" else [10**400, 0.0]
        bad = tmp_path / "oversized.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", str(bad)]) == 2
        assert f"field '{field}' entry 1 is too large for a float" in capsys.readouterr().err

    def test_verify_integer_past_digit_limit_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "digits.json"
        bad.write_text('{"weights": [1.0, ' + "1" * 5000 + '], "partition": [[0, 1]], '
                       '"u": [[1, 0], [2, 0]], "w": [[1, 0], [1, 0]]}')
        assert main(["verify", str(bad)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_verify_overflowing_instance_fails_its_groups(self, tmp_path, monkeypatch):
        # A failed build of T is not cached: each of the six groups that
        # needs T tries it and raises the same error. The edge table pins
        # the records this file gives.
        builds = []

        def counting_build(inst):
            builds.append(inst)
            return build_operator(inst)

        monkeypatch.setattr(checks, "build_operator", counting_build)
        assert main(["verify", str(edge_file(tmp_path, "operator-inf"))]) == 1
        assert len(builds) == 6

    def test_verify_nonfinite_block_mean_fails_in_time(self, tmp_path):
        # A NaN block mean joined no eigenvalue group, so the grouping loop
        # never ended. The command runs in a subprocess with a timeout, so a
        # regression fails here instead of hanging the suite; the edge
        # table pins the records this file gives.
        src = str(Path(wcelab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run(
            [sys.executable, "-m", "wcelab.cli", "verify", str(edge_file(tmp_path, "nan-mean"))],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1, proc.stderr

    def test_repeated_check_group_runs_once(self, tmp_path, capsys):
        inst_file = tmp_path / "inst.json"
        main(["gen", "--seed", "5", "--n", "6", "--blocks", "2", "-o", str(inst_file)])
        capsys.readouterr()
        assert main(["verify", str(inst_file), "--checks", "norm,norm,vanishing"]) == 0
        out = capsys.readouterr().out
        assert out.count("norm_formula") == 1
        assert "summary: 3 checks" in out

    def test_repeated_instance_is_certified_once(self, tmp_path, capsys):
        inst_file = tmp_path / "inst.json"
        main(["gen", "--seed", "5", "--n", "6", "--blocks", "2", "-o", str(inst_file)])
        capsys.readouterr()
        assert main(["verify", str(inst_file), str(inst_file), "--checks", "norm"]) == 0
        out = capsys.readouterr().out
        assert out.count("norm_formula") == 1
        assert "summary: 1 checks" in out
        bundle = trivial_bundle()
        report = run_suite([bundle, trivial_bundle(), bundle], checks=["norm", "norm"])
        assert [r.name for r in report.records] == ["norm_formula"]

    def test_verify_non_utf8_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{")
        assert main(["verify", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {bad}: ")

    @pytest.mark.parametrize("target", ["missing_dir", "directory"])
    def test_suite_unwritable_report_exits_2(self, tmp_path, capsys, target):
        path = tmp_path / "missing" / "r.json" if target == "missing_dir" else tmp_path
        assert main(["suite", "--seeds", "1..2", "--report", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {path}: ")
        # The report path is tried before the run, so nothing ran.
        assert captured.out == ""

    def test_closed_stdout_keeps_the_report(self, tmp_path):
        # Standard output is a pipe whose read end is already closed, as
        # when `wcelab suite ... | head -1` has printed its line: the JSON
        # report is written in full before the text, the exit is 2 (an
        # output that cannot be written), and no traceback is printed.
        report_file = tmp_path / "r.json"
        src = str(Path(wcelab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "wcelab.cli", "suite", "--seeds", "1..30", "--full",
                 "--report", str(report_file)],
                env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        records = json.loads(report_file.read_text())["records"]
        assert len(records) == 30 * sum(map(len, RECORDS.values()))

    def test_verify_unwritable_report_exits_before_the_run(self, tmp_path, capsys):
        inst_file = tmp_path / "inst.json"
        main(["gen", "--seed", "5", "-o", str(inst_file)])
        path = tmp_path / "missing" / "r.json"
        assert main(["verify", str(inst_file), "--report", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {path}: ")
        assert captured.out == ""

    def test_gen_unwritable_output_exits_2(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.json"
        assert main(["gen", "--seed", "1", "-o", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {path}: ")
        assert captured.out == ""

    def test_verify_unknown_check_exits_2(self, tmp_path, capsys):
        inst_file = tmp_path / "inst.json"
        main(["gen", "--seed", "5", "-o", str(inst_file)])
        assert main(["verify", str(inst_file), "--checks", "bogus"]) == 2

    def test_gen_bad_config_exits_2(self, capsys):
        assert main(["gen", "--seed", "1", "--n", "1"]) == 2

    def test_gen_negative_seed_exits_2(self, capsys):
        assert main(["gen", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed=-1 must be >= 0\n"
        assert captured.out == ""

    def test_tight_tolerance_exits_1(self, tmp_path):
        inst_file = tmp_path / "inst.json"
        main(["gen", "--seed", "6", "--n", "8", "--blocks", "3",
              "-o", str(inst_file)])
        assert main(["verify", str(inst_file), "--checks", "norm,func_calc",
                     "--tol", "1e-30"]) == 1

    def test_suite_deterministic_reports(self, tmp_path):
        rep_a = tmp_path / "a.json"
        rep_b = tmp_path / "b.json"
        assert main(["suite", "--seeds", "1..10", "--full",
                     "--report", str(rep_a)]) == 0
        assert main(["suite", "--seeds", "1..10", "--full",
                     "--report", str(rep_b)]) == 0
        assert rep_a.read_bytes() == rep_b.read_bytes()

    def test_suite_bad_range_exits_2(self, capsys):
        for seeds in ("5", "1..", "..5", "a..b", "1..2..3", "1..1e3"):
            assert main(["suite", f"--seeds={seeds}"]) == 2
            assert capsys.readouterr().err == \
                f"error: seed range must look like A..B, got '{seeds}'\n"

    @pytest.mark.parametrize("seeds", ["-3..-1", "-1..2"])
    def test_suite_negative_seed_exits_2(self, capsys, seeds):
        assert main(["suite", f"--seeds={seeds}"]) == 2
        assert capsys.readouterr().err == f"error: seeds must be >= 0, got '{seeds}'\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "-1e-300"])
    @pytest.mark.parametrize("flag", ["--tol", "--support-tol"])
    @pytest.mark.parametrize("command", ["suite", "verify"])
    def test_malformed_tolerance_exits_2(self, tmp_path, capsys, command, flag, value):
        # --tol is the one tolerance; --support-tol is no longer an option,
        # so it is rejected whatever its value.
        message = {"--tol": "argument --tol: must be a finite number >= 0, got '{}'",
                   "--support-tol": "unrecognized arguments: --support-tol={}"}[flag]
        inst_file = tmp_path / "inst.json"
        main(["gen", "--seed", "5", "-o", str(inst_file)])
        args = ["suite", "--seeds", "1..2"] if command == "suite" else ["verify", str(inst_file)]
        with pytest.raises(SystemExit) as exit_info:
            main(args + [f"{flag}={value}"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert message.format(value) in err
        assert "Traceback" not in err

    def test_negative_tolerance_as_separate_word_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["suite", "--seeds", "1..2", "--tol", "-1"])
        assert exit_info.value.code == 2
        assert "argument --tol: must be a finite number >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--tol"])
    def test_zero_tolerance_is_accepted(self, capsys, flag):
        assert main(["suite", "--seeds", "1..2", flag, "0"]) in (0, 1)


def thread_counts(controls):
    return [get() for get, _ in controls]


@pytest.fixture
def blas_controls(monkeypatch):
    """The bundled OpenBLAS thread controls, with no user thread variable
    set; the counts they had are put back afterwards."""
    controls = cli._openblas_thread_controls()
    if not controls:
        pytest.skip("no bundled OpenBLAS with thread-count symbols")
    for var in cli._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    before = thread_counts(controls)
    yield controls
    for (_, put), count in zip(controls, before):
        put(count)


def counts_inside_command(monkeypatch, controls):
    """Thread counts seen while `wcelab suite` runs its checks."""
    seen = []

    def spy(*args, **kwargs):
        seen.append(thread_counts(controls))
        return run_suite(*args, **kwargs)

    monkeypatch.setattr(cli, "run_suite", spy)
    assert main(["suite", "--seeds", "1..2"]) == 0
    assert len(seen) == 1
    return seen[0]


class TestBlasThreads:
    def test_command_runs_on_one_thread(self, blas_controls, monkeypatch, capsys):
        assert counts_inside_command(monkeypatch, blas_controls) == [1] * len(blas_controls)

    def test_previous_counts_come_back(self, blas_controls, capsys):
        count = min(2, os.cpu_count() or 1)
        for _, put in blas_controls:
            put(count)
        assert main(["suite", "--seeds", "1..2"]) == 0
        assert thread_counts(blas_controls) == [count] * len(blas_controls)

    @pytest.mark.parametrize("var", cli._BLAS_THREAD_VARS)
    def test_user_thread_variable_is_left_alone(self, blas_controls, monkeypatch,
                                                capsys, var):
        if (os.cpu_count() or 1) < 2:
            pytest.skip("one core: the user's count and the command's are both 1")
        for _, put in blas_controls:
            put(2)
        monkeypatch.setenv(var, "2")
        assert counts_inside_command(monkeypatch, blas_controls) == [2] * len(blas_controls)

    def test_no_library_found_is_a_noop(self, blas_controls, monkeypatch, capsys):
        before = thread_counts(blas_controls)
        monkeypatch.setattr(cli, "_openblas_thread_controls", lambda: ())
        assert counts_inside_command(monkeypatch, blas_controls) == before
        assert thread_counts(blas_controls) == before


def test_a_run_leaves_scipy_unimported():
    # The oracles need only numpy's eigh and SVD, and the thread hold only
    # numpy's OpenBLAS. scipy is no dependency and would double start-up,
    # so a fresh interpreter must finish a full suite without loading it.
    src = str(Path(wcelab.__file__).resolve().parents[1])
    script = "\n".join((
        "import contextlib, io, json, sys",
        "sys.path.insert(0, sys.argv[1])",
        "import wcelab.cli",
        "imported = 'scipy' in sys.modules",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    status = wcelab.cli.main(['suite', '--seeds', '1..3', '--full'])",
        "print(json.dumps([imported, status, 'scipy' in sys.modules]))",
    ))
    proc = subprocess.run([sys.executable, "-c", script, src],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, 0, False]
