import json
import os
import subprocess
import sys
import warnings
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

from conftest import coarsest_partition, constant


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
        bad.write_text("{not json")
        assert main(["verify", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

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

    def test_verify_overflowing_instance_fails_its_groups(self, tmp_path, capfd,
                                                           monkeypatch):
        # Valid input whose operator entries overflow: the groups that
        # build the operator fail on this instance, the rest still run.
        # A failed build is not cached: each of the six groups that needs T
        # tries it and raises the same error. The failure reaches the user
        # as records, not as numpy overflow warnings.
        builds = []

        def counting_build(inst):
            builds.append(inst)
            return build_operator(inst)

        monkeypatch.setattr(checks, "build_operator", counting_build)
        big = [[1e200, 0.0], [2e200, 0.0], [-1e200, 1e200], [3e200, 0.0]]
        doc = {"weights": [1.0, 2.0, 0.5, 1.5], "partition": [[0, 1], [2, 3]],
               "u": big, "w": big}
        inst_file = tmp_path / "overflow.json"
        inst_file.write_text(json.dumps(doc))
        report_file = tmp_path / "report.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["verify", str(inst_file), "--report", str(report_file)]) == 1
        assert [str(w.message) for w in caught] == []
        assert len(builds) == 6
        records = json.loads(report_file.read_text())["records"]
        status = {r["name"]: r["status"] for r in records}
        assert set(status) == {n for names in RECORDS.values() for n in names}
        assert all(status[n] == "pass" for n in RECORDS["condexp"])
        broken = [r for r in records if r["residual"] is None and r["status"] == "fail"]
        assert {r["name"] for r in broken} >= set(RECORDS["norm"])
        assert all("raised ValueError: operator entries must be finite" in r["reason"]
                   for r in broken)
        out, err = capfd.readouterr()
        assert "operator entries must be finite" in out
        assert err == ""

    def test_verify_nonfinite_block_mean_fails_in_time(self, tmp_path):
        # The block integral of u overflows to inf - inf, a NaN block mean.
        # It joined no eigenvalue group, so the grouping loop never ended;
        # now the groups that need it become failing records. The command
        # runs in a subprocess with a timeout, so a regression fails here
        # instead of hanging the suite.
        doc = {"weights": [1e10, 1e10], "partition": [[0, 1]],
               "u": [[1e300, 0], [-1e300, 0]], "w": [[1, 0], [1, 0]]}
        inst_file = tmp_path / "nan_mean.json"
        inst_file.write_text(json.dumps(doc))
        report_file = tmp_path / "report.json"
        src = str(Path(wcelab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run(
            [sys.executable, "-m", "wcelab.cli", "verify", str(inst_file),
             "--report", str(report_file)],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1, proc.stderr
        records = {r["name"]: r for r in json.loads(report_file.read_text())["records"]}
        assert records["spectrum"]["status"] == "fail"
        assert records["spectrum"]["reason"] == (
            "spectrum raised ValueError: a block mean of u is not finite")
        # u is +-1e300 on one block: taken over its peak, it is plainly not
        # blockwise constant, so the decomposition is skipped.
        assert all(records[n]["status"] == "skip"
                   for n in RECORDS["spectral_decomp"])

    def test_verify_overflowing_block_integral_breaks_down_quietly(self, tmp_path, capfd):
        # u is constant on its one block, but its block integral overflows:
        # the eigenvalue grouping has nothing finite to decide on, so the
        # spectral groups fail as breakdowns, not as five skips, and nothing
        # goes to stderr. E(|u|^2) = 1e600 is beyond the float range too,
        # but its root is not: the norm and both vanishing records pass.
        doc = {"weights": [1e10, 1e10], "partition": [[0, 1]],
               "u": [[1e300, 0], [1e300, 0]], "w": [[1, 0], [1, 0]]}
        inst_file = tmp_path / "inf_mean.json"
        inst_file.write_text(json.dumps(doc))
        report_file = tmp_path / "report.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["verify", str(inst_file), "--report", str(report_file)]) == 1
        assert [str(w.message) for w in caught] == []
        _, err = capfd.readouterr()
        assert err == ""
        records = {r["name"]: r for r in json.loads(report_file.read_text())["records"]}
        for name in ("spectrum", *RECORDS["spectral_decomp"]):
            assert records[name]["status"] == "fail"
            group = "spectrum" if name == "spectrum" else "spectral_decomp"
            assert records[name]["reason"] == (
                f"{group} raised ValueError: a block mean of u is not finite")
        for name in ("norm_formula", *RECORDS["vanishing"]):
            assert records[name]["status"] == "pass", name

    @pytest.mark.parametrize("doc, extra", [
        # E(|w|^2) = 5e399 on the one block; T's entries are 1e200, so
        # T T* and the Gram spectra overflow.
        ({"weights": [1, 1], "partition": [[0, 1]],
          "u": [[1, 0], [2, 0]], "w": [[1e200, 0], [1, 0]]},
         ("func_calc", "partial_isometry")),
    ])
    def test_verify_overflowing_w_aggregate_breaks_down_quietly(
            self, tmp_path, capfd, doc, extra):
        # The closed forms read only sqrt(E(|w|^2)) = 7.1e199, so they pass;
        # the groups whose oracle products overflow fail as breakdowns, and
        # numpy prints no warning.
        inst_file = tmp_path / "w_overflow.json"
        inst_file.write_text(json.dumps(doc))
        report_file = tmp_path / "report.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["verify", str(inst_file), "--report", str(report_file)]) == 1
        assert [str(m.message) for m in caught] == []
        _, err = capfd.readouterr()
        assert err == ""
        records = {r["name"]: r for r in json.loads(report_file.read_text())["records"]}
        for group in extra:
            for name in RECORDS[group]:
                assert records[name]["status"] == "fail"
                assert records[name]["residual"] is None
                assert records[name]["reason"] == (
                    f"{group} raised ValueError: operator entries must be finite")
        for group in ("norm", "vanishing", "polar", "aluthge"):
            for name in RECORDS[group]:
                assert records[name]["status"] == "pass", name

    def test_verify_finite_operator_with_overflowing_gram_breaks_down_quietly(
            self, tmp_path, capfd):
        # T's entries are about 1e160, finite, but its squared singular
        # values, the spectra of T* T and T T*, overflow: the calculus has
        # no eigensystem to certify and breaks down with nothing on stderr.
        # The closed forms read sigma, about 1e160, and pass.
        doc = {"weights": [1, 2, 0.5, 1.5], "partition": [[0, 1], [2, 3]],
               "u": [[1e160, 0], [2e160, 0], [-1e160, 1e160], [3e160, 0]],
               "w": [[1, 0], [2, 0], [1, 1], [3, 0]]}
        inst_file = tmp_path / "gram_overflow.json"
        inst_file.write_text(json.dumps(doc))
        report_file = tmp_path / "report.json"
        assert main(["verify", str(inst_file), "--report", str(report_file)]) == 1
        _, err = capfd.readouterr()
        assert err == ""
        finite = "ValueError: operator entries must be finite"
        expected = {
            "condexp": ("pass", ""),
            "norm": ("pass", ""),
            "vanishing": ("pass", ""),
            "partial_isometry": ("fail", f"partial_isometry raised {finite}"),
            "func_calc": ("fail", f"func_calc raised {finite}"),
            "polar": ("pass", ""),
            "aluthge": ("pass", ""),
            "normality": ("fail", f"normality raised {finite}"),
            "spectrum": ("pass", ""),
            "spectral_decomp": ("skip", "u is not blockwise constant, E M_u is not normal"),
            "measure_axioms": ("skip", "no point map on this instance"),
            "reconstruction": ("skip", "no point map on this instance"),
        }
        records = json.loads(report_file.read_text())["records"]
        assert {(r["name"], r["status"], r.get("reason", "")) for r in records} == {
            (name, *expected[group])
            for group, names in RECORDS.items() for name in names}

    @pytest.mark.parametrize("doc", [
        # On the second block E(|u|^2) = 1e-310 and E(|w|^2) = 1e300: their
        # quotient overflows, but sigma = 1e-5 and the unit symbols do not.
        pytest.param({"weights": [1, 1, 1, 1], "partition": [[0, 1], [2, 3]],
                      "u": [[1, 0], [1, 0], [1e-155, 0], [1e-155, 0]],
                      "w": [[1, 0], [1, 0], [1e150, 0], [1e150, 0]]}, id="crossed"),
        # E(|w|^2) is inf where u vanishes, so T, T* T and T T* stay finite.
        pytest.param({"weights": [1, 1, 1, 1], "partition": [[0, 1], [2, 3]],
                      "u": [[1, 0], [2, 0], [0, 0], [0, 0]],
                      "w": [[1, 0], [1, 0], [1e200, 0], [1, 0]]}, id="w-two-blocks"),
        # |u|^2 underflows to 0, so E(|u|^2) once cut both blocks away.
        pytest.param({"weights": [1, 1, 1, 1], "partition": [[0, 1], [2, 3]],
                      "u": [[1e-200, 0], [1e-200, 0], [2e-200, 0], [1e-200, 0]],
                      "w": [[1, 0], [1, 0], [1, 0], [1, 0]]}, id="u-underflow"),
    ])
    def test_verify_files_once_broken_by_their_aggregates_pass_quietly(
            self, tmp_path, capfd, doc):
        # An aggregate beyond the float range once broke these files down
        # or cut their kept blocks; the closed forms read only the block
        # root mean squares, so every record passes or skips, and nothing
        # goes to stderr.
        inst_file = tmp_path / "aggregates.json"
        inst_file.write_text(json.dumps(doc))
        report_file = tmp_path / "report.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["verify", str(inst_file), "--report", str(report_file)]) == 0
        assert [str(m.message) for m in caught] == []
        _, err = capfd.readouterr()
        assert err == ""
        records = json.loads(report_file.read_text())["records"]
        assert {r["name"]: r["status"] for r in records}["vanishing_meets"] == "pass"

    def test_verify_overflowing_abs_u_breaks_down_quietly(self, tmp_path, capfd):
        # |u| and its root mean square overflow at the first point, so the
        # normality of E M_u cannot be decided: the decomposition group
        # breaks down rather than pass on NaN spreads. LAPACK gives E M_u
        # NaN eigenvalues without an error, and the spectrum breaks down on
        # them rather than fail on a NaN residual. numpy prints no warning.
        doc = {"weights": [1, 1], "partition": [[0], [1]],
               "u": [[1.5e308, 1.5e308], [1, 0]], "w": [[1, 0], [1, 0]]}
        inst_file = tmp_path / "abs_u_overflow.json"
        inst_file.write_text(json.dumps(doc))
        report_file = tmp_path / "report.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["verify", str(inst_file), "--report", str(report_file)]) == 1
        assert [str(m.message) for m in caught] == []
        _, err = capfd.readouterr()
        assert err == ""
        records = {r["name"]: r for r in json.loads(report_file.read_text())["records"]}
        for name in RECORDS["spectral_decomp"]:
            assert records[name]["status"] == "fail"
            assert records[name]["residual"] is None
            assert records[name]["reason"] == (
                "spectral_decomp raised ValueError: E(|u|^2) is not finite")
        assert records["spectrum"]["residual"] is None
        assert records["spectrum"]["reason"] == (
            "spectrum raised ValueError: eigenvalues of E M_u are not finite")

    def test_verify_normality_scale_beyond_the_float_range_breaks_down(
            self, tmp_path, capfd):
        # u is constant, so E M_u is normal and its commutator is 0, but
        # ||E M_u||^2 = 4e308 is beyond the float range: normality has no
        # scale to read a residual against and breaks down, where it once
        # passed at residual 0 / inf after a numpy overflow warning.
        big = [[2e154, 0]] * 4
        doc = {"weights": [1, 1, 1, 1], "partition": [[0, 1, 2, 3]], "u": big, "w": big}
        inst_file = tmp_path / "normality_scale.json"
        inst_file.write_text(json.dumps(doc))
        report_file = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", str(inst_file), "--report", str(report_file)]) == 1
        _, err = capfd.readouterr()
        assert err == ""
        records = {r["name"]: r for r in json.loads(report_file.read_text())["records"]}
        assert records["normality"]["status"] == "fail"
        assert records["normality"]["residual"] is None
        assert records["normality"]["reason"] == (
            "normality raised ValueError: 1 + ||E M_u||^2 is not finite")

    def test_verify_vanishing_norms_beyond_the_float_range_break_down(
            self, tmp_path, capfd):
        # ||T|| = 1.7e308 is finite, but max|g| ||T|| and ||M_g T|| overflow:
        # vanishing_meets has no ratio to read and breaks down, where it
        # once failed on inf / inf = NaN after a numpy warning.
        # vanishing_disjoint still passes.
        big = [[1.7e308, 0]] * 2
        doc = {"weights": [1, 1], "partition": [[0, 1]], "u": [[1, 0]] * 2, "w": big}
        inst_file = tmp_path / "vanishing_overflow.json"
        inst_file.write_text(json.dumps(doc))
        report_file = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", str(inst_file), "--report", str(report_file)]) == 1
        _, err = capfd.readouterr()
        assert err == ""
        records = {r["name"]: r for r in json.loads(report_file.read_text())["records"]}
        assert records["vanishing_disjoint"]["status"] == "pass"
        assert records["vanishing_meets"]["status"] == "fail"
        assert records["vanishing_meets"]["residual"] is None
        assert records["vanishing_meets"]["reason"] == (
            "||M_g T|| / (max|g| ||T||) is not finite: the norms overflow")

    def test_verify_opposite_block_means_near_the_float_limit_warn_nothing(
            self, tmp_path, capfd):
        # Block means 1e308 and -1e308: their distance overflows to inf,
        # which joins no eigenvalue group, so the two means stay two
        # eigenvalues and the spectral groups pass, with nothing on stderr.
        doc = {"weights": [1, 1], "partition": [[0], [1]],
               "u": [[1e308, 0], [-1e308, 0]], "w": [[1, 0], [1, 0]]}
        inst_file = tmp_path / "opposite_means.json"
        inst_file.write_text(json.dumps(doc))
        report_file = tmp_path / "report.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["verify", str(inst_file), "--report", str(report_file)]) == 1
        assert [str(m.message) for m in caught] == []
        _, err = capfd.readouterr()
        assert err == ""
        records = {r["name"]: r for r in json.loads(report_file.read_text())["records"]}
        for name in ("spectrum", *RECORDS["spectral_decomp"]):
            assert records[name]["status"] == "pass", name

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
        assert main(["suite", "--seeds", "5"]) == 2

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
