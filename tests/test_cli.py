import os
import subprocess
import sys
from io import StringIO
from pathlib import Path

import pytest

from monofact import cli
from monofact.catalog import CATALOG
from monofact.cli import run_command
from monofact.formats import emit_monoid, parse_monoid


def run(*argv):
    out, err = StringIO(), StringIO()
    code = run_command(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "c3.json").write_text(emit_monoid(CATALOG["c3"], "c3"))
    (tmp_path / "c2.json").write_text(emit_monoid(CATALOG["c2"], "c2"))
    (tmp_path / "inv.json").write_text(
        '{"actor": "c2.json", "acted": "c3.json", "star": [[0, 1, 2], [0, 2, 1]]}\n'
    )
    return tmp_path


class TestInfo:
    def test_b2(self):
        code, out, _ = run("info", "--in", "@b2")
        assert code == 0
        assert "size: 2" in out
        assert "units: 1" in out
        assert "conical: yes" in out
        assert "submonoids: 2" in out

    def test_s3(self):
        code, out, _ = run("info", "--in", "@s3")
        assert code == 0
        assert "group: yes" in out and "factorizations: 8" in out


class TestFac:
    def test_full_listing(self):
        code, out, _ = run("fac", "--in", "@s3")
        assert code == 0 and out.startswith("factorizations: 8\n")

    def test_first_factor_by_label(self):
        code, out, _ = run("fac", "--in", "@s3", "--first", "(123)")
        assert code == 0
        assert "second factors for {e,(123),(132)}: 3" in out

    def test_first_factor_by_index(self):
        code, out, _ = run("fac", "--in", "@s3", "--first", "4")
        assert "3" in out.splitlines()[0]

    def test_strict_empty_is_exit_one(self):
        code, out, _ = run("--strict", "fac", "--in", "@c4", "--first", "g2")
        assert code == 1 and "0" in out.splitlines()[0]

    def test_without_strict_exit_zero(self):
        code, _, _ = run("fac", "--in", "@c4", "--first", "g2")
        assert code == 0


class TestCocycles:
    def test_count(self):
        code, out, _ = run("cocycles", "--in", "@s3", "--sub", "(123)")
        assert code == 0 and out.startswith("cocycles: 3")

    def test_unit_on(self):
        code, out, _ = run(
            "cocycles", "--in", "@s3", "--sub", "(123)", "--unit-on", "(12)"
        )
        assert code == 0 and out.startswith("cocycles: 3")

    def test_right_side(self):
        code, out, _ = run("cocycles", "--in", "@s3", "--sub", "(12)", "--side", "right")
        assert code == 0 and out.startswith("cocycles: 1")

    def test_unknown_element(self):
        code, _, err = run("cocycles", "--in", "@s3", "--sub", "(99)")
        assert code == 3 and "unknown element" in err


class TestCohomology:
    def test_single_class(self):
        code, out, _ = run("cohomology", "--in", "@s3", "--sub", "(123)")
        assert code == 0 and out.startswith("classes: 1 (3 cocycles)")

    def test_base_marked_when_restricted(self):
        code, out, _ = run(
            "cohomology", "--in", "@s3", "--sub", "(123)", "--unit-on", "(12)"
        )
        assert code == 0 and "(base)" in out


class TestSemidirectCommand:
    def test_summary(self, workdir):
        code, out, _ = run(
            "semidirect",
            "--a", str(workdir / "c3.json"),
            "--b", str(workdir / "c2.json"),
            "--action", str(workdir / "inv.json"),
        )
        assert code == 0 and "size: 6" in out

    def test_emit_is_s3(self, workdir):
        from monofact.core import find_isomorphism

        code, out, _ = run(
            "semidirect",
            "--a", str(workdir / "c3.json"),
            "--b", str(workdir / "c2.json"),
            "--action", str(workdir / "inv.json"),
            "--emit",
        )
        assert code == 0
        M = parse_monoid(out)
        assert M.size == 6 and find_isomorphism(M, CATALOG["s3"]) is not None


class TestZ1H1:
    def test_z1_units(self, workdir):
        code, out, _ = run(
            "z1",
            "--a", str(workdir / "c3.json"),
            "--b", str(workdir / "c2.json"),
            "--action", str(workdir / "inv.json"),
            "--units",
        )
        assert code == 0 and out.startswith("unit-valued cocycles: 3")

    def test_h1(self, workdir):
        code, out, _ = run(
            "h1",
            "--a", str(workdir / "c3.json"),
            "--b", str(workdir / "c2.json"),
            "--action", str(workdir / "inv.json"),
        )
        assert code == 0 and out.startswith("classes: 1")


class TestVerifyCommand:
    def test_passes(self):
        code, out, _ = run("verify", "--max-size", "1")
        assert code == 0
        assert "checks passed" in out.splitlines()[-1]

    def test_catalog_flag(self):
        code, out, _ = run("verify", "--max-size", "1", "--catalog")
        assert code == 0 and "catalog" in out.splitlines()[0]

    def test_vacuous_check_exits_1(self, monkeypatch):
        from monofact import verify

        table = tuple(
            (i, kind, (lambda unit: (0, None)) if i == "conical-bound" else fn)
            for i, kind, fn in verify._CHECKS
        )
        monkeypatch.setattr(verify, "_CHECKS", table)
        code, out, _ = run("verify", "--max-size", "1")
        assert code == 1
        assert "conical-bound: FAIL (0 instances)" in out.splitlines()

    def test_counterexample_is_reported(self, monkeypatch):
        from monofact import verify

        monkeypatch.setattr(verify, "first_factor_filter", lambda M, A: (False, (0, 0)))
        assert not verify.verify_suite(1, catalog=False).all_passed
        code, out, err = run("verify", "--max-size", "1")
        lines = out.splitlines()
        assert code == 1 and err == ""
        assert lines[1] == (
            "first-factor-necessity: FAIL (1 instances) -- order1#0 table=[[0]]; "
            "fac=Factorization((0,), (0,)), witnesses (0, 0) None"
        )
        assert lines[-1].startswith("total: 26/27 checks passed")
        assert sum(line.endswith("PASS (1 instances)") for line in lines) == 25

    @pytest.mark.parametrize("bound", ["0", "-1", "5"])
    def test_out_of_range_max_size_is_usage_error(self, bound):
        code, out, err = run("verify", "--max-size", bound)
        assert code == 2
        assert out == "" and "--max-size" in err


class TestWitnessCommand:
    def test_default(self):
        code, out, _ = run("witness")
        assert code == 0 and "decomposition bijective: yes" in out

    def test_bound(self):
        code, out, _ = run("witness", "--bound", "48")
        assert "sample: 48 = 3 * 2^4" in out


class TestCatalogCommand:
    def test_listing(self):
        code, out, _ = run("catalog")
        assert code == 0 and "s3: size 6" in out

    def test_emit_parses_back(self):
        code, out, _ = run("catalog", "s3")
        assert code == 0 and parse_monoid(out) == CATALOG["s3"]


class TestExitCodes:
    def test_usage_error(self):
        code, _, _ = run("nosuchcommand")
        assert code == 2

    def test_missing_argument(self):
        code, _, _ = run("info")
        assert code == 2

    def test_missing_file(self):
        code, _, err = run("info", "--in", "does-not-exist.json")
        assert code == 3

    def test_boolean_document_is_validation_error(self, tmp_path):
        bad = tmp_path / "bool.json"
        bad.write_text('{"size": true, "identity": false, "table": [[false]]}')
        code, out, err = run("info", "--in", str(bad))
        assert code == 3 and out == "" and "error" in err

    def test_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"size": 2, "identity": 0, "table": [[0, 1], [1, 2]]}')
        code, _, err = run("info", "--in", str(bad))
        assert code == 3 and "error" in err


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("fac", "--in", "@s3"),
            ("cocycles", "--in", "@s3", "--sub", "(123)"),
            ("verify", "--max-size", "2"),
            ("submonoids", "--in", "@b2xc2"),
        ],
    )
    def test_byte_identical_reruns(self, argv):
        first = run(*argv)
        second = run(*argv)
        assert first == second


class TestSharedParser:
    """One parser serves every call in a process; no call sees another's state."""

    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_usage_error_then_valid_command(self):
        fresh = run("fac", "--in", "@s3")
        code, out, err = run("fac", "--in", "@s3", "--side", "left")
        assert code == 2 and out == "" and "unrecognized arguments: --side" in err
        assert run("fac", "--in", "@s3") == fresh
        assert fresh[0] == 0 and fresh[2] == ""

    def test_strict_does_not_carry_over(self):
        # every submonoid of S3 has a second factor; {e,g2} in C4 has none
        empty = ["second factors for {e,g2}: 0"]
        code, out, _ = run("--strict", "fac", "--in", "@c4", "--first", "g2")
        assert code == 1 and out.splitlines() == empty
        code, out, _ = run("fac", "--in", "@c4", "--first", "g2")
        assert code == 0 and out.splitlines() == empty
        assert run("--strict", "fac", "--in", "@c4", "--first", "g2")[0] == 1

    @pytest.mark.parametrize("argv", [("--help",), ("fac", "--help")])
    def test_help_twice(self, argv):
        first = run(*argv)
        second = run(*argv)
        assert first[0] == 0 and first[1].startswith("usage: monofact")
        assert first == second and first[2] == ""


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "monofact", "fac", "--in", "@s3"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == run("fac", "--in", "@s3")[1]
