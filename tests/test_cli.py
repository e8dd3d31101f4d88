import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from tensorcat.cli import main
from tensorcat.algebra import group_algebra, save_algebra
from tensorcat.catalog import catalog_category
from tensorcat.category_data import FSymbolSet, RSymbolSet, save_category


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_catalog_list(capsys):
    code, out = run(capsys, "catalog")
    assert code == 0
    assert "fibonacci" in out


def test_dims_fibonacci(capsys):
    code, out = run(capsys, "dims", "--catalog", "fibonacci")
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"][1] == pytest.approx(1.6180339887, abs=1e-9)
    assert doc["global_dim"] == pytest.approx(3.6180339887, abs=1e-9)
    assert doc["tolerance"] == 1e-9


def test_commutative_negative_answer_exit_one(capsys):
    code, out = run(capsys, "commutative", "--catalog", "fibonacci",
                    "--algebra", "canonical:t")
    assert code == 1
    doc = json.loads(out)
    assert doc["commutative"] is False
    assert doc["residual"] > 0.1


def test_qsystem_check_canonical(capsys):
    code, out = run(capsys, "qsystem-check", "--catalog", "fibonacci",
                    "--algebra", "canonical:t")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_validate_good_and_bad(tmp_path, capsys):
    cd = catalog_category("fibonacci")
    path = tmp_path / "fib.json"
    save_category(cd, path)
    code, _ = run(capsys, "validate", "--input", str(path))
    assert code == 0
    bad = replace(cd, R=RSymbolSet({**cd.R.entries, (1, 1, 1): 1.0}))
    bad_path = tmp_path / "bad.json"
    save_category(bad, bad_path)
    code, out = run(capsys, "validate", "--input", str(bad_path), "--no-validate")
    assert code == 2
    code, _ = run(capsys, "validate", "--input", str(bad_path))
    assert code == 2  # load-time validation also reports failure


@pytest.mark.parametrize("value", [[float("nan"), 0.0], {"rou": [1, 0]}, {"rou": [1.5, 4]}])
def test_validate_refuses_a_bad_number_as_structural(tmp_path, capsys, value):
    """A NaN, a zero root-of-unity order or a fractional one exits 3 with a
    JSON error, not valid and not a traceback."""
    from test_category_data import fib_file_with
    path = fib_file_with(tmp_path / "bad.json", value)
    code = main(["validate", "--input", str(path)])
    out, err = capsys.readouterr()
    assert code == 3
    assert json.loads(out)["error"].startswith("cannot decode complex value")
    assert "Traceback" not in err


def test_validate_checks_its_input_once(tmp_path, capsys, monkeypatch):
    """validate runs validate_category once on each path: at load time for
    --input, in the command for --no-validate and --catalog; a valid file
    prints the same bytes either way."""
    import tensorcat.category_data as category_data
    import tensorcat.cli as cli
    calls = []

    def counted(cd):
        calls.append(cd)
        return validate(cd)

    validate = category_data.validate_category
    monkeypatch.setattr(category_data, "validate_category", counted)
    monkeypatch.setattr(cli, "validate_category", counted)
    cd = catalog_category("fibonacci")
    good, bad = tmp_path / "fib.json", tmp_path / "bad.json"
    save_category(cd, good)
    broken = replace(cd, R=RSymbolSet({**cd.R.entries, (1, 1, 1): 1.0}))
    save_category(broken, bad)
    partial, bad_partial = _partial_files(tmp_path, cd)
    outs = {}
    for argv, code in ((["--input", str(good)], 0),
                       (["--input", str(good), "--no-validate"], 0),
                       (["--input", str(bad)], 2),
                       (["--input", str(bad), "--no-validate"], 2),
                       (["--input", str(partial)], 0),
                       (["--input", str(bad_partial)], 2),
                       (["--catalog", "fibonacci"], 0)):
        calls.clear()
        got, outs[tuple(argv)] = run(capsys, "validate", *argv)
        assert (got, len(calls)) == (code, 1), argv
    assert outs[("--input", str(good))] == outs[("--input", str(good), "--no-validate")]


def _partial_files(tmp_path, cd):
    """A partial file of cd's ring, as center --emit-category writes one,
    and a copy whose dual is not an involution."""
    good, bad = tmp_path / "partial.json", tmp_path / "bad_partial.json"
    save_category(replace(cd, F=FSymbolSet({}), R=None, partial=True), good)
    doc = json.loads(good.read_text())
    doc["dual"] = [0] * len(doc["dual"])
    bad.write_text(json.dumps(doc))
    return good, bad


def test_validate_checks_a_partial_files_ring(tmp_path, capsys):
    """load_category checks a partial file's ring: a dual that is not an
    involution is reported as for a broken full file, exit 2."""
    good, bad = _partial_files(tmp_path, catalog_category("fibonacci"))
    code, out = run(capsys, "validate", "--input", str(good))
    assert code == 0 and json.loads(out)["valid"] is True
    code, out = run(capsys, "validate", "--input", str(bad))
    doc = json.loads(out)
    assert code == 2 and set(doc) == {"error", "report"}
    assert "duality: dual(dual(1)) = 0" in doc["report"]


def test_commands_refuse_a_broken_partial_ring(tmp_path, capsys):
    """dims on a partial file whose dual is not an involution exits 2, where
    it printed Frobenius-Perron dims when only validate checked the ring."""
    good, bad = _partial_files(tmp_path, catalog_category("fibonacci"))
    code, _ = run(capsys, "dims", "--input", str(good))
    assert code == 0
    code, out = run(capsys, "dims", "--input", str(bad))
    assert code == 2
    assert "duality: dual(dual(1)) = 0" in json.loads(out)["report"]


def test_validate_input_uses_tol(tmp_path, capsys):
    cd = catalog_category("fibonacci")
    key = (1, 1, 1, 1, 1, 1)
    cd = replace(cd, F=FSymbolSet({**cd.F.entries, key: cd.fval(*key) + 1e-7}))
    path = tmp_path / "fib_perturbed.json"
    save_category(cd, path)
    code, _ = run(capsys, "validate", "--input", str(path))
    assert code == 2
    code, out = run(capsys, "validate", "--input", str(path), "--tol", "1e-5")
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_validate_catalog_uses_tol(capsys):
    # fibonacci's pentagon residuals are about 1e-16, above a 1e-20 tolerance
    code, out = run(capsys, "validate", "--catalog", "fibonacci", "--tol", "1e-20")
    assert code == 2
    assert json.loads(out)["valid"] is False
    code, _ = run(capsys, "validate", "--catalog", "fibonacci")
    assert code == 0


def test_cli_honours_the_file_tolerance(tmp_path, capsys, monkeypatch):
    """--tol, then TENSORCAT_TOL, then the file's tolerance, then the
    default; the emitted tolerance is the one used."""
    import dataclasses
    path = tmp_path / "fib.json"
    save_category(dataclasses.replace(catalog_category("fibonacci"), tolerance=1e-20), path)
    # fibonacci's pentagon residuals are about 1e-16, above the file's 1e-20
    code, _ = run(capsys, "validate", "--input", str(path))
    assert code == 2
    code, out = run(capsys, "validate", "--input", str(path), "--no-validate")
    assert code == 2 and json.loads(out)["tolerance"] == 1e-20
    code, out = run(capsys, "validate", "--input", str(path), "--tol", "1e-9")
    assert code == 0 and json.loads(out)["tolerance"] == 1e-9
    monkeypatch.setenv("TENSORCAT_TOL", "1e-8")
    code, out = run(capsys, "dims", "--input", str(path))
    assert code == 0 and json.loads(out)["tolerance"] == 1e-8
    code, _ = run(capsys, "validate", "--input", str(path), "--tol", "1e-20")
    assert code == 2
    code, out = run(capsys, "catalog")
    assert json.loads(out)["tolerance"] == 1e-8


def test_unknown_subcommand_exits_3(capsys):
    code, out = run(capsys, "frobnicate")
    assert code == 3
    assert "error" in json.loads(out)
    assert "usage" in capsys.readouterr().err.lower() or True  # usage on stderr


def test_no_subcommand_exits_3(capsys):
    assert main([]) == 3


def test_missing_input_structural(capsys):
    code, out = run(capsys, "dims")
    assert code == 3
    assert "error" in json.loads(out)


def test_smatrix_chars(capsys):
    code, out = run(capsys, "smatrix", "--catalog", "ising")
    assert code == 0
    doc = json.loads(out)
    assert doc["s_matrix"][1][2][0] == pytest.approx(-2 ** 0.5, abs=1e-9)
    code, out = run(capsys, "chars", "--catalog", "ising")
    doc = json.loads(out)
    assert doc["gamma"][1][2][0] == pytest.approx(-1.0, abs=1e-9)


def test_centralizer_and_find_central(capsys):
    code, out = run(capsys, "centralizer", "--catalog", "ising", "--sub", "1,p")
    assert code == 0
    assert json.loads(out)["centralizer"] == ["1", "p"]
    code, out = run(capsys, "find-central", "--catalog", "toric_code",
                    "--sub", "1")
    assert code == 0
    assert json.loads(out)["centralizing_object"] == "e"


def test_find_central_degenerate_sub_exit_two(capsys):
    code, out = run(capsys, "find-central", "--catalog", "toric_code",
                    "--sub", "1,f")
    assert code == 2


def test_local_modules_and_condense(tmp_path, capsys):
    toric = catalog_category("toric_code")
    alg = tmp_path / "alg.json"
    save_algebra(toric, group_algebra(toric, ("1", "e")), alg)
    code, out = run(capsys, "local-modules", "--catalog", "toric_code",
                    "--algebra", str(alg))
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 1
    assert doc["simples"][0]["support"] == ["1", "e"]
    code, out = run(capsys, "condense", "--catalog", "toric_code",
                    "--algebra", str(alg))
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] and doc["lagrangian"]


def test_lagrangian_addressing(capsys):
    code, out = run(capsys, "condense", "--catalog", "toric_code",
                    "--algebra", "lagrangian")
    assert code == 0
    assert json.loads(out)["n_simples"] == 1


def test_center_output_and_emit(tmp_path, capsys):
    code, out = run(capsys, "center", "--catalog", "vec_z2")
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 4
    assert sorted(t[0] for t in doc["twists"]) == pytest.approx([-1, 1, 1, 1])
    emitted = tmp_path / "z.json"
    code, _ = run(capsys, "center", "--catalog", "vec_z2",
                  "--emit-category", str(emitted))
    assert code == 0
    zdoc = json.loads(emitted.read_text())
    assert zdoc["partial"] is True and zdoc["rank"] == 4
    from tensorcat.category_data import load_category
    zcd = load_category(emitted)
    assert zcd.partial


def test_eval_expression(capsys):
    code, out = run(capsys, "eval", "cap[t] . cup[t]", "--catalog", "fibonacci")
    assert code == 0
    doc = json.loads(out)
    assert doc["trace"][0] == pytest.approx(1.6180339887, abs=1e-9)


def test_eval_with_algebra_generators(tmp_path, capsys):
    toric = catalog_category("toric_code")
    alg = tmp_path / "alg.json"
    save_algebra(toric, group_algebra(toric, ("1", "e")), alg)
    code, out = run(capsys, "eval", "m_1_1_0", "--catalog", "toric_code",
                    "--algebra", str(alg))
    assert code == 0
    doc = json.loads(out)
    assert doc["source"] == ["e", "e"] and doc["target"] == ["1"]


def test_eval_module_file_with_a_repeated_label_exits_three(tmp_path, capsys):
    mod = tmp_path / "mod.json"
    mod.write_text(json.dumps({"format": 1, "support": ["m", "f", "f"],
                               "rho": [["m", "1", "m", [1.0, 0.0]], ["m", "e", "f", [1.0, 0.0]],
                                       ["f", "1", "f", [1.0, 0.0]], ["f", "e", "m", [1.0, 0.0]]]}))
    code, out = run(capsys, "eval", "id[m]", "--catalog", "toric_code", "--module", str(mod))
    assert code == 3
    assert "repeated" in json.loads(out)["error"]


def test_eval_parse_error_exit_three(capsys):
    code, out = run(capsys, "eval", "cup[t", "--catalog", "fibonacci")
    assert code == 3
    assert "column" in json.loads(out)["error"]


def test_kappa(capsys):
    code, out = run(capsys, "kappa", "--catalog", "semion", "--g", "1")
    assert code == 0
    assert json.loads(out)["kappa"][1] == pytest.approx(1.0)


def test_json_byte_stability(capsys):
    outs = set()
    for _ in range(3):
        code, out = run(capsys, "center", "--catalog", "fibonacci", "--seed", "0")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    code, out2 = run(capsys, "center", "--catalog", "fibonacci", "--seed", "5")
    doc0 = json.loads(next(iter(outs)))
    doc5 = json.loads(out2)
    assert doc0["dims"] == pytest.approx(doc5["dims"], abs=1e-9)
    for t0, t5 in zip(doc0["twists"], doc5["twists"]):
        assert t0 == pytest.approx(t5, abs=1e-9)
    assert doc0["underlying"] == doc5["underlying"]


def test_env_var_tolerance(capsys, monkeypatch):
    monkeypatch.setenv("TENSORCAT_TOL", "1e-7")
    code, out = run(capsys, "dims", "--catalog", "fibonacci")
    assert json.loads(out)["tolerance"] == 1e-7


def test_text_format(capsys):
    code, out = run(capsys, "dims", "--catalog", "fibonacci", "--format", "text")
    assert code == 0
    assert "global_dim" in out and "{" not in out


def test_import_does_not_load_scipy_optimize():
    # start-up latency: scipy.optimize is imported only by the solvers that use it
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c",
         "import tensorcat.cli, sys; print('scipy.optimize' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_center_bytes_do_not_follow_the_hash_seed():
    # the corner split is seeded from a string, so str hashing cannot reach it
    src = Path(__file__).resolve().parents[1] / "src"
    procs = [subprocess.Popen(
        [sys.executable, "-m", "tensorcat.cli", "center", "--catalog", "ising", "--seed", "3"],
        env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=h), stdout=subprocess.PIPE)
        for h in ("0", "1")]
    outs = [p.communicate(timeout=60)[0] for p in procs]
    assert [p.returncode for p in procs] == [0, 0]
    assert outs[0] == outs[1]


def _set(key, row, field, value):
    """An edit of a category file: doc[key][row][field] = value."""
    def edit(doc):
        doc[key][row][field] = value
    return edit


MALFORMED = {
    "N label -1": (_set("N", 4, 2, -1), "N entry (1,1,-1) = 1: a label outside 0..1"),
    "N label past the rank": (_set("N", 4, 2, 2), "N entry (1,1,2) = 1: a label outside 0..1"),
    "N label 1.5": (_set("N", 4, 2, 1.5), "N row 4 is not 3 integer labels and a value"),
    "negative N entry": (_set("N", 4, 3, -1), "N entry (1,1,1) = -1: a label outside 0..1 "
                                              "or not an integer n >= 0"),
    "N multiplicity 1.0": (_set("N", 4, 3, 1.0), "N entry (1,1,1) = 1.0"),
    "N row of 3 fields": (lambda doc: doc["N"][4].pop(), "N row 4 is not 3 integer labels"),
    "F label -1": (_set("F", 0, 3, -1), "F entry with a label outside 0..1: (1,1,1,-1,1,1)"),
    "F label past the rank": (_set("F", 0, 3, 2), "F entry with a label outside 0..1: (1,1,1,2,1,1)"),
    "F label 1.5": (_set("F", 0, 3, 1.5), "F row 0 is not 6 integer labels and a value"),
    "F row of 5 fields": (lambda doc: doc["F"][1].pop(0), "F row 1 is not 6 integer labels"),
    "R label past the rank": (_set("R", 1, 2, 5), "R entry with a label outside 0..1: (1,1,5)"),
    "R label 1.5": (_set("R", 1, 0, 1.5), "R row 1 is not 3 integer labels and a value"),
    "no rank": (lambda doc: doc.pop("rank"), "category file has no 'rank'"),
    "rank 2.0": (lambda doc: doc.update(rank=2.0), "rank must be a positive integer, not 2.0"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_validate_refuses_a_malformed_file_as_structural(tmp_path, capsys, case):
    """A label out of range or not an integer, a row of the wrong length, a
    negative multiplicity or a missing rank exits 3 with a JSON error that
    names the row or key, with and without validation: no traceback, and no
    label wrapped around to the last one."""
    edit, message = MALFORMED[case]
    path = tmp_path / "bad.json"
    save_category(catalog_category("fibonacci"), path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    for flags in ([], ["--no-validate"]):
        code = main(["validate", "--input", str(path), *flags])
        out, err = capsys.readouterr()
        assert code == 3, (case, out)
        assert message in json.loads(out)["error"], case
        assert "Traceback" not in err
