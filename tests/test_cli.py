from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from entry_point import ENTRY_POINT, SCRIPT, console_command
from mfhrr.cli import emit_report, infer_vars, main
from mfhrr.groebner import ENV_MAX_SPAIRS
from mfhrr.homalg import ext_dims
from mfhrr.mfcat import koszul_mf, mf_to_json
from mfhrr.polyring import parse_poly


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def mf_file(tmp_path, capsys):
    path = tmp_path / "kxy.json"
    code = main(["koszul", "--a", "x", "--b", "y"])
    assert code == 0
    path.write_text(capsys.readouterr().out)
    return str(path)


# -- plumbing ---------------------------------------------------------------------

def test_emit_report_empty():
    assert emit_report({"entries": [], "summary": {"pass": True}}) == \
        b'{"entries":[],"summary":{"pass":true}}\n'


def test_emit_report_text_table():
    report = {
        "entries": [{"name": "x*y", "pass": True,
                     "hrr": [{"p": 0, "q": 0, "chi_ext": 1, "chi_residue": "1",
                              "signs": {}, "pass": True}]}],
        "summary": {"pass": True},
    }
    text = emit_report(report, "text").decode()
    lines = text.splitlines()
    assert lines[0].split() == ["entry", "chi_ext", "chi_res", "pass"]
    assert lines[1].split() == ["x*y", "1", "1", "pass"]
    assert lines[-1] == "summary: pass"


def test_infer_vars_first_appearance():
    assert infer_vars("y^2 + x*y", "z") == ("y", "x", "z")
    with pytest.raises(ValueError):
        infer_vars("1 + 2")


@pytest.mark.parametrize("a,b,names", [("é", "é", ["é"]), ("xé", "x", ["xé", "x"])])
def test_koszul_infers_names_by_the_parser_rule(capsys, a, b, names):
    # the inferred names are the ones the parser reads, non-ASCII letters too
    code, out, err = run_cli(capsys, "koszul", "--a", a, "--b", b)
    assert (code, err) == (0, "")
    assert json.loads(out)["vars"] == names


# -- commands ---------------------------------------------------------------------

def test_residue_command(capsys):
    code, out, _ = run_cli(capsys, "residue", "--f", "x*y", "--numerator", "1")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == "-1"
    assert data["cover"]["exponents"] == [1, 1]


def test_residue_vars_override(capsys):
    code, out, _ = run_cli(capsys, "residue", "--f", "y*x", "--numerator", "1",
                           "--vars", "x,y")
    assert code == 0
    assert json.loads(out)["value"] == "-1"


def test_residue_output_bytes_are_pinned(capsys):
    # exponents (3, 3) and the cofactors come from the Jacobian ideal's one
    # graph basis
    code, out, _ = run_cli(capsys, "residue", "--f", "x^3 + x*y^2",
                           "--numerator", "x^2")
    assert code == 0
    assert out == ('{"cover":{"cofactors":[["1/3*x","-1/6*y"],["y","-3/2*x"]],'
                   '"det":"-1/2*x^2 + 1/6*y^2","exponents":[3,3]},"value":"1/6"}\n')


@pytest.mark.parametrize("before", [None, "1000"])
def test_max_spairs_holds_for_one_command(capsys, monkeypatch, before):
    # MFHRR_MAX_SPAIRS is the one channel for the S-pair cap: a capped
    # command fails as a whole, the CLI writes no environment of its own, and
    # the next command runs under whatever cap the caller set
    if before is None:
        monkeypatch.delenv(ENV_MAX_SPAIRS, raising=False)
    else:
        monkeypatch.setenv(ENV_MAX_SPAIRS, before)
    argv = ("residue", "--f", "x^3 + x*y^3", "--numerator", "x*y")
    monkeypatch.setenv(ENV_MAX_SPAIRS, "1")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert "S-pair budget exhausted (1)" in err
    assert os.environ.get(ENV_MAX_SPAIRS) == "1"
    if before is None:
        monkeypatch.delenv(ENV_MAX_SPAIRS)
    else:
        monkeypatch.setenv(ENV_MAX_SPAIRS, before)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["cover"]["exponents"] == [3, 5]
    assert os.environ.get(ENV_MAX_SPAIRS) == before


def test_residue_rejects_non_isolated(capsys):
    code, out, err = run_cli(capsys, "residue", "--f", "x^2*y", "--numerator", "1")
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_residue_rejects_noncritical_origin(capsys):
    # the partials (1, 2y) of x + y^2 span the unit ideal
    code, out, err = run_cli(capsys, "residue", "--f", "x + y^2", "--numerator", "1")
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_validate_text_and_json(capsys, mf_file):
    code, out, _ = run_cli(capsys, "validate", "--mf", mf_file)
    assert code == 0
    assert out.strip() == "delta^2 = f*id verified"
    code, out, _ = run_cli(capsys, "validate", "--mf", mf_file, "--format", "json")
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_validate_rejects_broken_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    # delta^2 != f, a 0|1 block with no columns, an empty 0|0 pair, and a
    # file that is not JSON
    texts = [json.dumps({"vars": ["x"], "f": "x^2", "delta0": delta0,
                         "delta1": delta1})
             for delta0, delta1 in (([["x"]], [["x^2"]]), ([[]], []), ([], []))]
    for text in texts + ["{not json"]:
        bad.write_text(text)
        code, out, err = run_cli(capsys, "validate", "--mf", str(bad))
        assert (code, out) == (1, "")
        assert err.startswith("error:")


def test_validate_rejects_string_matrix(tmp_path, capsys):
    # each character of "x" used to be read as a row, and the file passed
    bad = tmp_path / "string.json"
    bad.write_text(json.dumps(
        {"vars": ["x"], "f": "x^2", "delta0": "x", "delta1": [["x"]]}))
    code, out, err = run_cli(capsys, "validate", "--mf", str(bad))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "delta0" in err


def test_validate_rejects_repeated_vars(tmp_path, capsys):
    # both "x" used to parse to the second slot, and the file passed
    bad = tmp_path / "repeated.json"
    bad.write_text(json.dumps(
        {"vars": ["x", "x"], "f": "x^2", "delta0": [["x"]], "delta1": [["x"]]}))
    code, out, err = run_cli(capsys, "validate", "--mf", str(bad))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "vars" in err


def test_koszul_rejects_repeated_vars(capsys):
    # --vars follows the rule of a JSON "vars" field, so koszul cannot print
    # a file that validate rejects
    code, out, err = run_cli(capsys, "koszul", "--a", "x", "--b", "x",
                             "--vars", "x,x")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "vars" in err


@pytest.mark.parametrize("flag,command", [("--mf", "validate"), ("--p", "ext"),
                                          ("--p", "pair"), ("--mf", "chern")])
def test_mistyped_vars_is_an_error_not_a_traceback(tmp_path, capsys, flag, command):
    bad = tmp_path / "vars.json"
    bad.write_text(json.dumps(
        {"vars": 5, "f": "x^2", "delta0": [["x"]], "delta1": [["x"]]}))
    code, out, err = run_cli(capsys, command, flag, str(bad))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "vars" in err


def test_ext_command(capsys, mf_file):
    code, out, _ = run_cli(capsys, "ext", "--p", mf_file)
    assert code == 0
    data = json.loads(out)
    assert (data["dim_ext0"], data["dim_ext1"], data["chi"]) == (1, 0, 1)
    # JSON input carries no Koszul sequence
    assert data["provenance"]["route"] == "hom_complex"


def test_chern_command(capsys, mf_file):
    code, out, _ = run_cli(capsys, "chern", "--mf", mf_file)
    assert code == 0
    assert json.loads(out)["form"] == {"u^0": {"2": [[["x", "y"], "-1"]]}}


@pytest.mark.parametrize("koszul,want", [
    (["--a", "x", "--b", "x"],
     '{"f":"x^2","form":{},"ranks":[1,1],"vars":["x"]}\n'),
    (["--a", "x,z", "--b", "y,w", "--vars", "x,y,z,w"],
     '{"f":"x*y + z*w","form":{"u^0":{"4":[[["x","y","z","w"],"1"]]}},'
     '"ranks":[2,2],"vars":["x","y","z","w"]}\n'),
], ids=["one_variable", "two_hyperbolic_planes"])
def test_chern_command_bytes(tmp_path, capsys, koszul, want):
    path = tmp_path / "mf.json"
    assert main(["koszul", *koszul]) == 0
    path.write_text(capsys.readouterr().out)
    code, out, _ = run_cli(capsys, "chern", "--mf", str(path))
    assert code == 0
    assert out == want


def test_pair_command(capsys, mf_file):
    code, out, _ = run_cli(capsys, "pair", "--p", mf_file)
    assert code == 0
    data = json.loads(out)
    assert data["value"] == "1"
    assert data["signs"] == {"n": 2, "epsilon": -1, "formula": -1}


def test_hrr_default_corpus(capsys):
    code, out, _ = run_cli(capsys, "hrr")
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["pass"] is True
    assert "suites" not in report


def test_hrr_failing_entry_exit_code(tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(
        [{"name": "bad", "vars": ["x", "y"], "f": "x^2*y", "mfs": []}]))
    code, out, _ = run_cli(capsys, "hrr", "--corpus", str(corpus))
    assert code == 1
    assert json.loads(out)["summary"]["pass"] is False


def test_hrr_corpus_entry_does_not_choose_its_checks(tmp_path, capsys):
    # an entry's own keys do not select its verdicts: a "checks" list naming
    # no check, or a string, still gets the hrr row of every pair
    mfs = [{"koszul": {"a": ["x"], "b": ["y"]}}, {"koszul": {"a": ["y"], "b": ["x"]}}]
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(
        [{"name": name, "vars": ["x", "y"], "f": "x*y", "mfs": mfs, "checks": checks}
         for name, checks in (("list", ["nothing"]), ("string", "shiftsum"))]))
    code, out, _ = run_cli(capsys, "hrr", "--corpus", str(corpus))
    assert code == 0
    for row in json.loads(out)["entries"]:
        assert [(r["p"], r["q"], r["pass"]) for r in row["hrr"]] == [
            (0, 0, True), (0, 1, True), (1, 0, True), (1, 1, True)]


def test_hrr_rejects_a_broken_corpus_file(tmp_path, capsys):
    # a file that is not JSON, and JSON that is not an array of entries
    corpus = tmp_path / "corpus.json"
    for text in ("{not json", "{}"):
        corpus.write_text(text)
        code, out, err = run_cli(capsys, "hrr", "--corpus", str(corpus))
        assert (code, out) == (1, "")
        assert err.startswith("error:")


def test_malformed_corpus_entries_fail_alone(tmp_path, capsys):
    good = {"name": "good", "vars": ["x", "y"], "f": "x*y",
            "mfs": [{"koszul": {"a": ["x"], "b": ["y"]}}]}
    number_entry = {"vars": ["x"], "f": "x^2", "delta0": [[2]], "delta1": [["x"]]}
    no_columns = {"vars": ["x"], "f": "x^2", "delta0": [[]], "delta1": []}
    bad = [{"name": "float f", "vars": ["x"], "f": 1.5},
           {"name": "number entry", "vars": ["x"], "f": "x^2", "mfs": [number_entry]},
           {"name": "no columns", "vars": ["x"], "f": "x^2", "mfs": [no_columns]},
           {"name": "number vars", "vars": 5, "f": "x"}, [3]]
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([good, *bad]))
    code, out, _ = run_cli(capsys, "hrr", "--corpus", str(corpus))
    assert code == 1
    rows = json.loads(out)["entries"]
    assert [r["pass"] for r in rows] == [True, False, False, False, False, False]
    assert "error" not in rows[0] and all("error" in r for r in rows[1:])
    for data in (number_entry, {**number_entry, "f": 1.5}):
        mf = tmp_path / "mf.json"
        mf.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "validate", "--mf", str(mf))
        assert (code, out) == (1, "") and "error:" in err


def test_empty_corpus_exits_zero(tmp_path, capsys):
    corpus = tmp_path / "empty.json"
    corpus.write_text("[]")
    code, out, _ = run_cli(capsys, "corpus", "--corpus", str(corpus))
    assert code == 0
    assert out == '{"entries":[],"summary":{"pass":true}}\n'


def test_hoch_verify_small(capsys):
    code, out, _ = run_cli(capsys, "hoch-verify", "--count", "6", "--jmax", "1",
                           "--utrunc", "3", "--seed", "5")
    assert code == 0
    report = json.loads(out)
    assert report["summary"] == {"pass": True, "seed": 5}
    assert set(report["suites"]) == {"mixed_axioms", "shuffle", "trace_chain_map",
                                     "phi_eta", "local_residue", "duality"}


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["residue", "--f", "x*y"])  # missing --numerator
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["chern", "--mf", "F", "--utrunc", "3"])  # chern has no u-order
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        # the S-pair cap is set through MFHRR_MAX_SPAIRS only
        main(["residue", "--f", "x*y", "--numerator", "1", "--max-spairs", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


def _ext_pair(which):
    """Two Koszul factorizations of one potential: rank-2|2 splits of
    x^3 + y^4, or rank-1|1 branch splits of D4, y(x - y)(x + y)."""
    XY = ("x", "y")

    def K(a, b):
        return koszul_mf(XY, [parse_poly(s, XY) for s in a],
                         [parse_poly(s, XY) for s in b])

    if which == "quartic":
        return K(["x^2", "y"], ["x", "y^3"]), K(["x", "y^2"], ["x^2", "y^2"])
    return K(["y"], ["x^2 - y^2"]), K(["x - y"], ["x*y + y^2"])


# a change of the engine's representation must leave these as they are,
# kernel_generators (the verified kernel basis) too.  On the Koszul route
# that basis is the one of Q's complex after ext_dims substitutes away y,
# which both sources' sequences solve for: quartic is taken over Q[x]
# modulo x^2, d4 over Q[x] with no ideal left, so d4's H0 kernel is empty
EXT_BYTES = {
    ("quartic", "koszul"):
        '{"chi":0,"dim_ext0":2,"dim_ext1":2,"provenance":{"complex_dims":[2,2],'
        '"kernel_generators":[2,2],"route":"koszul"}}\n',
    ("quartic", "hom_complex"):
        '{"chi":0,"dim_ext0":2,"dim_ext1":2,"provenance":{"complex_dims":[8,8],'
        '"kernel_generators":[6,7],"route":"hom_complex"}}\n',
    ("d4", "koszul"):
        '{"chi":-1,"dim_ext0":0,"dim_ext1":1,"provenance":{"complex_dims":[1,1],'
        '"kernel_generators":[1,0],"route":"koszul"}}\n',
    ("d4", "hom_complex"):
        '{"chi":-1,"dim_ext0":0,"dim_ext1":1,"provenance":{"complex_dims":[2,2],'
        '"kernel_generators":[1,1],"route":"hom_complex"}}\n',
}


@pytest.mark.parametrize("which", ["quartic", "d4"])
def test_ext_output_bytes_are_pinned(tmp_path, capsys, which):
    P, Q = _ext_pair(which)
    # a file carries no Koszul sequence, so mfhrr ext takes the Hom complex;
    # the Koszul route is the same report for the factorizations as built
    assert emit_report(ext_dims(P, Q).as_dict()).decode() == EXT_BYTES[which, "koszul"]
    paths = []
    for name, M in (("p", P), ("q", Q)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(mf_to_json(M)))
    code, out, _ = run_cli(capsys, "ext", "--p", str(paths[0]), "--q", str(paths[1]))
    assert code == 0
    assert out == EXT_BYTES[which, "hom_complex"]


def test_corpus_seed_11_stdout_is_pinned(capsys):
    # the byte-identity invariant: refactors must leave this report unchanged
    code, out, _ = run_cli(capsys, "corpus", "--seed", "11")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "565d687b43c5673657c443ab00f41cf5272e4f57504fdd396fff125fbe13dda6")


def test_tower_stdout_is_pinned(capsys):
    # the tower benchmark's own command: a rewrite of the chain engine must
    # leave every suite's report byte-identical
    code, out, _ = run_cli(capsys, "hoch-verify", "--utrunc", "5", "--seed", "3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7a3062234fee51783157d4bc2855f83479895418a11e1d7d7932bcdb5db43b84")


def test_small_tower_stdout_is_pinned(capsys):
    # the suites and chain operators at a second order, seed and size
    code, out, _ = run_cli(capsys, "hoch-verify", "--utrunc", "4", "--seed", "7",
                           "--count", "20", "--jmax", "3")
    assert code == 0
    assert out == (
        '{"suites":{"duality":{"chains":20,"failures":0,"pass":true,"seed":10},'
        '"local_residue":{"order":3,"pass":true,"values":['
        '{"j":0,"res":{"0":"-1"},"trace":"1"},{"j":1,"res":{},"trace":"0"},'
        '{"j":2,"res":{},"trace":"0"},{"j":3,"res":{},"trace":"0"}]},'
        '"mixed_axioms":{"chains":20,"failures":0,"pass":true,"seed":7},'
        '"phi_eta":{"eta":true,"jmax":3,"order":4,"pass":true,"phi":true},'
        '"shuffle":{"failures":0,"pairs":10,"pass":true,"seed":8,"utrunc":4},'
        '"trace_chain_map":{"chains":20,"failures":0,"pass":true,"seed":9}},'
        '"summary":{"pass":true,"seed":7}}\n')


def test_console_entry_point_determinism():
    argv, env = console_command("corpus", "--seed", "9", "--count", "8",
                                "--jmax", "1", "--utrunc", "3")
    first = subprocess.run(argv, capture_output=True, env=env)
    second = subprocess.run(argv, capture_output=True, env=env)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert b'"pass":true' in first.stdout


CHAIN_ENGINE_PROBE = """
import contextlib, io, sys
import mfhrr.cli, mfhrr.pairing, mfhrr.homalg, mfhrr.residue, mfhrr.hkrtrace
for argv in (["hrr", "--format", "text"],
             ["hoch-verify", "--count", "2", "--jmax", "1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = mfhrr.cli.main(argv)
    print(argv[0], code, "mfhrr.hochschild" in sys.modules)
"""


def test_index_commands_do_not_load_the_chain_engine():
    # the index path imports nothing from the chain engine: importing the
    # index modules and running hrr leave hochschild unloaded, and only a
    # chain suite loads it, when it starts (a fresh interpreter, since this
    # test process has loaded every module already)
    _, env = console_command()
    run = subprocess.run([sys.executable, "-c", CHAIN_ENGINE_PROBE],
                         capture_output=True, env=env, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["hrr 0 False", "hoch-verify 0 True"]


def test_console_command_runs_the_declared_script():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    declared = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert declared == {SCRIPT: ENTRY_POINT}
