import hashlib
import json
import os
import subprocess
import sys
from itertools import product

import pytest

from ncpoly import classify, gale, signvec, surgery
from ncpoly.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_facets_signvector_count(capsys):
    code, out, _ = run_cli(capsys, "facets", "--n", "5", "--d", "4", "--format", "signvector")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 24
    assert all(set(line) <= set("-0+") and len(line) == 5 for line in lines)


def test_facets_signed_format(capsys):
    code, out, _ = run_cli(capsys, "facets", "--n", "4", "--d", "4", "--format", "signed")
    assert code == 0
    assert len(out.strip().splitlines()) == 8


def test_facets_json_has_formula(capsys):
    code, out, _ = run_cli(capsys, "facets", "--n", "6", "--d", "4")
    data = json.loads(out)
    assert code == 0
    assert data["count"] == data["formula"] == 64
    assert len(data["facets"]) == 64


def test_deterministic_output(capsys):
    _, first, _ = run_cli(capsys, "facets", "--n", "6", "--d", "3")
    _, second, _ = run_cli(capsys, "facets", "--n", "6", "--d", "3")
    assert first == second
    _, c1, _ = run_cli(capsys, "construct", "--n", "4", "--d", "2")
    _, c2, _ = run_cli(capsys, "construct", "--n", "4", "--d", "2")
    assert c1 == c2


def test_construct_reports_epsilon_and_labels(capsys):
    code, out, _ = run_cli(capsys, "construct", "--n", "4", "--d", "3")
    data = json.loads(out)
    assert code == 0
    assert data["epsilon"] == "1/2"
    assert len(data["cube_vertices"]["labels"]) == 16
    assert len(data["shadow"]["points"]) == 16
    assert len(data["hrep"]["inequalities"]) == 8


def test_construct_epsilon_override(capsys):
    code, out, _ = run_cli(capsys, "construct", "--n", "3", "--d", "2", "--epsilon", "1/8")
    assert code == 0
    assert json.loads(out)["epsilon"] == "1/8"


def test_uncertified_epsilon_fails_loudly(capsys):
    code, out, err = run_cli(capsys, "construct", "--n", "5", "--d", "2", "--epsilon", "1/2")
    assert code == 1
    assert "certificate" in json.loads(err)["message"]


def test_out_of_range_epsilon_is_a_value_error(capsys):
    for eps in ("0", "2", "-1/3"):
        code, out, err = run_cli(capsys, "construct", "--n", "6", "--d", "4", f"--epsilon={eps}")
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "ValueError", "message": "epsilon must lie in (0, 1]"}


def test_verify_small_instance(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "4", "--d", "3")
    data = json.loads(out)
    assert code == 0
    assert data["pass"] is True
    assert data["checks"]["facets_match_combinatorial"] is True


def test_fvector_command(capsys):
    code, out, _ = run_cli(capsys, "fvector", "--n", "4", "--d", "2")
    data = json.loads(out)
    assert code == 0
    assert data["f_vector"] == [16, 16]
    assert data["dehn_sommerville"] is True


def test_classify_command(capsys):
    code, out, _ = run_cli(capsys, "classify", "--d", "5")
    data = json.loads(out)
    assert code == 0
    assert data["triple_count"] == 6
    assert sorted(data["neighborly"]) == [[2, 2, 2], [3, 1, 2]]


def test_classify_reports_a_failed_relation(capsys, monkeypatch):
    # delta_3 of (2, 2, 2) pushed up breaks the tie with (3, 1, 2) and leaves
    # (2, 2, 2) not minimal: the command says so and exits 1, no traceback
    real = classify.delta
    monkeypatch.setattr(
        classify, "delta", lambda i, *t: real(i, *t) + (i == 3 and t == (2, 2, 2))
    )
    code, out, _ = run_cli(capsys, "classify", "--d", "5")
    assert code == 1
    assert '"ubc_pass": false' in out


def test_examples_command(capsys):
    code, out, _ = run_cli(capsys, "examples")
    data = json.loads(out)
    assert code == 0
    assert data["pass"] is True
    assert data["noncubical_witness"]["facets_with_more_than_8_vertices"] == [12]


def test_surgery_command(capsys):
    code, out, _ = run_cli(capsys, "surgery")
    data = json.loads(out)
    assert code == 0
    assert data["f_vector"] == [64, 196, 198, 66]
    assert len(data["facets"]) == 66
    assert data["chain_edge_degrees"] == [4, 4, 4, 4, 5, 5, 5, 5]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "facets.json"
    code, out, _ = run_cli(capsys, "facets", "--n", "4", "--d", "2", "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["count"] == 16


@pytest.mark.parametrize(
    "where,error",
    [("missing/f.json", "FileNotFoundError"), (".", "IsADirectoryError")],
    ids=["missing-dir", "directory"],
)
def test_unwritable_output_is_a_structured_error(tmp_path, capsys, where, error):
    target = tmp_path / where
    code, out, err = run_cli(capsys, "fvector", "--n", "4", "--d", "3", "--output", str(target))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == error
    assert not (tmp_path / "missing").exists()


def test_bad_arguments_exit_nonzero(capsys):
    with pytest.raises(SystemExit):
        main(["facets", "--n", "notanumber", "--d", "2"])


def test_verify_handles_n_equals_d(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "5", "--d", "5")
    data = json.loads(out)
    assert code == 0
    assert data["pass"] is True
    assert data["f_vector"] == [32, 80, 80, 40, 10]


def test_fvector_n_equals_d_is_fast(capsys):
    code, out, _ = run_cli(capsys, "fvector", "--n", "6", "--d", "6")
    data = json.loads(out)
    assert code == 0
    assert data["f_vector"][0] == 64 and data["f_vector"][-1] == 12


def test_invalid_parameters_are_structured_errors(capsys):
    code, out, err = run_cli(capsys, "facets", "--n", "2", "--d", "5")
    assert code == 1
    assert json.loads(err)["error"] == "ValueError"


def test_verify_refuses_negative_r(capsys):
    code, out, err = run_cli(capsys, "verify", "--n", "5", "--d", "4", "--r", "-1")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "ValueError"


def test_surgery_deterministic(capsys):
    _, first, _ = run_cli(capsys, "surgery")
    _, second, _ = run_cli(capsys, "surgery")
    assert first == second


# exit code and sha256 of stdout of each command, recorded from the code
# that graded faces by affine rank and labeled cube vertices by rational
# evaluation: reading all incidence from the hull must not change a byte
RECORDED_OUTPUTS = [
    ("verify --n 4 --d 2", 0,
     "ecca37c775b62db31321fd15d4e402b5dfa0d5d755fa338b39bc97bb743734a4"),
    ("verify --n 5 --d 4", 0,
     "8a69583f9d4f3c2f518409450cb3dd751b3c2512c263ed7499fcba70df566c53"),
    ("verify --n 6 --d 4", 0,
     "20d7e6a9fd63f86f706995f1a8023add334eb779065ae031cefdc2cdd4593f8c"),
    ("verify --n 6 --d 5", 0,
     "17848025f7342a6900b85518bc1ec52d4a4bfcfbb5966ca35d5b945e4301e898"),
    ("verify --n 7 --d 4", 0,
     "faff64bc805c86084b89408ab818988c6d4a6e9376c60fc3ea6d46a6cdcfe3f9"),
    ("verify --n 8 --d 5", 0,
     "ad006e39fdcd6e1c39aeb500935e884c564d760cbf1595e38a98e2f7fb9dc218"),
    ("verify --n 8 --d 8", 0,
     "c43061c2a4a9a50647d5d5a237a5d024099543988be94db7a710350a46232067"),
    # the skeleton check at r = 2 on a shadow with n > d, and its break at r = 3
    ("verify --n 8 --d 6", 0,
     "1fd9d345b4a03d66ea9e593e0021b485c789a9da7056558c29e97cda96a37fdf"),
    ("verify --n 5 --d 4 --r 2", 1,
     "285c7a7286b547b5ece19ebffaa809bd6ac8811d08101cb67044365e6000e78c"),
    ("verify --n 6 --d 4 --epsilon 1", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fvector --n 7 --d 3", 0,
     "d8163f6d457f002240620d0b0814901a7059c6b3003ef122a0a95e304e5edeae"),
    ("construct --n 6 --d 4", 0,
     "740c7ef0bf32f4dae08edcdb8d24b4efe3f1346f95471c945be7191ad8a47982"),
    ("facets --n 7 --d 4 --format signed", 0,
     "ced76b9bf7f41f840d7ece4ac0405e7b0bce6f3b2682c99cadb39f1b6183ba58"),
    ("examples", 0,
     "874ff08fd4b9c53728c323fdce61bb14d9ebaec90d5c75efd7037cfcfc9af9fa"),
    ("surgery", 0,
     "4d2ded0e08c0d02eb81d485f3ca84d20ea2561b3230b927ba2c2a1ee3857445f"),
    ("classify --d 5", 0,
     "7f6c0e04475bcb3f09c938a2b1f8e9b22daf90dae5244c4a2f21d873a88d4e01"),
    # epsilon numerators other than 1, recorded from the code that built the
    # deformation rows over the rationals
    ("construct --n 7 --d 3 --epsilon 3/37", 0,
     "9f63b0c64ad4ec4d6e9ee26b9a4b03f7fa22ff00065878fe089ccae2c62082ca"),
    ("verify --n 5 --d 3 --epsilon 2/9", 0,
     "88f3663a06f329844a3969438241921b0d78e15102c8c6e6d29718f0fe9964f1"),
]


def _recorded_digest(capsys, command):
    got, out, _ = run_cli(capsys, *command.split())
    return hashlib.sha256(out.encode()).hexdigest(), got


@pytest.mark.parametrize("command,code,digest", RECORDED_OUTPUTS)
def test_output_matches_recording(capsys, command, code, digest):
    assert _recorded_digest(capsys, command) == (digest, code)


def test_surgery_builds_the_boundary_complex_once(capsys, monkeypatch):
    built = []
    original = surgery.from_cube_facets
    monkeypatch.setattr(
        surgery, "from_cube_facets", lambda facets: built.append(1) or original(facets)
    )
    digest = next(d for command, _, d in RECORDED_OUTPUTS if command == "surgery")
    assert _recorded_digest(capsys, "surgery") == (digest, 0)
    assert len(built) == 1


def test_shared_parser_keeps_no_state_between_calls(capsys):
    # the module's one parser serves every call: each recording still
    # matches, forward and reversed, with a usage error and a refused
    # --r between them, and the usage error reads the same each time
    usage_errors = []
    for i, (command, code, digest) in enumerate(RECORDED_OUTPUTS + RECORDED_OUTPUTS[::-1]):
        assert _recorded_digest(capsys, command) == (digest, code), command
        if i % 2 == 0:
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--n", "5", "--d", "4", "--epsilon", "abc"])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "not a rational: 'abc'" in err
            usage_errors.append(err)
        else:
            assert run_cli(capsys, "verify", "--n", "5", "--d", "4", "--r", "-1") == (
                1, "", '{"error": "ValueError", "message": "need r >= 0"}\n'
            )
    assert len(set(usage_errors)) == 1


def test_importing_the_package_builds_no_parser():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = "import sys, ncpoly; print('ncpoly.cli' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert (result.returncode, result.stdout) == (0, "False\n"), result.stderr


def _non_facet_cube_face(n, d, facets):
    # the smallest (d-1)-face of the n-cube, as a vertex mask, that is not a facet
    faces = (
        signvec.vertex_set(sv)
        for sv in product((-1, 0, 1), repeat=n)
        if n - sv.count(0) == n - d + 1
    )
    return min(f for f in faces if f not in facets)


def _drop_one_facet(facets, n, d):
    return set(sorted(facets)[1:])


def _swap_one_facet(facets, n, d):
    return _drop_one_facet(facets, n, d) | {_non_facet_cube_face(n, d, facets)}


@pytest.mark.parametrize("mutate", [_drop_one_facet, _swap_one_facet], ids=["dropped", "swapped"])
def test_verify_fails_when_the_combinatorial_facets_differ(capsys, monkeypatch, mutate):
    original = gale.facet_vertex_masks
    monkeypatch.setattr(gale, "facet_vertex_masks", lambda n, d: mutate(original(n, d), n, d))
    code, out, _ = run_cli(capsys, "verify", "--n", "5", "--d", "4")
    data = json.loads(out)
    assert code == 1
    assert data["checks"]["facets_match_combinatorial"] is False
    assert data["pass"] is False
    assert all(v for k, v in data["checks"].items() if k != "facets_match_combinatorial")
