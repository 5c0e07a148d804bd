import json

import pytest

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


def test_surgery_deterministic(capsys):
    _, first, _ = run_cli(capsys, "surgery")
    _, second, _ = run_cli(capsys, "surgery")
    assert first == second
