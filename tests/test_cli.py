import json
from fractions import Fraction

import pytest

from patternrace import cli
from patternrace import solver as solver_mod
from patternrace.cli import main
from patternrace.model import ValidationReport
from patternrace.serialize import (
    parse_problem,
    parse_rational_str,
    rational_str,
    rf_from_obj,
    rf_to_obj,
    ParseError,
)
from patternrace.solver import solve_race

THREE_WAY = {
    "alphabet": [
        {"symbol": "H", "prob": "1/2"},
        {"symbol": "T", "prob": "1/2"},
    ],
    "patterns": ["THH", "HTH", "HHT"],
}


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(THREE_WAY))
    return str(path)


def write_problem(tmp_path, obj, name="p.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_validate_ok(problem_file, capsys):
    assert main(["validate", problem_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is True


def test_validate_containment(tmp_path, capsys):
    obj = dict(THREE_WAY, patterns=["TH", "THH"])
    path = write_problem(tmp_path, obj)
    assert main(["validate", path]) == 2
    out = json.loads(capsys.readouterr().out)
    assert not out["valid"]
    assert any("subpattern" in v["message"] for v in out["violations"])


def test_parse_error_bad_rational(tmp_path, capsys):
    obj = {"alphabet": [{"symbol": "H", "prob": "1/0"},
                        {"symbol": "T", "prob": "1/2"}],
           "patterns": ["H"]}
    path = write_problem(tmp_path, obj)
    assert main(["validate", path]) == 3


def test_parse_error_corrupt_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 3


def test_parse_error_missing_file(tmp_path):
    assert main(["validate", str(tmp_path / "missing.json")]) == 3


def test_race_three_way(problem_file, capsys):
    assert main(["race", problem_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["win_probs"] == ["5/12", "1/3", "1/4"]
    assert out["expected_tau"] == "31/6"
    assert out["metadata"]["input_digest"]


def test_race_with_initial(tmp_path, capsys):
    obj = dict(THREE_WAY, initial="H")
    path = write_problem(tmp_path, obj)
    assert main(["race", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["win_probs"] == ["1/6", "1/3", "1/2"]


def test_race_oracle_agreement(problem_file, capsys):
    assert main(["race", problem_file, "--oracle", "--series", "20"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["oracle"]["agree"] is True
    assert out["oracle"]["series_agree"] is True
    assert out["series"]["horizon"] == 20


def test_race_series_zero_with_absorbing_start(tmp_path, capsys):
    obj = dict(THREE_WAY, initial="HTH")
    path = write_problem(tmp_path, obj)
    assert main(["race", path, "--series", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["series"]["per_pattern"][1][0] == "1"


def test_race_table_output(problem_file, capsys):
    assert main(["race", problem_file, "--table"]) == 0
    out = capsys.readouterr().out
    assert "5/12" in out and "31/6" in out


def test_race_json_roundtrip(problem_file, capsys):
    assert main(["race", problem_file, "--series", "10"]) == 0
    out = json.loads(capsys.readouterr().out)
    problem = parse_problem(json.dumps(THREE_WAY))
    sol = solve_race(problem)
    assert tuple(parse_rational_str(p) for p in out["win_probs"]) == sol.win_probs
    assert parse_rational_str(out["expected_tau"]) == sol.expected_tau
    assert rf_from_obj(out["q_tau"]) == sol.q_tau
    assert rf_from_obj(out["g_total"]) == sol.g_total
    for obj_g, g in zip(out["g_per_pattern"], sol.g_per_pattern):
        assert rf_from_obj(obj_g) == g
    # rf serialization round-trips on its own too
    assert rf_from_obj(rf_to_obj(sol.q_tau)) == sol.q_tau


def test_correlate(problem_file, capsys):
    assert main(["correlate", problem_file, "--a", "THTH", "--b", "THTH",
                 "--alpha", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == "20"
    assert out["terms"] == {"-2": "4", "-4": "16"}

    assert main(["correlate", problem_file, "--a", "THH", "--b", "THTH"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["terms"] == {}

    assert main(["correlate", problem_file, "--a", "THH", "--b", "THH",
                 "--alpha", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == "8"


def test_simulate(problem_file, capsys):
    assert main(["simulate", problem_file, "--reps", "2000", "--seed", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["truncated"] == 0
    for row in out["patterns"]:
        assert abs(row["z_score"]) < 5


def test_simulate_zero_reps(problem_file):
    assert main(["simulate", problem_file, "--reps", "0"]) == 2


def test_martingale_ok(tmp_path, capsys):
    obj = dict(THREE_WAY, patterns=["THTH"], initial="THH")
    path = write_problem(tmp_path, obj)
    assert main(["martingale", path, "--alpha", "9/10", "--reps", "500",
                 "--seed", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["violations"] == []
    alpha = Fraction(9, 10)
    assert parse_rational_str(out["y0_exact"]) == (1 - alpha ** 3) / (1 - alpha)


def test_martingale_alpha_must_be_interior(problem_file):
    assert main(["martingale", problem_file, "--alpha", "1",
                 "--reps", "10"]) == 2


def test_parse_problem_rejects_float_probs():
    with pytest.raises(ParseError):
        parse_problem(json.dumps({
            "alphabet": [{"symbol": "H", "prob": 0.5},
                         {"symbol": "T", "prob": 0.5}],
            "patterns": ["H"],
        }))


def test_parse_problem_token_lists():
    obj = {
        "alphabet": [{"symbol": "heads", "prob": "1/2"},
                     {"symbol": "tails", "prob": "1/2"}],
        "patterns": [["tails", "heads"]],
    }
    problem = parse_problem(json.dumps(obj))
    assert problem.patterns[0].letters == (1, 0)
    # string shorthand requires single-character symbols
    with pytest.raises(ParseError):
        parse_problem(json.dumps(dict(obj, patterns=["th"])))


def _strict_json(text):
    """Parse JSON, rejecting the NaN and Infinity extensions."""
    def reject(token):
        raise ValueError(f"not JSON: {token}")
    return json.loads(text, parse_constant=reject)


def test_race_alpha_at_pole(tmp_path, capsys):
    path = write_problem(tmp_path, dict(THREE_WAY, initial="H"))
    assert main(["race", path, "--alpha", "2"]) == 2
    assert "pole" in capsys.readouterr().err


def test_race_negative_digits(problem_file, capsys):
    assert main(["race", problem_file, "--digits", "-3"]) == 2
    assert "--digits" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("alphabet", 5), ("patterns", "HT")])
def test_parse_error_non_list_fields(tmp_path, capsys, key, value):
    path = write_problem(tmp_path, dict(THREE_WAY, **{key: value}))
    assert main(["race", path]) == 3
    assert key in capsys.readouterr().err


def test_martingale_no_completed_replicate_is_json(problem_file, capsys):
    assert main(["martingale", problem_file, "--alpha", "1/2", "--reps", "3",
                 "--max-steps", "1"]) == 0
    out = _strict_json(capsys.readouterr().out)
    assert out["truncated"] == 3
    assert out["empirical_mean"] is None
    assert out["std_error"] is None


def test_race_degenerate_collection(tmp_path, capsys, monkeypatch):
    # A repeated pattern gives a singular system; validation would reject
    # it first, so it is bypassed to reach the solver's own guard.
    monkeypatch.setattr(cli, "validate_race", lambda problem: ValidationReport())
    monkeypatch.setattr(solver_mod, "require_valid", lambda problem: None)
    path = write_problem(tmp_path, dict(THREE_WAY, patterns=["HH", "HH"]))
    assert main(["race", path]) == 2
    assert "degenerate" in capsys.readouterr().err


def test_rational_str_past_int_str_digit_limit():
    n = 10 ** 5000 - 3  # 5000 digits: 9...97
    digits = "9" * 4999 + "7"
    assert rational_str(Fraction(n)) == digits
    assert rational_str(Fraction(-n, 2)) == f"-{digits}/2"
