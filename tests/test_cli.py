import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from patternrace import cli
from patternrace import model as model_mod
from patternrace import oracle as oracle_mod
from patternrace import serialize as serialize_mod
from patternrace import solver as solver_mod
from patternrace.cli import main
from patternrace.algebra import RationalFunc
from patternrace.serialize import (
    MAX_DIGITS,
    MAX_SERIES,
    parse_problem,
    parse_rational_str,
    rational_str,
    rf_to_obj,
    scaled_printer,
    write_json,
    ParseError,
)
from patternrace.solver import solve_race

import martingale_reference
from conftest import corrupt_solution, rf_from_obj
from rf_field import RF

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


@pytest.mark.parametrize("command", ["validate", "race"])
def test_empty_pattern_list_is_a_violation(tmp_path, capsys, command):
    path = write_problem(tmp_path, dict(THREE_WAY, patterns=[]))
    assert main([command, path]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == {"valid": False, "violations": [
        {"code": "no-patterns", "message": "at least one competing pattern required",
         "indices": []}]}


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


def test_parse_error_not_utf8(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(THREE_WAY).encode("utf-16-le"))
    assert main(["validate", str(path)]) == 3
    assert "parse error: " in capsys.readouterr().err


def test_parse_error_deep_nesting(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert main(["validate", str(path)]) == 3
    assert "parse error: " in capsys.readouterr().err


def test_parse_error_huge_integer_literal(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(dict(THREE_WAY, initial=0)).replace("0}", "9" * 5000 + "}"))
    assert main(["validate", str(path)]) == 3
    assert "parse error: " in capsys.readouterr().err


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


@pytest.mark.parametrize("series", [[], ["--series", "3"]])
@pytest.mark.parametrize("which, name", [
    ("q_tau", "q_tau"), ("g_total", "g_total"), ("g_1", "g_1 (THH)")])
def test_race_oracle_catches_a_corrupted_function(problem_file, capsys, monkeypatch,
                                                  which, name, series):
    # The raised coefficient lies past --series 3, where no series
    # comparison can see it; only the certificate of the whole function can.
    bad, index = corrupt_solution(solve_race(parse_problem(json.dumps(THREE_WAY))), which)
    assert index > 3
    monkeypatch.setattr(solver_mod, "solve_race", lambda problem: bad)
    assert main(["race", problem_file, "--oracle"] + series) == 4
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"oracle disagreement: {name} coefficient {index}: ")
    oracle = json.loads(captured.out)["oracle"]
    assert oracle["agree"] is False
    assert oracle["win_probs"] is None and oracle["expected_tau"] is None


def test_race_oracle_catches_a_wrong_win_probability(problem_file, capsys, monkeypatch):
    sol = solve_race(parse_problem(json.dumps(THREE_WAY)))
    bad = sol._replace(win_probs=(Fraction(1, 2),) + sol.win_probs[1:])
    monkeypatch.setattr(solver_mod, "solve_race", lambda problem: bad)
    assert main(["race", problem_file, "--oracle"]) == 4
    assert capsys.readouterr().err == ("oracle disagreement: win probability of THH: "
                                       "closed form 1/2, oracle 5/12\n")


def test_race_oracle_names_a_corrupted_series_entry(problem_file, capsys, monkeypatch):
    # Every function is certified, so only the series comparison sees it.
    series = solver_mod.series

    def bad_series(problem, n, solution=None):
        t = series(problem, n, solution)
        col = t.columns[0]
        return t._replace(columns=(col[:5] + (col[5] + 1,) + col[6:],)
                          + t.columns[1:])

    monkeypatch.setattr(solver_mod, "series", bad_series)
    assert main(["race", problem_file, "--oracle", "--series", "8"]) == 4
    captured = capsys.readouterr()
    # P(tau = 5, THH wins) = 1/16 in the three-way coin race
    assert captured.err == ("oracle disagreement: series per_pattern[0] (THH) "
                            "coefficient 5: closed form 3/32, oracle 1/16\n")
    oracle = json.loads(captured.out)["oracle"]
    assert oracle["agree"] is True and oracle["series_agree"] is False
    assert oracle["win_probs"] == ["5/12", "1/3", "1/4"]


def test_race_oracle_names_a_function_before_its_series(problem_file, capsys,
                                                        monkeypatch):
    # The series runs past the raised coefficient, so both the function's
    # certificate and the table comparison fail; stderr names the function.
    bad, index = corrupt_solution(solve_race(parse_problem(json.dumps(THREE_WAY))), "g_1")
    monkeypatch.setattr(solver_mod, "solve_race", lambda problem: bad)
    assert main(["race", problem_file, "--oracle", "--series", str(index)]) == 4
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"oracle disagreement: g_1 (THH) coefficient {index}: ")
    oracle = json.loads(captured.out)["oracle"]
    assert oracle["agree"] is False and oracle["series_agree"] is False


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


def test_race_table_prints_the_oracle_verdict(problem_file, capsys):
    assert main(["race", problem_file, "--oracle", "--table"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "oracle agreement: True"


def test_race_table_honours_digits(problem_file, capsys):
    assert main(["race", problem_file, "--table", "--digits", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "expected waiting time: 31/6 = 5.17"
    assert lines[2].split() == ["THH", "5/12", "0.417"]
    assert lines[4].split() == ["HHT", "1/4", "0.25"]


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


def test_correlate_multi_character_symbols(tmp_path, capsys):
    # Patterns over multi-character symbols are written space-separated,
    # as race prints them.
    path = write_problem(tmp_path, {
        "alphabet": [{"symbol": "up", "prob": "1/2"}, {"symbol": "dn", "prob": "1/2"}],
        "patterns": [["up", "dn", "up"], ["dn", "dn"]]})
    assert main(["correlate", path, "--a", "up dn up", "--b", "up dn up"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["a"] == "up dn up"
    assert out["terms"] == {"-3": "8", "-1": "2"}
    assert main(["correlate", path, "--a", "up xx", "--b", "up dn up"]) == 3
    assert "bad pattern" in capsys.readouterr().err


def test_simulate(problem_file, capsys):
    assert main(["simulate", problem_file, "--reps", "2000", "--seed", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["truncated"] == 0
    for row in out["patterns"]:
        assert abs(row["z_score"]) < 5


def test_simulate_zero_reps(problem_file):
    assert main(["simulate", problem_file, "--reps", "0"]) == 2


@pytest.mark.parametrize("max_steps", ["0", "-5"])
@pytest.mark.parametrize("argv", [
    ["simulate", "--reps", "3"],
    ["martingale", "--alpha", "1/2", "--reps", "3"],
])
def test_max_steps_below_one_is_usage_error(problem_file, capsys, argv, max_steps):
    assert main([argv[0], problem_file] + argv[1:] + ["--max-steps", max_steps]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-steps must be >= 1" in captured.err


@pytest.mark.parametrize("argv", [
    ["simulate", "--reps", "3"],
    ["martingale", "--alpha", "1/2", "--reps", "3"],
    ["simulate", "--reps", "5000"],
])
def test_sampling_in_a_fresh_process(problem_file, capsys, argv):
    # A fresh process has seeded no generator from a str before the
    # command runs; Python 3.13 binds random's sha512 only on such a seed.
    # With 2 or more CPUs, 5,000 replicates run in forked parts.
    argv = [argv[0], problem_file] + argv[1:]
    assert main(argv) == 0
    src = os.path.dirname(os.path.dirname(cli.__file__))
    run = subprocess.run([sys.executable, "-m", "patternrace.cli"] + argv,
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert (run.returncode, run.stdout) == (0, capsys.readouterr().out)


def test_martingale_ok(tmp_path, capsys):
    obj = dict(THREE_WAY, patterns=["THTH"], initial="THH")
    path = write_problem(tmp_path, obj)
    assert main(["martingale", path, "--alpha", "9/10", "--reps", "500",
                 "--seed", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["violations"] == []
    alpha = Fraction(9, 10)
    assert parse_rational_str(out["y0_exact"]) == (1 - alpha ** 3) / (1 - alpha)


@pytest.mark.parametrize("obj, argv, code, message", [
    (THREE_WAY, ["correlate", "--a", "H", "--b", "H", "--alpha", "0"], 2,
     "usage error: --alpha must be positive"),
    (dict(THREE_WAY, patterns=["THH", "HTH"]),
     ["martingale", "--pattern-index", "2", "--alpha", "1/2", "--reps", "1"], 2,
     "usage error: --pattern-index out of range 0..1"),
    (dict(THREE_WAY, alphabet=[{"symbol": "H"}, THREE_WAY["alphabet"][1]]), ["race"], 3,
     "parse error: alphabet entries need 'symbol' and 'prob'"),
], ids=["correlate alpha 0", "pattern index out of range", "entry without prob"])
def test_error_exits_with_one_line(tmp_path, capsys, obj, argv, code, message):
    path = write_problem(tmp_path, obj)
    assert main([argv[0], path] + argv[1:]) == code
    assert capsys.readouterr() == ("", message + "\n")


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


NINES = "9" * 5000  # past sys.get_int_max_str_digits()


# The three-way race from H, and the race for "a" with P(a) = 1/10**5000,
# whose pole 10**5000/(10**5000 - 1) prints past the int-to-str limit.
POLES = [
    (dict(THREE_WAY, initial="H"), "2"),
    ({"alphabet": [{"symbol": "a", "prob": "1/1" + "0" * 5000},
                   {"symbol": "b", "prob": NINES + "/1" + "0" * 5000}],
      "patterns": ["a"]}, "1" + "0" * 5000 + "/" + NINES),
]


def test_race_alpha_at_pole(tmp_path, capsys):
    for number, (problem, alpha) in enumerate(POLES):
        path = write_problem(tmp_path, problem, f"p{number}.json")
        assert main(["race", path, "--alpha", alpha]) == 2
        assert capsys.readouterr().err == f"usage error: --alpha {alpha} is a pole: " \
                                          f"denominator vanishes at alpha = {alpha}\n"


def test_digits_flag_is_the_only_precision_setting(problem_file, capsys, monkeypatch):
    monkeypatch.setenv("PATTERNRACE_DIGITS", "3")
    assert main(["race", problem_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["win_probs_decimal"] == ["0.416666666667", "0.333333333333", "0.25"]
    assert out["expected_tau_decimal"] == "5.16666666667"


def test_race_negative_digits(problem_file, capsys):
    assert main(["race", problem_file, "--digits", "-3"]) == 2
    assert "--digits" in capsys.readouterr().err


@pytest.mark.parametrize("digits, code", [(MAX_DIGITS, 0), (MAX_DIGITS + 1, 2), (10 ** 18, 2)])
def test_race_digits_bound(problem_file, capsys, digits, code):
    assert main(["race", problem_file, "--digits", str(digits)]) == code
    if code:
        assert capsys.readouterr().err == \
            f"usage error: --digits must be between 1 and {MAX_DIGITS}\n"
    else:
        out = json.loads(capsys.readouterr().out)
        assert len(out["expected_tau_decimal"]) == MAX_DIGITS + 1  # 5.1666...7


@pytest.mark.parametrize("horizon", [-1, MAX_SERIES + 1, 10 ** 20])
def test_race_series_bound(tmp_path, capsys, horizon):
    # The horizon is checked before the input is read: the file is missing.
    missing = str(tmp_path / "missing.json")
    assert main(["race", missing, "--series", str(horizon)]) == 2
    assert capsys.readouterr().err == \
        f"usage error: --series horizon must be between 0 and {MAX_SERIES}\n"


def test_race_series_at_the_cap(problem_file, capsys):
    assert main(["race", problem_file, "--series", str(MAX_SERIES)]) == 0
    assert json.loads(capsys.readouterr().out)["series"]["horizon"] == MAX_SERIES


@pytest.mark.parametrize("key, value", [("alphabet", 5), ("patterns", "HT")])
def test_parse_error_non_list_fields(tmp_path, capsys, key, value):
    path = write_problem(tmp_path, dict(THREE_WAY, **{key: value}))
    assert main(["race", path]) == 3
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("patterns", [{"T": 1, "H": 2}, "HH"]),
    ("initial", {"H": 0}),
])
def test_object_pattern_is_parse_error(tmp_path, capsys, key, value):
    # Read as the list of its keys, the object would pose the race TH
    # against HH, or the initial word H.
    path = write_problem(tmp_path, dict(THREE_WAY, **{key: value}))
    assert main(["race", path]) == 3
    assert "not a string or a list of symbols" in capsys.readouterr().err


def test_martingale_no_completed_replicate_is_json(problem_file, capsys):
    assert main(["martingale", problem_file, "--alpha", "1/2", "--reps", "3",
                 "--max-steps", "1"]) == 0
    out = _strict_json(capsys.readouterr().out)
    assert out["truncated"] == 3
    assert out["empirical_mean"] is None
    assert out["std_error"] is None


def test_rational_str_past_int_str_digit_limit():
    n = 10 ** 5000 - 3  # 5000 digits: 9...97
    digits = "9" * 4999 + "7"
    assert rational_str(Fraction(n)) == digits
    assert rational_str(Fraction(-n, 2)) == f"-{digits}/2"


# d**s < 2**60 <= d**(s+1) for each d; 1 and the two large moduli give
# s = horizon and s = 0.
PRINTER_MODULI = [1, 2, 6, 9, 12, 1000, 2 ** 61 - 1, (2 ** 89 - 1) * (2 ** 107 - 1)]


@pytest.mark.parametrize("d", PRINTER_MODULI)
def test_scaled_printer_equals_rational_str(d, monkeypatch):
    horizon = 80
    s = next((k for k in range(horizon + 1) if d ** (k + 1) >= 2 ** 60), horizon)
    calls = 0

    def counting_gcd(a, b):
        nonlocal calls
        calls += 1
        return math.gcd(a, b)

    monkeypatch.setattr(serialize_mod, "gcd", counting_gcd)
    show = scaled_printer(d, horizon)
    rng = random.Random(f"printer:{d}")
    cases = [(0, n) for n in (0, s, horizon)]
    cases += [(rng.getrandbits(rng.randint(1, 2000)), rng.randint(0, horizon))
              for _ in range(200)]
    # C = d**k * u with k > s: gcd(C, d**s) leaves a factor shared with d,
    # and k up to the horizon makes the fallback double its exponent
    cases += [(d ** k * rng.randint(1, 10 ** 6), rng.randint(k - 1, horizon))
              for k in (rng.randint(s + 1, horizon) for _ in range(100) if s < horizon)]
    fallbacks = 0
    for c, n in cases:
        before = calls
        assert show(c, n) == rational_str(Fraction(c, d ** n))
        # Past d**s one gcd checks the cofactor; only the fallback, a gcd
        # with a higher power of d, takes more.
        full = c and n > s and math.gcd(c // math.gcd(c, d ** s), d) > 1
        used = calls - before
        assert used >= 3 if full else used == (0 if not c else 1 if n <= s else 2)
        fallbacks += bool(full)
    assert fallbacks > 0 if s < horizon else fallbacks == 0


INT_LIMIT = sys.get_int_max_str_digits()
# Integers of INT_LIMIT + 11 digits, past the int-to-str limit
past_limit = st.integers(1, 9).map(lambda v: v * 10 ** (INT_LIMIT + 10) + 7)
printer_coeffs = st.integers(-10 ** 6, 10 ** 6) | past_limit | past_limit.map(lambda v: -v)


def monic_strs(rf):
    lc = rf.iden[-1]
    return {"num": [rational_str(Fraction(c, lc)) for c in rf.inum],
            "den": [rational_str(Fraction(c, lc)) for c in rf.iden]}


@settings(max_examples=100, deadline=None)
@given(st.lists(printer_coeffs, max_size=4),
       st.lists(printer_coeffs, min_size=1, max_size=4).filter(any))
@example([-3, 5, 0], [2, 6])
def test_rf_to_obj_equals_rational_str(num, den):
    rf = RationalFunc(num, den)
    assert rf_to_obj(rf) == monic_strs(rf)


def test_rf_to_obj_past_int_str_digit_limit():
    big = 10 ** (INT_LIMIT + 1)
    rf = RationalFunc((big + 3, -1, 5), (7, big + 9))
    with pytest.raises(ValueError):
        str(rf.iden[-1])
    obj = rf_to_obj(rf)
    assert obj == monic_strs(rf)
    assert obj["den"][-1] == "1" and obj["num"][1].startswith("-1/")


def test_scaled_printer_past_int_str_digit_limit():
    show = scaled_printer(1000, 1600)
    c = 7 * 10 ** 4600 + 3
    assert show(c, 1500) == rational_str(Fraction(c, 1000 ** 1500))
    assert show(10 ** 4800, 1500) == "1" + "0" * 300


def dumps_by_writer(obj) -> str:
    parts = []
    write_json(obj, parts.append)
    return "".join(parts)


CHUNK = serialize_mod._CHUNK
# Strings that need escaping: a quote, a backslash, control characters,
# DEL, non-ASCII text, a line separator and a lone surrogate.
ESCAPED = ['"', "\\", "\n\t\x00\x1f", "\x7f", "é", "\u2028", "\ud800", "a\"b\\c"]
WRITER_CORPUS = [
    {}, [], (), [[]], [{}], {"a": []}, {"a": {}}, [[1, [2, ()]], (3, (4,))],
    True, False, None, 0, -7, 10 ** 40, 0.1, -0.0, 1e300, 5e-324,
    math.nan, math.inf, -math.inf, [math.nan, -math.inf, 2.5],
    "", "plain", ESCAPED, {s: s for s in ESCAPED},
    ["1/2", 3, None, "x"], [["a", "b"], ["c"]], ("a", "b"),
] + [[f"{i}/7" for i in range(n - 1)] + [last]
     for n in (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1) for last in ("0", '"', "é", "\\")]


def random_json(rng: random.Random, depth: int = 0):
    pick = rng.randrange(9 if depth < 4 else 5)
    if pick == 0:
        return rng.choice([None, True, False, math.nan, math.inf, -math.inf, -0.0])
    if pick == 1:
        return rng.randint(-10 ** 30, 10 ** 30)
    if pick == 2:
        return rng.uniform(-1e6, 1e6)
    if pick in (3, 4):
        return "".join(rng.choice(["a", "7", "/", " "] + ESCAPED)
                       for _ in range(rng.randint(0, 4)))
    if pick == 5:
        # A string list around the chunk size, mostly of plain strings.
        return [rng.choice(["1/3", "42", "-5/8"] * 20 + ESCAPED)
                for _ in range(rng.randint(0, 3 * CHUNK))]
    items = [random_json(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    if pick == 6:
        return tuple(items)
    if pick == 7:
        return items
    return {f"k{i}{rng.choice(ESCAPED)}": v for i, v in enumerate(items)}


@pytest.mark.parametrize("obj", WRITER_CORPUS)
def test_write_json_equals_json_dumps(obj):
    assert dumps_by_writer(obj) == json.dumps(obj, indent=2)


def test_write_json_equals_json_dumps_on_random_objects():
    rng = random.Random("write_json")
    for _ in range(300):
        obj = random_json(rng)
        assert dumps_by_writer(obj) == json.dumps(obj, indent=2)


# Fraction(0) is falsy, so it must not print as an empty container.
@pytest.mark.parametrize("obj", [Fraction(1, 2), Fraction(0), {1, 2}, b"x"])
def test_write_json_rejects_what_json_rejects(obj):
    with pytest.raises(TypeError):
        json.dumps(obj)
    with pytest.raises(TypeError):
        dumps_by_writer([obj])


# ---------------------------------------------------------------------------
# invalid problems, martingale violations and work per job


@pytest.mark.parametrize("argv", [
    ["race"],
    ["race", "--oracle", "--series", "5"],
    ["simulate", "--reps", "10"],
    ["martingale", "--alpha", "1/2", "--reps", "10"],
    ["correlate", "--a", "H", "--b", "H"],
])
def test_invalid_problem_reports_like_validate(tmp_path, capsys, argv):
    path = write_problem(tmp_path, dict(THREE_WAY, patterns=["HT", "HTH"]))
    assert main(["validate", path]) == 2
    expected = json.loads(capsys.readouterr().out)
    assert expected["valid"] is False and expected["violations"]
    assert main([argv[0], path] + argv[1:]) == 2
    assert json.loads(capsys.readouterr().out) == expected


def test_martingale_violation_exits_5(problem_file, capsys, monkeypatch):
    # P(b) = 1, the largest valid pattern probability, puts the pathwise
    # bound at 1 / (1 - alpha) = 2, which a heavy live weight breaks from
    # below.
    for module in (oracle_mod, martingale_reference):
        monkeypatch.setattr(module, "pattern_prob", lambda b, alphabet: Fraction(1))
    assert main(["martingale", problem_file, "--alpha", "1/2", "--reps", "10",
                 "--seed", "4"]) == 5
    violations = [tuple(v) for v in json.loads(capsys.readouterr().out)["violations"]]
    ref = martingale_reference.martingale_check(parse_problem(json.dumps(THREE_WAY)), 0,
                                                Fraction(1, 2), 10, seed=4)
    assert violations == list(ref.violations) == [(4, 4), (6, 2), (6, 3)]


def _count_calls(monkeypatch, *functions):
    """Count the calls of each function, wherever patternrace holds it."""
    counts = {f.__name__: 0 for f in functions}
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "patternrace" or n.startswith("patternrace."))]
    for original in functions:
        def counted(*args, _original=original, **kwargs):
            counts[_original.__name__] += 1
            return _original(*args, **kwargs)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return counts


@pytest.mark.parametrize("argv, validations, automata", [
    (["race"], 1, 0),
    (["race", "--series", "8", "--oracle"], 1, 1),
    (["simulate", "--reps", "20"], 1, 1),
    (["martingale", "--alpha", "1/2", "--reps", "20"], 1, 1),
])
def test_validations_and_automata_per_job(problem_file, capsys, monkeypatch,
                                          argv, validations, automata):
    counts = _count_calls(monkeypatch, model_mod.validate_race,
                          oracle_mod.build_automaton)
    assert main([argv[0], problem_file] + argv[1:]) == 0
    capsys.readouterr()
    assert counts == {"validate_race": validations, "build_automaton": automata}


def test_parse_rational_past_int_str_digit_limit():
    for x in (Fraction(10 ** 5000 - 3, 7), Fraction(-7, 10 ** 5000 - 3)):
        assert parse_rational_str(rational_str(x)) == x
    rf = RF((Fraction(10 ** 5000 - 3, 7), Fraction(1, 3)),
            (Fraction(1), Fraction(-1, 2)))
    assert rf_from_obj(rf_to_obj(rf)) == rf


# One short job of each subcommand on a problem over the letters a and b.
EVERY_COMMAND = [
    ["validate"], ["race"], ["simulate", "--reps", "3"],
    ["martingale", "--alpha", "1/2", "--reps", "3"],
    ["correlate", "--a", "b", "--b", "b"],
]


@pytest.mark.parametrize("symbol", [["a"], {"a": 1}])
@pytest.mark.parametrize("argv", EVERY_COMMAND)
def test_unhashable_symbol_is_parse_error(tmp_path, capsys, symbol, argv):
    path = write_problem(tmp_path, {
        "alphabet": [{"symbol": symbol, "prob": "1/2"},
                     {"symbol": "b", "prob": "1/2"}],
        "patterns": ["b"]})
    assert main([argv[0], path] + argv[1:]) == 3
    assert "symbol must be a non-empty string" in capsys.readouterr().err


@pytest.mark.parametrize("probs, message", [
    (["-1/" + NINES, "1/2"], "probability of 'a' must be positive, got -1/" + NINES),
    (["1/" + NINES, "1/2"],
     "probabilities sum to 1" + "0" * 4999 + "1/1" + "9" * 4999 + "8, not 1"),
], ids=["negative", "sum"])
@pytest.mark.parametrize("argv", EVERY_COMMAND)
def test_bad_alphabet_past_int_str_digit_limit(tmp_path, capsys, probs, message, argv):
    path = write_problem(tmp_path, {
        "alphabet": [{"symbol": "a", "prob": probs[0]}, {"symbol": "b", "prob": probs[1]}],
        "patterns": ["b"]})
    assert main([argv[0], path] + argv[1:]) == 3
    assert capsys.readouterr().err == f"parse error: bad alphabet: {message}\n"


@pytest.mark.parametrize("value", [True, False])
def test_boolean_is_not_a_rational(tmp_path, capsys, value):
    with pytest.raises(ParseError):
        parse_rational_str(value)
    path = write_problem(tmp_path, {
        "alphabet": [{"symbol": "a", "prob": value}], "patterns": ["aa"]})
    assert main(["race", path]) == 3
    assert "not accepted as rationals" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the exit-code contract on generated JSON shapes and flag values: any
# input exits 0, 2, 3, 4 or 5 and never prints a traceback.  Sizes stay
# small: at most 3 patterns of at most 6 letters, series and reps <= 20.

HUGE = "<huge>"  # stands for a 5,000-digit integer, past json's default limit
JUNK = ["", "1/0", "1e3", "9" * 5000]
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(10 ** 30, 10 ** 40),
    st.floats(), st.sampled_from(["", "H", "HT", "1/3", "1/0", "-1/2", HUGE]))
json_values = st.recursive(
    scalars,
    lambda c: st.lists(c, max_size=3)
    | st.dictionaries(st.sampled_from(["H", "symbol", "prob"]), c, max_size=2),
    max_leaves=5)
words = st.text("HT", min_size=1, max_size=6)
letters = st.fixed_dictionaries({
    "symbol": st.sampled_from(["H", "T"]) | scalars,
    "prob": st.sampled_from(["1/2", "1/3", "2/3"]) | scalars})


def replace(problem, key, value):
    """problem with key (or the whole problem, for None) set to value."""
    return value if key is None else dict(problem, **{key: value})


well_formed = st.fixed_dictionaries(
    {"alphabet": st.sampled_from([THREE_WAY["alphabet"], [{"symbol": "H", "prob": "1/3"},
                                                          {"symbol": "T", "prob": "2/3"}]]),
     "patterns": st.lists(words, min_size=1, max_size=3)},
    optional={"initial": words})
shapes = st.one_of(
    json_values, st.lists(letters, max_size=3),
    st.lists(words | st.lists(st.sampled_from("HT"), max_size=6) | json_values,
             min_size=1, max_size=3))
# Half well formed; otherwise one part, or the whole problem, of any shape.
problems = well_formed | st.builds(
    replace, well_formed, st.sampled_from(["alphabet", "patterns", "initial", None]), shapes)


def flag(name, values):
    """[name, value] for a value from values (None: the flag is absent) or
    JUNK; values come simplest first, since Hypothesis favours the head."""
    return st.sampled_from([[] if v is None else [name, str(v)] for v in values + JUNK])


def command(name, *flags):
    return st.tuples(*flags).map(lambda fs: [name] + [a for f in fs for a in f])


alphas = ["9/10", "7/8", "3/4", "1/2", "1/3", "1", "2", "0", "-1"]
reps, max_steps = [*range(1, 21), 0, -1], [*range(1, 41), 0, -1]
argvs = st.one_of(
    command("race", flag("--series", [None, *range(21), -1]),
            flag("--digits", [None, *range(1, 31), 0, -1]), flag("--alpha", [None] + alphas),
            st.sampled_from([[], ["--oracle"], ["--table"]])),
    command("simulate", flag("--reps", reps), flag("--seed", [None, 0, 1, -1, 10 ** 20]),
            flag("--max-steps", [None] + max_steps)),
    command("martingale", flag("--pattern-index", [None, 0, 1, 2, 3, -1]),
            flag("--alpha", alphas), flag("--reps", reps), flag("--max-steps", [None] + max_steps)),
    command("correlate", flag("--a", ["H", "HT", "THH", "X"]), flag("--b", ["T", "HTH", "HH"]),
            flag("--alpha", [None] + alphas)),
    command("validate"),
)


@settings(max_examples=300, deadline=None)
@given(problem=problems, argv=argvs)
@example(problem=dict(THREE_WAY, patterns=[{"H": 1}, "HH"]), argv=["race"])
@example(problem=dict(THREE_WAY, initial={"H": 0}), argv=["race"])
@example(problem=dict(THREE_WAY, initial=HUGE), argv=["validate"])
@example(problem=THREE_WAY, argv=["simulate", "--reps", "3", "--max-steps", "0"])
def test_exit_code_contract(tmp_path_factory, problem, argv):
    path = tmp_path_factory.mktemp("fuzz") / "p.json"
    path.write_text(json.dumps(problem).replace(json.dumps(HUGE), "9" * 5000))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main([argv[0], str(path)] + argv[1:])
        except SystemExit as e:  # argparse rejects a flag
            code = e.code
    assert code in {0, 2, 3, 4, 5}
    assert "Traceback" not in err.getvalue()


def test_main_is_reentrant(problem_file, capsys):
    with pytest.raises(SystemExit) as bad_flag:
        main(["race", problem_file, "--no-such-flag"])
    assert bad_flag.value.code == 2
    assert main(["race", problem_file, "--series", "-1"]) == 2
    capsys.readouterr()
    outs = []
    for _ in range(2):
        assert main(["race", problem_file, "--oracle"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["oracle"]["agree"]
    assert cli.build_parser() is cli.build_parser()


def test_race_digest_hashes_the_bytes_read_from_stdin():
    data = json.dumps(THREE_WAY).encode()
    src = os.path.dirname(os.path.dirname(cli.__file__))
    run = subprocess.run([sys.executable, "-m", "patternrace.cli", "race", "/dev/stdin"],
                         input=data, capture_output=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    out = json.loads(run.stdout)
    assert out["metadata"]["input_digest"] == hashlib.sha256(data).hexdigest()


def test_cli_imports_only_the_standard_library():
    # Importing also builds no parser: main builds it on its first call.
    code = ("import json, sys; before = set(sys.modules); import patternrace.cli; "
            "print(json.dumps([sorted(set(sys.modules) - before), "
            "patternrace.cli.build_parser.cache_info().currsize]))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    modules, parsers = json.loads(run.stdout)
    top = {name.split(".")[0] for name in modules}
    assert "patternrace" in top
    assert top - {"patternrace"} <= sys.stdlib_module_names
    assert parsers == 0


@pytest.mark.parametrize("argv", EVERY_COMMAND + [["simulate", "--reps", "5000"]])
def test_only_race_loads_hashlib(tmp_path, argv):
    """In a fresh process, importing patternrace.cli loads no hashlib,
    and one main call loads it, with OpenSSL's libcrypto behind
    _hashlib, only for race's digest.  Neither loads multiprocessing,
    concurrent.futures, pickle or subprocess, not even for simulate's
    forked parts (5,000 replicates split on 2 or more CPUs).  The
    import loads neither dataclasses nor inspect: the records are
    NamedTuples."""
    path = write_problem(tmp_path, {
        "alphabet": [{"symbol": "a", "prob": "1/2"}, {"symbol": "b", "prob": "1/2"}],
        "patterns": ["b", "aa"]})
    program = ("import io, json, sys; before = set(sys.modules); "
               "import patternrace.cli; imported = set(sys.modules); sys.stdout = io.StringIO(); "
               f"code = patternrace.cli.main({[argv[0], path] + argv[1:]!r}); "
               "sys.stdout = sys.__stdout__; "
               "print(json.dumps([code, sorted(imported - before), "
               "sorted(set(sys.modules) - imported)]))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    run = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    code, by_import, by_call = json.loads(run.stdout)
    assert code == 0
    hashing = {"hashlib", "_hashlib"}
    assert not hashing & set(by_import)
    assert not {"dataclasses", "inspect"} & set(by_import)
    assert hashing & set(by_call) == (hashing if argv[0] == "race" else set())
    pools = {"multiprocessing", "concurrent.futures", "pickle", "subprocess"}
    assert not pools & (set(by_import) | set(by_call))
