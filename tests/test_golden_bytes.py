"""Byte identity of `race FILE --series 600 --oracle` on two fixed problems,
and of `race FILE --alpha 9/10` on the one with an initial word.

The series sha256s were recorded with the term-by-term Fraction series
and DP; the integer-scaled kernels must print the same bytes.  The
past-limit sha256 was recorded with every table entry built as a
Fraction before it was printed; printing from the scaled integers must
give the same bytes.  The
--alpha sha256 was recorded with rational functions canonicalised and
evaluated on Fraction polynomials; the integer canonicalisation must
print the same bytes.  The input digest in the output hashes the file's
bytes, not its path.
"""

import hashlib
import json

import pytest

from patternrace.cli import main

PROBLEMS = {
    # race_series-style: three letters, no initial word
    "no_initial": (
        {"alphabet": [{"symbol": "a", "prob": "2/9"}, {"symbol": "b", "prob": "1/3"},
                      {"symbol": "c", "prob": "4/9"}],
         "patterns": ["abca", "ccab", "bacbc", "cbbacb"]},
        "e3d572d0cdf72a4d2b76e514815d24ec4e6010457c0ae283de9871499d06a750",
    ),
    "initial": (
        {"alphabet": [{"symbol": "H", "prob": "1/3"}, {"symbol": "T", "prob": "2/3"}],
         "patterns": ["HTTHTTHH", "THTHHTHT", "HHTTTHTH", "TTHHHTHT"],
         "initial": "TTHTH"},
        "867341bf70d4648bb717813778ce7823fc0eae2ec198d956bfffb34979286b4b",
    ),
}


def race_stdout(tmp_path, capsys, name, argv):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(PROBLEMS[name][0]))
    assert main(["race", str(path)] + argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_race_series_oracle_stdout_bytes(tmp_path, capsys, name):
    out = race_stdout(tmp_path, capsys, name, ["--series", "600", "--oracle"])
    oracle = json.loads(out)["oracle"]
    assert oracle["agree"] and oracle["series_agree"]
    assert hashlib.sha256(out.encode()).hexdigest() == PROBLEMS[name][1]


# problem name: (alpha, sha256 of stdout)
ALPHA_CASES = {
    "initial": ("9/10", "7026d09d190819fa8b0bcd2a16dd1b2a2ecf9d4153582d3fad25cef8015bde0a"),
}


@pytest.mark.parametrize("name", sorted(ALPHA_CASES))
def test_race_alpha_stdout_bytes(tmp_path, capsys, name):
    alpha, digest = ALPHA_CASES[name]
    out = race_stdout(tmp_path, capsys, name, ["--alpha", alpha])
    assert json.loads(out)["at_alpha"]["alpha"] == alpha
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# problem: sha256 of `validate FILE` stdout.  Recorded with the race
# validated on every use; validation at construction must print the
# same report bytes.
VALIDATE_CASES = {
    "valid": (
        {"alphabet": [{"symbol": "H", "prob": "1/2"}, {"symbol": "T", "prob": "1/2"}],
         "patterns": ["THH", "HTH", "HHT"]},
        0,
        "1bc74e199bcc58b41274850ff74d9609d82c2e26cb4a253d86acd73ceb545328",
    ),
    "invalid": (
        {"alphabet": [{"symbol": "H", "prob": "1/3"}, {"symbol": "T", "prob": "2/3"}],
         "patterns": ["HT", "HTH", "TT", "THTTH"],
         "initial": "TTHT"},
        2,
        "7178b324b881719e2e47192000330fc454de295877ad0915fc3c98ee32b5093e",
    ),
}


@pytest.mark.parametrize("name", sorted(VALIDATE_CASES))
def test_validate_stdout_bytes(tmp_path, capsys, name):
    obj, code, digest = VALIDATE_CASES[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(obj))
    assert main(["validate", str(path)]) == code
    out = capsys.readouterr().out
    assert json.loads(out)["valid"] is (code == 0)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# argv after `correlate FILE`: sha256 of stdout, on the 1/3-2/3 coin of
# the "initial" problem.  Recorded with correlations held in a Laurent
# polynomial class; the plain term maps must print the same bytes.
CORRELATE_CASES = {
    "zero": (["--a", "THH", "--b", "THTH"],
             "b90f9679238e51450f5dea7817b680694a79811326070366b04358494d90b09f"),
    "cross": (["--a", "THTH", "--b", "HTHT"],
              "929f753fa21939e1d1777d167aaef38675fc5ed58aa3f1e1ce87064a18a9c25b"),
    "self_at_alpha": (["--a", "HTHT", "--b", "HTHT", "--alpha", "2/5"],
                      "7501bc237b01980cc74a946424e049e750ebfb1bd8dedf9d029fd28240120ca4"),
}


@pytest.mark.parametrize("name", sorted(CORRELATE_CASES))
def test_correlate_stdout_bytes(tmp_path, capsys, name):
    argv, digest = CORRELATE_CASES[name]
    path = tmp_path / "coin.json"
    path.write_text(json.dumps(PROBLEMS["initial"][0]))
    assert main(["correlate", str(path)] + argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Letters 1/1000 and 999/1000: the table's denominators reach 1000**1500,
# 4,501 digits, past Python's default int-to-str limit of 4,300, so the
# numerators and denominators print through the Decimal path.
PAST_LIMIT = (
    {"alphabet": [{"symbol": "a", "prob": "1/1000"}, {"symbol": "b", "prob": "999/1000"}],
     "patterns": ["ab", "bba"]},
    ["--series", "1500"],
    "4f62339a92a01b1a0b31d909c8dbed92f684a4a022a3435b4ee355ad483dc549",
)


def test_race_series_past_int_str_limit_stdout_bytes(tmp_path, capsys):
    obj, argv, digest = PAST_LIMIT
    path = tmp_path / "past_limit.json"
    path.write_text(json.dumps(obj))
    assert main(["race", str(path)] + argv) == 0
    out = capsys.readouterr().out
    assert len(json.loads(out)["series"]["tail_mass"]) > 2 * 4300
    assert hashlib.sha256(out.encode()).hexdigest() == digest
