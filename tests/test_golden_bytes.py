"""Byte identity of `race FILE --series 600 --oracle` on two fixed problems.

The sha256 of stdout was recorded with the term-by-term Fraction series
and DP; the integer-scaled kernels must print the same bytes.  The input
digest in the output hashes the file's bytes, not its path.
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


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_race_series_oracle_stdout_bytes(tmp_path, capsys, name):
    obj, digest = PROBLEMS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(obj))
    assert main(["race", str(path), "--series", "600", "--oracle"]) == 0
    out = capsys.readouterr().out
    oracle = json.loads(out)["oracle"]
    assert oracle["agree"] and oracle["series_agree"]
    assert hashlib.sha256(out.encode()).hexdigest() == digest
