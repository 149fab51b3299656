import json
import subprocess
import sys
from pathlib import Path

import pytest

from udmg import reference
from udmg.cli import (
    MAX_EXPONENT,
    load_matrixset,
    matrixset_from_text,
    matrixset_to_text,
    parse_function,
    run,
    save_matrixset,
)
from udmg.curves import FnElement, WeierstrassCurve
from udmg.fields import make_field

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "genus1_f5.json"


@pytest.fixture()
def fixture_path(tmp_path):
    path = tmp_path / "genus1.json"
    save_matrixset(reference.matrix_set(), str(path))
    return str(path)


def test_round_trip_bytes(fixture_path):
    text = Path(fixture_path).read_text(encoding="utf-8")
    assert matrixset_to_text(matrixset_from_text(text)) == text
    assert text.endswith("\n")


def test_round_trip_random_sets():
    import random

    from udmg import Udmg, make_field
    from udmg.linalg import FqMatrix

    rng = random.Random(99)
    for _ in range(25):
        field = make_field(rng.choice([2, 3, 5, 7]))
        K = rng.randint(1, 4)
        mats = tuple(
            FqMatrix(field, K, n, tuple(rng.randrange(field.q) for _ in range(K * n)))
            for n in (rng.randint(1, 4) for _ in range(rng.randint(1, 4))))
        u = Udmg(field, K, rng.randint(0, 3), mats)
        text = matrixset_to_text(u)
        again = matrixset_from_text(text)
        assert again == u
        assert matrixset_to_text(again) == text


def test_round_trip_extension_field(tmp_path):
    from udmg import Udmg, make_field
    from udmg.linalg import FqMatrix

    f4 = make_field(2, 2)
    u = Udmg(f4, 2, 0, (FqMatrix.from_rows(f4, [(1, 2), (0, 3)]),
                        FqMatrix.from_rows(f4, [(2, 0), (1, 1)])))
    text = matrixset_to_text(u)
    assert '"modulus": [1, 1, 1]' in text
    again = matrixset_from_text(text)
    assert again.field.q == 4 and again.matrices == u.matrices
    assert matrixset_to_text(again) == text


def test_bundled_fixture_file_matches_reference():
    assert FIXTURE.exists()
    u = load_matrixset(str(FIXTURE))
    assert u.matrices == reference.matrix_set().matrices
    assert matrixset_to_text(u) == FIXTURE.read_text(encoding="utf-8")


def test_verify_exit_codes(fixture_path, capsys):
    assert run(["verify", fixture_path]) == 0
    assert run(["verify", fixture_path, "--genus", "0"]) == 1
    out = capsys.readouterr().out
    assert "0, 0, 0, 0, 0, 0, 1, 1, 1" in out.replace("[", "").replace("]", "")
    assert run(["verify", "/nonexistent/file.json"]) == 2
    assert run(["verify"]) == 2  # missing argument


def test_verify_min_genus(fixture_path, capsys):
    assert run(["--json", "verify", fixture_path, "--min-genus"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["minimal_genus"] == 1
    assert data["valid"] is True


def test_verify_threads_equivalent(fixture_path, capsys, monkeypatch):
    run(["--json", "verify", fixture_path, "--genus", "0", "--threads", "1"])
    one = capsys.readouterr().out
    run(["--json", "verify", fixture_path, "--genus", "0", "--threads", "4"])
    four = capsys.readouterr().out
    assert one == four
    monkeypatch.setenv("UDMG_THREADS", "3")
    run(["--json", "verify", fixture_path, "--genus", "0", "--threads", "1"])
    assert capsys.readouterr().out == one


def test_construct_genus1(tmp_path, capsys):
    desc = FIXTURE.parent / "genus1_f5_construction.json"
    out = tmp_path / "set.json"
    assert run(["--json", "construct", str(desc), "-o", str(out)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verified"] and data["L"] == 9
    assert data["valuations"][8] == [0, 1, 3]
    assert any("s*" in b or "r" in b for b in data["basis"])
    u = load_matrixset(str(out))
    assert u.matrices == reference.matrix_set().matrices


def test_construct_genus0(tmp_path, capsys):
    desc = tmp_path / "line.json"
    desc.write_text(json.dumps({
        "q": 5, "genus": 0, "K": 3,
        "points": ["0", "1", "2", "3", "4", "inf"],
    }))
    out = tmp_path / "rs.json"
    assert run(["--json", "construct", str(desc), "-o", str(out)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["K"] == 3 and data["L"] == 6
    assert run(["verify", str(out)]) == 0


def test_quotient_command(fixture_path, tmp_path, capsys):
    out = tmp_path / "quot.json"
    code = run(["--json", "quotient", fixture_path,
                "--truncate", "1,0,0,0,0,0,0,0,0", "-o", str(out)])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["d"], data["r"], data["B_dim"]) == (0, 2, 1)
    assert data["height"] == 2 and data["genus"] == 1
    q = load_matrixset(str(out))
    assert q.K == 2 and q.lengths == (2,) + (3,) * 8
    assert run(["verify", str(out)]) == 0


def test_code_command(fixture_path, capsys):
    assert run(["--json", "code", fixture_path, "--min-distance"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["n"], data["k"]) == (9, 3)
    assert 6 <= data["d"] <= 7
    assert data["defect"] <= 1


def test_bounds_command(capsys):
    assert run(["--json", "bounds", "--K", "4", "--q", "2", "--g", "2",
                "--lengths", "4,4,4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["class1_bound"] == 9
    assert data["partition_bound"] == 8


def test_modulate_command(fixture_path, capsys):
    assert run(["--json", "modulate", fixture_path, "--snr", "--audit"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["snr_within_bounds"] is True
    assert data["audit_passed"] is True
    assert data["rate_symbols"] == 3
    assert data["snr"] == "40384"  # exact rational; this one happens to be integral
    assert "/" in data["audit_floor"]


def test_example_pipeline(tmp_path, capsys):
    out = tmp_path / "emitted.json"
    assert run(["--json", "example-paper", "-o", str(out)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["all_passed"] is True
    assert out.read_text(encoding="utf-8") == FIXTURE.read_text(encoding="utf-8")


def test_malformed_inputs_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["verify", str(bad)]) == 2
    nodiv = tmp_path / "nodiv.json"
    nodiv.write_text(json.dumps({"q": 5, "genus": 1, "a": 1, "b": 1,
                                 "points": [[0, 1]]}))
    assert run(["construct", str(nodiv), "-o", str(tmp_path / "x.json")]) == 2
    for entry in (2.0, True):  # once coerced to 2 and 1 and verified
        odd = tmp_path / "odd.json"
        odd.write_text(json.dumps({"p": 5, "m": 1, "K": 2, "g": 0,
                                   "matrices": [[[1, 0], [0, 1]], [[1, 1], [1, entry]]]}))
        assert run(["verify", str(odd)]) == 2
    assert run(["bounds", "--K", "4", "--q", "6", "--g", "1"]) == 2  # not a prime power


def test_huge_field_orders_fail_fast(tmp_path):
    # trial division over a 10^24 order used to run without bound
    huge = 10**24 + 7
    prime = tmp_path / "huge_p.json"
    prime.write_text(json.dumps({"p": huge, "m": 1, "K": 1, "g": 0, "matrices": [[[1]]]}))
    for argv in (["verify", str(prime)], ["bounds", "--K", "4", "--q", str(huge), "--g", "1"]):
        res = subprocess.run([sys.executable, "-m", "udmg.cli", *argv],
                             capture_output=True, text=True, timeout=10)
        assert res.returncode == 2 and "exceeds 2^20" in res.stderr


def test_audit_of_huge_message_space_exits_2_fast(tmp_path):
    # GF(2^16) with K = 3 has 2^48 messages: the pair guard must come before enumeration
    modulus = [1, 1, 0, 1, 0, 1] + [0] * 10 + [1]
    path = tmp_path / "gf65536.json"
    path.write_text(json.dumps({"p": 2, "m": 16, "modulus": modulus, "K": 3, "g": 0,
                                "matrices": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]}))
    res = subprocess.run([sys.executable, "-m", "udmg.cli", "modulate", str(path), "--audit"],
                         capture_output=True, text=True, timeout=10)
    assert res.returncode == 2 and "error:" in res.stderr


def test_console_module_smoke(tmp_path):
    res = subprocess.run(
        [sys.executable, "-m", "udmg.cli", "verify", str(FIXTURE)],
        capture_output=True, text=True, timeout=60)
    assert res.returncode == 0
    assert "valid: True" in res.stdout


SAFE_FUNCTIONS = (
    "r+s", "2*r^2+1", "r", "s", "-r", "--r", "r-s", "r - -1", "2*-r", "-r^2", "(r+1)^2",
    "((r+1)^2)^2", "r^2^2", "r**3", "s^3+r*s", "3", "0", "(2+3)*r", "2^3*r", "r^(1+1)",
    "r^0", "1-r", "7*r+11", "r*s*r*s", "(r+s)*(r-s)", "  r +  s ", "s^2 - r^3",
    "12345678901234567890*r", "2*(r+1)^3-s", "-(r)", "+2", "(s+1)*(s-1)+r^5", "r^64",
)


def parse_by_eval(curve, text):
    """Oracle: the former Python-eval reading of a function string."""
    env = {"r": FnElement.r(curve), "s": FnElement.s(curve), "__builtins__": {}}
    value = eval(text.replace("^", "**"), env)  # noqa: S307 - fixed safe strings only
    return FnElement.const(curve, value) if isinstance(value, int) else value


@pytest.mark.parametrize("p,a,b", [(5, 1, 1), (7, 3, 2), (11, 1, 3)])
def test_parse_function_matches_eval(p, a, b):
    curve = WeierstrassCurve(make_field(p), a, b)
    for text in SAFE_FUNCTIONS:
        assert parse_function(curve, text) == parse_by_eval(curve, text), text


@pytest.mark.parametrize("text", [
    "9^9^9^9", f"r^{MAX_EXPONENT + 1}", "r^-1", "(r^64)^64", "(((9^64)^64)^64)^64",
    "*".join(["r^64"] * 9), "2^r", "r^s", "r r", "2r", "rs", "(", "r)", "r^", "r/2",
    "(" * 5000 + "r" + ")" * 5000, "-" * 5000 + "r",
])
def test_parse_function_rejects(text):
    curve = WeierstrassCurve(make_field(5), 1, 1)
    with pytest.raises(ValueError):
        parse_function(curve, text)


def test_exponent_tower_exits_2_fast(tmp_path):
    # eval() used to compute 9^(9^(9^9)) and hang
    path = tmp_path / "tower.json"
    path.write_text(json.dumps({"q": 5, "genus": 1, "a": 1, "b": 1,
                                "points": [[0, 1], [4, 2], [3, 4], [0, 4], "inf"],
                                "divisor": {"n": 3, "h": "9^9^9^9"}}))
    res = subprocess.run([sys.executable, "-m", "udmg.cli", "construct", str(path),
                          "-o", str(tmp_path / "out.json")],
                         capture_output=True, text=True, timeout=10)
    assert res.returncode == 2 and "error:" in res.stderr and "exponent" in res.stderr


GENUS0_DESC = {"q": 5, "genus": 0, "K": 2, "points": [0, "1", "inf"]}
GENUS1_DESC = {"q": 5, "genus": 1, "a": 1, "b": 1,
               "points": [[0, 1], [4, 2], [3, 4], [0, 4]], "divisor": {"n": 3}}


def _replace(desc, path, value):
    """Copy of desc with the entry at path (a tuple of keys and indexes) set to value."""
    desc = json.loads(json.dumps(desc))
    node = desc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return desc


@pytest.mark.parametrize("desc,path", [
    (GENUS0_DESC, ("genus",)),
    (GENUS0_DESC, ("K",)),
    (GENUS0_DESC, ("points", 1)),
    (GENUS1_DESC, ("a",)),
    (GENUS1_DESC, ("b",)),
    (GENUS1_DESC, ("points", 0, 0)),
    (GENUS1_DESC, ("points", 0, 1)),
    (GENUS1_DESC, ("divisor", "n")),
], ids=lambda x: ".".join(map(str, x)) if isinstance(x, tuple) else f"genus{x['genus']}")
def test_construction_rejects_non_integer_fields(tmp_path, desc, path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(desc))
    assert run(["construct", str(good), "-o", str(tmp_path / "out.json")]) == 0
    original = desc
    for key in path:
        original = original[key]
    # int() used to truncate these (K = 2.9 built K = 2, true built 1) and exit 0
    for value in (float(int(original)) + 0.9, float(int(original)), True, False):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_replace(desc, path, value)))
        assert run(["construct", str(bad), "-o", str(tmp_path / "x.json")]) == 2, value


@pytest.mark.parametrize("point", ["04", [0, 4, 1], [0], "O"])
def test_construction_rejects_malformed_genus1_points(tmp_path, point):
    # a string was split into characters ("04" read as (0, 4)), extra coordinates dropped
    desc = tmp_path / "bad.json"
    desc.write_text(json.dumps(_replace(GENUS1_DESC, ("points", 3), point)))
    assert run(["construct", str(desc), "-o", str(tmp_path / "x.json")]) == 2
