import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import udmg
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


@pytest.mark.parametrize("genus_args,scanned", [
    ((), [1, 0]),                   # valid at its genus: only genus 0 is left below
    (("--genus", "2"), [2, 0, 1]),
    (("--genus", "0"), [0, 1]),     # invalid at 0: the search starts at 1
])
def test_verify_min_genus_scans_each_genus_once(fixture_path, capsys, monkeypatch, genus_args,
                                                scanned):
    from udmg import core

    def run_both():
        outs = []
        for fmt in ([], ["--json"]):
            code = run(fmt + ["verify", fixture_path, *genus_args, "--min-genus"])
            outs.append((code, capsys.readouterr().out))
        return outs

    # the same answer from a search that scans every genus from 0 again
    search = core.minimal_genus
    monkeypatch.setattr("udmg.cli.minimal_genus", lambda u, **known: search(u))
    want = run_both()
    monkeypatch.undo()
    genera, scan = [], core._scan
    monkeypatch.setattr(core, "_scan", lambda field, K, g, matrices: genera.append(g) or
                        scan(field, K, g, matrices))
    searched, fast = [], core._verify_fast
    monkeypatch.setattr(core, "_verify_fast", lambda u: searched.append(u.g) or fast(u))
    assert run_both() == want
    assert genera == scanned * 2
    assert searched == scanned[1:] * 2  # after the command's own scan, each through the search
    assert json.loads(want[1][1])["minimal_genus"] == 1


SET, COLS = (3, (3,) * 9), (3, (1,) * 9)  # (K, lengths): the bundled set, its first columns


@pytest.mark.parametrize("argv,rescanned,scanned", [
    # the distance scans the first columns, a set of its own, below the set's genus
    (["code", "{fixture}", "--min-distance"], [(SET, 1), (SET, 1), (COLS, 0)],
     [(SET, 1), (COLS, 0)]),
    # the construction certifies itself by valuations, with no scan
    (["example-paper", "-o", "{out}"], [(SET, 1), (SET, 0), (SET, 1), (COLS, 0), (SET, 1)],
     [(SET, 1), (SET, 0), (COLS, 0)]),
    # a set read from a file is scanned at its own genus (verify: see above)
    (["modulate", "{fixture}", "--snr"], [(SET, 1)], [(SET, 1)]),
])
def test_commands_scan_each_genus_once(fixture_path, tmp_path, capsys, monkeypatch, argv,
                                       rescanned, scanned):
    from udmg import codes, core, waveform

    argv = [a.format(fixture=fixture_path, out=tmp_path / "out.json") for a in argv]
    scans, scan = [], core._scan
    monkeypatch.setattr(core, "_scan", lambda field, K, g, matrices: scans.append(
        ((K, tuple(M.cols for M in matrices)), g)) or scan(field, K, g, matrices))

    def run_both():
        scans.clear()
        outs = []
        for fmt in ([], ["--json"]):
            code = run(fmt + argv)
            outs.append((code, capsys.readouterr().out))
        return outs

    got = run_both()
    assert len(set(scanned)) == len(scanned)  # no (set, genus) pair twice in one run
    assert scans == scanned * 2
    assert all(code == 0 for code, _ in got)
    # the same answers when the code and the scheme verify the set again themselves
    for name, fn in (("first_column_code", codes.first_column_code),
                     ("build_scheme", waveform.build_scheme)):
        monkeypatch.setattr(f"udmg.cli.{name}",
                            lambda u, verified=False, _fn=fn, **kw: _fn(u, **kw))
    assert run_both() == got
    assert scans == rescanned * 2


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


def test_code_on_an_invalid_set_exits_1_with_the_verify_witness(near_miss_udmg, tmp_path,
                                                                 capsys):
    path = str(tmp_path / "near_miss.json")
    save_matrixset(near_miss_udmg, path)
    assert run(["--json", "verify", path]) == 1
    want = json.loads(capsys.readouterr().out)["witness"]
    assert want
    for argv in (["--json", "code", path], ["--json", "code", path, "--min-distance"]):
        assert run(argv) == 1
        assert json.loads(capsys.readouterr().out) == {"valid": False, "witness": want}
    assert run(["code", path]) == 1
    assert capsys.readouterr().out == f"valid: False\nwitness: {want}\n"


@pytest.mark.parametrize("text", [
    '{"p": 2, "m": 1, "K": 1, "g": 0, "matrices": [[[1]], [[]]]}',
    '{"p": 2, "m": 3, "modulus": [1, 1, 0, 1], "K": 1, "g": 1, "matrices": [[[0]], [[]], [[5]]]}',
], ids=["gf2", "gf8"])
@pytest.mark.parametrize("extra", [[], ["--min-distance"]], ids=["code", "min-distance"])
def test_code_on_a_set_with_an_empty_member_exits_2(tmp_path, text, extra):
    # valid sets whose second member has no columns: reading its first column raised
    # IndexError, exit 1 with a traceback
    path = tmp_path / "empty_member.json"
    path.write_text(text)
    assert run(["verify", str(path)]) == 0
    res = subprocess.run([sys.executable, "-m", "udmg.cli", "code", str(path), *extra],
                         capture_output=True, text=True, timeout=10)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr == "error: matrix 1 has no columns, so no first column\n"


@pytest.mark.parametrize("truncate", ["0,0", "1,0"])
def test_quotient_on_a_set_with_an_empty_member_exits_2(tmp_path, truncate):
    # a valid set whose second member has no columns: the refusal named a chain with no
    # subspace, which the input never states
    path = tmp_path / "empty_member.json"
    path.write_text('{"p": 2, "m": 1, "K": 1, "g": 0, "matrices": [[[1]], [[]]]}')
    assert run(["verify", str(path)]) == 0
    res = subprocess.run([sys.executable, "-m", "udmg.cli", "quotient", str(path),
                          "--truncate", truncate], capture_output=True, text=True, timeout=10)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr == "error: matrix 1 has no columns, so no chain\n"


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
    made = tmp_path / "construct.json"
    assert run(["construct", str(FIXTURE.parent / "genus1_f5_construction.json"),
                "-o", str(made)]) == 0
    want = FIXTURE.read_bytes()
    assert hashlib.sha256(want).hexdigest() == (
        "55454461da73b4188c701f681195d513eafb4c4fea5b09f885e17562aed65b98")
    assert [out.read_bytes(), made.read_bytes()] == [want, want]


# SHA-256 of construct's output on s^2 = r^3 + r + 1 over GF(23), all 27 affine points
Q23_CONSTRUCTION_SHA256 = {
    5: "d7a95fef660b35bab7d610292c86c7574933622e01d65b5a859b52264e4546dc",
    6: "8afbed2f74e9f4b1ce79ffb66e1d9f292aad67df4d5b08df176c6ba8cf5f2f30",
    7: "7f38e6b5bc4360e165062ce2959fea7ac868e4b3548798f97ec322ab568bd400",
}


def test_q23_construction_outputs_keep_their_bytes(tmp_path):
    from udmg.curves import INFINITY, curve_new, enumerate_points

    points = [list(P) for P in enumerate_points(curve_new(make_field(23), 1, 1))
              if P is not INFINITY]
    assert len(points) == 27
    for n, want in Q23_CONSTRUCTION_SHA256.items():
        desc, out = tmp_path / f"d{n}.json", tmp_path / f"set{n}.json"
        desc.write_text(json.dumps({"q": 23, "genus": 1, "a": 1, "b": 1, "points": points,
                                    "divisor": {"n": n}}))
        assert run(["construct", str(desc), "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want, n


# SHA-256 of construct's output file and of its --json stdout (written with -o set.json)
PINNED_CONSTRUCTIONS = {
    "g0_q13_inf": ({"q": 13, "genus": 0, "K": 5,
                    "points": ["3", "0", "12", "7", "1", "9", "inf", "2", "4", "5", "6", "8", "10", "11"]},
                   "8329dcd91aff9bf4ab45d2471dde4300b27d972f16896306c4fd15cf1b9fb6cd",
                   "7aa5e593ab29e117b86fcc779db9896b56371507fbc9f53043cbb3398ce254c4"),
    "g0_q16": (json.loads((FIXTURE.parent / "genus0_gf16_construction.json").read_text()),
               "067759632e59c2bf1c0d87ed6e4b5009c6d2a5fbb52edc19ecbf4c921ed2e6b2",
               "4b2f71093f2505d4289ed4d7732131d1f55163611ead99158d75a4460b3227e2"),
    "g0_q32": ({"q": 32, "genus": 0, "K": 3,
                "points": [str(x) for x in (31, 0, 17, 2, 5, 30, 8, 1, 19, 12, 24, 3, 27, 10, 6,
                                            21, 14, 9, 28, 4)]},
               "4af05196ca9324bc57e9ebf8b88d4bd0957c6bc66b943ca79ee659cbedfdf557",
               "6378d8b3975fa2ba7ca67e4e481494bc4186afd7593840ec0a2ef24ba72338f0"),
    # genus-0 K = 3 sets over the large fields of the benchmark's cli_small workload
    "g0_q65536": ({"q": 1 << 16, "genus": 0, "K": 3,
                   "points": ["8120", "31983", "49841", "29175", "32314", "60931"]},
                  "e99f214bbcc3f191c30b12c530b95bdecdd3d40d39b17f36afe80ab2414eaf04",
                  "78a79ce6854fe6cf5a216a1d2c328a49307346840bf30ae18a84f266c7e1761f"),
    "g0_q1048576": ({"q": 1 << 20, "genus": 0, "K": 3,
                     "points": ["239422", "918850", "298649", "1020584", "817468", "308327"]},
                    "e1f2678d7a837fae5148ff1836145110b107d303e13687fd0b5168ce8967e54c",
                    "0d9a4d1ae0116481e09bfb7e72bb182262ad8b7713a617e3c76a70e42cb8ff99"),
    "g0_q1048573": ({"q": 1048573, "genus": 0, "K": 3,
                     "points": ["494774", "1044945", "822510", "731349", "1040710", "931142"]},
                    "02f2099515270d0ef465d70b64544f1505ef98998e40346a1d10f09a6d3c1d5b",
                    "7aaf703591a4b8c11e8f0e73fc86da011bb52ecc5a54dc1aa53849534e92d896"),
    "g1_q25": ({"q": 25, "genus": 1, "a": 1, "b": 1, "divisor": {"n": 3},
                "points": [[13, 2], [0, 1], [8, 14], [23, 19], [1, 5], [11, 24], [4, 3], [17, 20],
                           [2, 4], [16, 9], [12, 5], [18, 3], [3, 1], [0, 4]]},
               "51a45b6a40a06d0dce1b5b55265e87b1d9c7483a60ffb363c9964ba8282ee06b",
               "49a5d589aede79cff0b1ddc55044b1999073c5af7c56681b1a94bba3fee04958"),
    # at scale: the whole line over GF(64) at K = 16, and all 27 affine points of
    # s^2 = r^3 + r + 1 over GF(23) at D = 7*O, the first a two-torsion point
    "g0_q64_all": ({"q": 64, "genus": 0, "K": 16,
                    "points": [str((5 * x + 17) % 64) for x in range(9)] + ["inf"]
                    + [str((5 * x + 17) % 64) for x in range(9, 64)]},
                   "8ba3d0fd665700b7a6480dfae397e6c61534066fe89d5887f04b8fcd722d211d",
                   "2831498aea1bed0ff5b0701c51b076651ab25e7b46661f3809bc7f6e11abb6cb"),
    "g1_q23_all": ({"q": 23, "genus": 1, "a": 1, "b": 1, "divisor": {"n": 7},
                    "points": [[4, 0], [5, 4], [5, 19], [6, 4], [6, 19], [7, 11], [7, 12], [9, 7],
                               [9, 16], [11, 3], [11, 20], [12, 4], [12, 19], [13, 7], [13, 16],
                               [17, 3], [17, 20], [18, 3], [18, 20], [19, 5], [19, 18], [0, 1],
                               [0, 22], [1, 7], [1, 16], [3, 10], [3, 13]]},
                   "ed0b98cd6deacdffca6a46a3bcdc282912f4a744551962860ab5ae76da6e3880",
                   "5a84133caba052cf1e16dc1ae6de73d089bcc8d0382d618d01a1e1d1058faadf"),
    # no h, so 1/h is the exact 1: the same curve on all its points, O and the
    # two-torsion point (4, 0) included, over GF(23) and over the table field GF(25)
    "g1_q23_inf_all": ({"q": 23, "genus": 1, "a": 1, "b": 1, "divisor": {"n": 5},
                        "points": ["inf", [0, 1], [0, 22], [1, 7], [1, 16], [3, 10], [3, 13],
                                   [4, 0], [5, 4], [5, 19], [6, 4], [6, 19], [7, 11], [7, 12],
                                   [9, 7], [9, 16], [11, 3], [11, 20], [12, 4], [12, 19],
                                   [13, 7], [13, 16], [17, 3], [17, 20], [18, 3], [18, 20],
                                   [19, 5], [19, 18]]},
                       "f7e4222f96a9aadbef0ffc1590e1469a7174ed0049df58e41d2447166e7481ac",
                       "7e08cde0f5b567ee0e381aaa93a1b3ecbea02f550575ba6e84a7ac7202edf529"),
    "g1_q25_inf_all": ({"q": 25, "genus": 1, "a": 1, "b": 1, "divisor": {"n": 3},
                        "points": [[0, 1], [0, 4], [1, 5], [1, 20], [2, 1], [2, 4], [3, 1],
                                   [3, 4], [4, 2], [4, 3], [8, 14], [8, 16], [11, 6], "inf",
                                   [11, 24], [12, 5], [12, 20], [13, 2], [13, 3], [16, 9],
                                   [16, 21], [17, 5], [17, 20], [18, 2], [18, 3], [23, 11],
                                   [23, 19]]},
                       "4fff87c05a4cf4423453e462635990a773752c33c982cc6e6d897df8de83a752",
                       "dd0e3b0d72a84c6b9bf67d6faf8fad2cf00b8f25e86115cb5bebf8210b36fa98"),
    # characteristic 3, refused (exit 2) before odd characteristic was accepted: the
    # maximal curve s^2 = r^3 + r over GF(9) on all 16 points, O among them
    "g1_q9_inf_all": ({"q": 9, "genus": 1, "a": 1, "b": 0, "divisor": {"n": 4},
                       "points": [[0, 0], [1, 3], [1, 6], [2, 1], [2, 2], [3, 0], [4, 3], [4, 6],
                                  "inf", [5, 1], [5, 2], [6, 0], [7, 3], [7, 6], [8, 1], [8, 2]]},
                      "7891fbff0cacbd4ee09cc8c07ca42c8e200ca84dc1a962f126b9be483628c391",
                      "9e620c2b5d20c2e9d5f56801f0ee9039b783d1eadec0e9014408f870158719b1"),
}


@pytest.mark.parametrize("name", sorted(PINNED_CONSTRUCTIONS))
def test_construction_outputs_keep_their_bytes(name, tmp_path, capsys, monkeypatch):
    desc, file_sha, stdout_sha = PINNED_CONSTRUCTIONS[name]
    monkeypatch.chdir(tmp_path)
    Path("desc.json").write_text(json.dumps(desc))
    assert run(["--json", "construct", "desc.json", "-o", "set.json"]) == 0
    assert hashlib.sha256(Path("set.json").read_bytes()).hexdigest() == file_sha
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha


def test_committed_genus0_fixture_matches_its_pin():
    want = PINNED_CONSTRUCTIONS["g0_q16"][1]
    assert hashlib.sha256((FIXTURE.parent / "genus0_gf16.json").read_bytes()).hexdigest() == want


def test_committed_q23_fixture_matches_its_pin():
    want = Q23_CONSTRUCTION_SHA256[6]
    assert hashlib.sha256((FIXTURE.parent / "genus1_q23.json").read_bytes()).hexdigest() == want


def test_committed_gf3_fixture_is_constructed_and_verifies_at_genus_1(tmp_path, capsys):
    out = tmp_path / "gf3.json"
    assert run(["construct", str(FIXTURE.parent / "genus1_gf3_construction.json"),
                "-o", str(out)]) == 0
    assert out.read_bytes() == (FIXTURE.parent / "genus1_gf3.json").read_bytes()
    capsys.readouterr()
    assert run(["--json", "verify", str(out), "--min-genus"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["valid"], report["minimal_genus"]) == (True, 1)


@pytest.mark.parametrize("q, a, want", [(3, 2, 0), (9, 1, 0), (3, 0, 2), (9, 0, 2), (2, 1, 2),
                                        (4, 1, 2)])
def test_construct_exit_codes_by_characteristic(tmp_path, capsys, q, a, want):
    # odd characteristic builds (a != 0 in characteristic 3); a = 0 there is singular,
    # and characteristic 2 is refused
    desc = tmp_path / "desc.json"
    desc.write_text(json.dumps({"q": q, "genus": 1, "a": a, "b": 1, "points": ["inf"],
                                "divisor": {"n": 1}}))
    assert run(["construct", str(desc), "-o", str(tmp_path / "set.json")]) == want


def test_quotient_and_modulate_outputs_keep_their_bytes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["--json", "quotient", str(FIXTURE), "--truncate", "1,0,0,0,0,0,0,0,0",
                "-o", "quot.json"]) == 0
    assert hashlib.sha256(Path("quot.json").read_bytes()).hexdigest() == (
        "7c42627c7b8a6e3c5effad58aba0cdddb2c16e2a6f55c8c086d1ab669ecd7a0c")
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "c0efb0010a168fa4fe2022f8d2bf26670b6e414022474bbf745f7acef0b834cd")
    assert run(["--json", "modulate", str(FIXTURE), "--snr", "--audit"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "d8714870ac8aa5c5c6d8247cad72a53393ca219b71e0dc4ddd1e8c8693682f49")


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
    # Header values once coerced: g = true verified as genus 1, m = 1.0 read as a
    # prime field, each GF(16) modulus below read as x^4 + x + 1 by int(c) % p,
    # and a prime-field modulus dropped unread.
    gf16 = {"p": 2, "m": 4, "modulus": [1, 1, 0, 0, 1], "K": 1, "g": 0, "matrices": [[[1]]]}
    f5 = {"p": 5, "m": 1, "K": 2, "g": 0, "matrices": [[[1, 0], [0, 1]], [[1, 1], [1, 2]]]}
    for base, key, value in ((f5, "g", True), (f5, "m", 1.0), (gf16, "K", True),
                             (gf16, "modulus", [1.9, 1, 0, 0, 1]), (gf16, "modulus", "11001"),
                             (gf16, "modulus", [1, True, 0, 0, 1]),
                             (gf16, "modulus", [1, 3, 0, 0, 1]), (f5, "modulus", [1, 2])):
        odd = tmp_path / "odd_header.json"
        odd.write_text(json.dumps({**base, key: value}))
        assert run(["verify", str(odd)]) == 2, (key, value)


def test_huge_field_orders_fail_fast(tmp_path):
    # trial division over a 10^24 order used to run without bound
    huge = 10**24 + 7
    prime = tmp_path / "huge_p.json"
    prime.write_text(json.dumps({"p": huge, "m": 1, "K": 1, "g": 0, "matrices": [[[1]]]}))
    for argv in (["verify", str(prime)], ["bounds", "--K", "4", "--q", str(huge), "--g", "1"]):
        res = subprocess.run([sys.executable, "-m", "udmg.cli", *argv],
                             capture_output=True, text=True, timeout=10)
        assert res.returncode == 2 and "exceeds 2^20" in res.stderr


def test_huge_genus_is_vacuous_at_once(tmp_path):
    # K + g past the total length allows no vector; counting them first built lists of
    # K + g + 1 entries, and on this 60-column set died with a MemoryError (exit 1)
    eye = [[int(r == c) for c in range(5)] for r in range(5)]
    base = {"p": 11, "m": 1, "K": 5, "matrices": [eye] * 12}
    small, huge = tmp_path / "g0.json", tmp_path / "huge_g.json"
    small.write_text(json.dumps({**base, "g": 0}))
    huge.write_text(json.dumps({**base, "g": 10**11}))
    for argv in (["verify", str(small), "--genus", str(10**11)], ["verify", str(huge)],
                 ["quotient", str(huge), "--truncate", ",".join(["1"] * 12)]):
        res = subprocess.run([sys.executable, "-m", "udmg.cli", "--json", *argv],
                             capture_output=True, text=True, timeout=5)
        assert res.returncode == 0, (argv, res.stderr)
        assert json.loads(res.stdout)["vacuous" if argv[0] == "verify" else "valid"] is True


def test_vacuous_quotient_past_its_genus_exits_2(tmp_path):
    # valid only vacuously (total length 3 < K + g = 4), and the zero head column makes
    # d = 1 > g: this stopped on an internal AssertionError, exit 1 with a traceback
    path = tmp_path / "vacuous.json"
    path.write_text(json.dumps({"p": 2, "m": 1, "K": 4, "g": 0,
                                "matrices": [[[0, 1, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]]]}))
    res = subprocess.run([sys.executable, "-m", "udmg.cli", "quotient", str(path), "--truncate", "1"],
                         capture_output=True, text=True, timeout=10)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("error:") and "vacuous" in res.stderr
    assert "Traceback" not in res.stderr


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


def loaded_modules(*argv):
    """Modules a fresh interpreter holds after one udmg command run as __main__, or
    after `import udmg.cli` alone when argv is empty.  The interpreter runs under
    -S, so no site .pth file can load a module first."""
    code = ("import runpy, sys\n"
            f"sys.argv = ['udmg', *{list(argv)!r}]\n"
            "try:\n"
            "    runpy.run_module('udmg.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "print(' '.join(sorted(sys.modules)))\n") if argv else (
            "import sys\nimport udmg.cli\nprint(' '.join(sorted(sys.modules)))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(udmg.__file__).resolve().parents[1])}
    res = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         timeout=60, env=env)
    assert res.returncode == 0, res.stderr
    return set(res.stdout.splitlines()[-1].split())


def test_verify_loads_only_what_a_matrix_set_needs():
    mods = loaded_modules("verify", str(FIXTURE))
    assert {"udmg.core", "udmg.fields", "udmg.linalg"} <= mods
    assert not mods & {"udmg.curves", "udmg.waveform", "udmg.codes", "udmg.reference",
                       "fractions"}


def test_bounds_loads_codes_but_not_curves_or_waveform():
    mods = loaded_modules("bounds", "--K", "4", "--q", "5", "--g", "1")
    assert "udmg.codes" in mods
    assert not mods & {"udmg.curves", "udmg.waveform"}


@pytest.mark.parametrize("data, message", [
    ({"q": 6, "genus": 0, "K": 2, "points": [0, 1]}, "6 is not a prime power"),
    ({"q": 5, "genus": 2, "points": []}, "genus must be 0 or 1"),
    ({"q": 5, "genus": "1", "points": []}, "is not an integer"),
    ({"q": 5, "genus": 1, "points": "inf"}, "is not a list"),
])
def test_bad_construction_file_is_refused_before_curves_loads(data, message):
    code = ("import sys\nfrom udmg.cli import construction_from_data\n"
            f"try:\n    construction_from_data({data!r})\nexcept Exception as exc:\n"
            "    print(exc)\nprint('udmg.curves' in sys.modules, 'udmg.polys' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(udmg.__file__).resolve().parents[1])}
    res = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         timeout=60, env=env)
    assert res.returncode == 0, res.stderr
    error, loaded = res.stdout.splitlines()
    assert message in error and loaded == "False False"


@pytest.mark.parametrize("argv", [
    (),
    ("example-paper", "-o", "{tmp}/example.json"),
    ("construct", str(FIXTURE.parent / "genus1_f5_construction.json"), "-o", "{tmp}/c.json"),
    ("verify", "--min-genus", str(FIXTURE)),
    ("code", "--min-distance", str(FIXTURE)),
    ("modulate", "--snr", "--audit", str(FIXTURE)),
    ("quotient", str(FIXTURE), "--truncate", "1,0,0,0,0,0,0,0,0"),
    ("bounds", "--K", "4", "--q", "5", "--g", "1"),
], ids=lambda argv: argv[0] if argv else "import")
def test_no_command_loads_dataclasses_inspect_or_typing(argv, tmp_path):
    mods = loaded_modules(*(arg.format(tmp=tmp_path) for arg in argv))
    assert "udmg.core" in mods
    assert not mods & {"dataclasses", "inspect", "typing"}


def test_package_names_resolve_lazily():
    import importlib

    import udmg

    for name in udmg.__all__:
        module = importlib.import_module(f"udmg.{udmg._MODULE_OF[name]}")
        assert getattr(udmg, name) is getattr(module, name), name
    fresh = subprocess.run([sys.executable, "-c", "import udmg; print(' '.join(dir(udmg)))"],
                           capture_output=True, text=True, timeout=60)
    assert set(udmg.__all__) <= set(fresh.stdout.split())  # listed before any is resolved
    assert len(set(udmg.__all__)) == len(udmg.__all__) == 66
    namespace = {}
    exec("from udmg import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(udmg.__all__)
    with pytest.raises(AttributeError):
        udmg.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from udmg import no_such_name", {})


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


def nested(depth: int) -> str:
    return "[" * depth + "]" * depth


@pytest.mark.parametrize("command, text", [
    ("verify", '{"p": 5, "m": 1, "K": 1, "g": 0, "matrices": ' + nested(1100) + "}"),
    ("construct", '{"q": 5, "genus": 0, "K": 2, "points": ' + nested(50000) + "}"),
])
def test_deeply_nested_json_exits_2(tmp_path, command, text):
    # json's parser raised RecursionError, and the command exited 1, the exit code of an
    # invalid set, with a traceback
    path = tmp_path / "deep.json"
    path.write_text(text)
    out = ["-o", str(tmp_path / "out.json")] if command == "construct" else []
    res = subprocess.run([sys.executable, "-m", "udmg.cli", command, str(path), *out],
                         capture_output=True, text=True, timeout=10)
    assert res.returncode == 2 and res.stderr.startswith("error:"), res.stderr
    assert "Traceback" not in res.stderr
    with pytest.raises(ValueError, match="matrix-set file is nested too deeply"):
        matrixset_from_text('{"matrices": ' + nested(50000) + "}")


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


# int() also reads each of these forms of an integer string; only ASCII -?[0-9]+ is accepted
ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


def other_forms(text):
    return [" " + text, text + " ", "+" + text, text + "_0", text.translate(ARABIC_INDIC)]


@pytest.mark.parametrize("desc,path", [
    (GENUS0_DESC, ("K",)),
    (GENUS0_DESC, ("points", 1)),
    (GENUS1_DESC, ("a",)),
    (GENUS1_DESC, ("b",)),
    (GENUS1_DESC, ("points", 0, 0)),
    (GENUS1_DESC, ("points", 0, 1)),
    (GENUS1_DESC, ("divisor", "n")),
], ids=lambda x: ".".join(map(str, x)) if isinstance(x, tuple) else f"genus{x['genus']}")
def test_construction_integer_strings_are_ascii_decimal(tmp_path, desc, path):
    original = desc
    for key in path:
        original = original[key]
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_replace(desc, path, str(original))))
    assert run(["construct", str(good), "-o", str(tmp_path / "out.json")]) == 0
    for text in other_forms(str(original)):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_replace(desc, path, text)))
        assert run(["construct", str(bad), "-o", str(tmp_path / "x.json")]) == 2, text


def test_point_1_0_is_not_point_10(tmp_path, capsys):
    # over GF(13) "1_0" used to build at the point 10 and exit 0
    desc = {"q": 13, "genus": 0, "K": 3, "points": ["1_0", "2", "3", "4"]}
    path, out = tmp_path / "desc.json", tmp_path / "out.json"
    path.write_text(json.dumps(desc))
    assert run(["construct", str(path), "-o", str(out)]) == 2
    assert "error: point '1_0' is not an integer" in capsys.readouterr().err
    assert not out.exists()
    path.write_text(json.dumps(_replace(desc, ("points", 0), "10")))
    assert run(["construct", str(path), "-o", str(out)]) == 0


@pytest.mark.parametrize("argv,at", [
    (["bounds", "--K", "4", "--q", "5", "--g", "1"], 2),
    (["bounds", "--K", "4", "--q", "5", "--g", "1"], 4),
    (["bounds", "--K", "4", "--q", "5", "--g", "1"], 6),
    (["verify", str(FIXTURE), "--genus", "1"], 3),
    (["--threads", "2", "verify", str(FIXTURE)], 1),
], ids=["K", "q", "g", "genus", "threads"])
def test_integer_flags_are_ascii_decimal(capsys, argv, at):
    assert run(argv) == 0
    for text in other_forms(argv[at]):
        assert run(argv[:at] + [text] + argv[at + 1:]) == 2, text
        assert f"invalid integer value: {text!r}" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,message", [
    ("--lengths", "", "length '' is not an integer"),
    ("--nks", "", "n,k,s entry '' is not an integer"),
    ("--nks", "9,3", "nks must hold three values n, k, s, not 2"),
    ("--nks", "9,3,1,0", "nks must hold three values n, k, s, not 4"),
])
def test_bounds_refuses_empty_and_short_lists(capsys, flag, value, message):
    # an empty --lengths or --nks was read as absent (exit 0); a short --nks failed to unpack
    assert run(["bounds", "--K", "3", "--q", "5", "--g", "1", flag, value]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv,at,good", [
    (["bounds", "--K", "4", "--q", "2", "--g", "2", "--lengths"], 7, "4,4,4"),
    (["bounds", "--K", "3", "--q", "5", "--g", "1", "--nks"], 7, "9,3,1"),
    (["quotient", str(FIXTURE), "--truncate"], 3, "1,0,0,0,0,0,0,0,0"),
], ids=["lengths", "nks", "truncate"])
def test_integer_lists_are_ascii_decimal(tmp_path, monkeypatch, argv, at, good):
    monkeypatch.chdir(tmp_path)
    assert run(argv + [good]) == 0
    first, rest = good.split(",", 1)
    last = good.rsplit(",", 1)[1]
    for text in other_forms(first):  # " 1,..." and "\u0660,..." once read as 1 and 0
        assert run(argv + [f"{text},{rest}"]) == 2, text
    for text in other_forms(last):  # "4, 4,4_0" once read the last length as 40
        assert run(argv + [f"{good[:-len(last)]}{text}"]) == 2, text
    assert run(argv + [good.replace(",", ", ")]) == 2


@pytest.mark.parametrize("h", ["r - r", "0", "5"])
def test_zero_h_is_refused_by_the_divisor(tmp_path, capsys, h):
    # it used to pass as a divisor and fail in rr_basis with "inverse of the zero function"
    desc = tmp_path / "zero_h.json"
    desc.write_text(json.dumps(_replace(GENUS1_DESC, ("divisor", "h"), h)))
    assert run(["construct", str(desc), "-o", str(tmp_path / "x.json")]) == 2
    assert "error: D = 3*O + (h) needs h != 0" in capsys.readouterr().err


def test_integer_h_is_read_mod_p(tmp_path, capsys):
    # a bare integer used to skip the mod-p reduction: "7" exited 2 with "rep 7 outside [0, 5)"
    outputs = []
    for h in ("2", "7", "-3", "2-5"):
        desc, out = tmp_path / "h.json", tmp_path / "out.json"
        desc.write_text(json.dumps(_replace(GENUS1_DESC, ("divisor", "h"), h)))
        assert run(["construct", str(desc), "-o", str(out)]) == 0, h
        outputs.append((capsys.readouterr().out, out.read_bytes()))
    assert outputs == [outputs[0]] * 4


@pytest.mark.parametrize("point", ["04", [0, 4, 1], [0], "O"])
def test_construction_rejects_malformed_genus1_points(tmp_path, point):
    # a string was split into characters ("04" read as (0, 4)), extra coordinates dropped
    desc = tmp_path / "bad.json"
    desc.write_text(json.dumps(_replace(GENUS1_DESC, ("points", 3), point)))
    assert run(["construct", str(desc), "-o", str(tmp_path / "x.json")]) == 2


@pytest.mark.parametrize("desc", [GENUS0_DESC, GENUS1_DESC], ids=["genus0", "genus1"])
def test_construction_rejects_an_empty_point_list(tmp_path, capsys, desc):
    # an empty list used to reach the assembly and die with an IndexError (exit 1)
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(_replace(desc, ("points",), [])))
    out = tmp_path / "x.json"
    assert run(["construct", str(path), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "point" in err
    assert not out.exists()


@pytest.mark.parametrize("desc,points", [
    (GENUS0_DESC, "0123"), (GENUS0_DESC, {"0": 1, "1": 2}), (GENUS0_DESC, 3),
    (GENUS1_DESC, {"inf": 1}), (GENUS1_DESC, "inf"),
], ids=["genus0-str", "genus0-dict", "genus0-int", "genus1-dict", "genus1-str"])
def test_construction_requires_a_list_of_points(tmp_path, capsys, desc, points):
    # a string used to build its characters as points ("0123" the points 0-3), a dict its keys
    path = tmp_path / "points.json"
    path.write_text(json.dumps(_replace(desc, ("points",), points)))
    assert run(["construct", str(path), "-o", str(tmp_path / "x.json")]) == 2
    assert "is not a list" in capsys.readouterr().err


@pytest.mark.parametrize("points", [GENUS1_DESC["points"], GENUS1_DESC["points"] + ["inf"]],
                         ids=["affine", "with-O"])
@pytest.mark.parametrize("h", [0, False, [], None, ""])
def test_divisor_h_must_be_a_string(tmp_path, capsys, h, points):
    # each of these used to build as if h were absent, with O among the points too
    # once O may lie in the support of D
    path = tmp_path / "h.json"
    desc = _replace(_replace(GENUS1_DESC, ("points",), points), ("divisor", "h"), h)
    path.write_text(json.dumps(desc))
    assert run(["construct", str(path), "-o", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and ("not a string" in err or "unexpected end" in err)


def test_points_in_the_support_of_d_build(tmp_path, capsys):
    # O with D = 3*O, and the zeros (0, 1), (0, 4) of r with D = 3*O + (r), used to
    # be refused (exit 2); the certificate now proves each set valid
    for h, points in ((None, ["inf", [0, 1], [2, 1]]), ("r", ["inf", [0, 1], [0, 4], [2, 1]])):
        desc = _replace(GENUS1_DESC, ("points",), points)
        if h is not None:
            desc = _replace(desc, ("divisor", "h"), h)
        path, out = tmp_path / "support.json", tmp_path / "support_out.json"
        path.write_text(json.dumps(desc))
        assert run(["--json", "construct", str(path), "-o", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verified"] is True and report["L"] == len(points)
        assert report["valuations"][0][0] == {None: -3, "r": -1}[h]  # -D(O)
        assert run(["verify", str(out)]) == 0
        capsys.readouterr()


@pytest.mark.parametrize("desc", [
    {"q": 5, "genus": 0, "K": 600, "points": [0, 1]},
    {"q": 5, "genus": 1, "a": 1, "b": 1, "points": [[0, 1], [0, 4]], "divisor": {"n": 200}},
], ids=["genus0", "genus1"])
def test_construction_past_the_work_bound_exits_2_fast(tmp_path, capsys, desc):
    # L*K^3 = 2*600^3: the parent built this line in about 40 s, row by row
    path = tmp_path / "big.json"
    path.write_text(json.dumps(desc))
    start = time.perf_counter()
    assert run(["construct", str(path), "-o", str(tmp_path / "x.json")]) == 2
    assert time.perf_counter() - start < 0.5
    assert "MAX_WORK" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("K,argv,want", [
    (-1, ["verify"], "non-negative"),
    (-1, ["modulate"], "non-negative"),
    (-1, ["code", "--min-distance"], "non-negative"),
    (0, ["modulate", "--snr", "--audit"], "K >= 1"),
    (0, ["code", "--min-distance"], "K >= 1"),
    (0, ["code"], "K >= 1"),
])
def test_heights_below_one_exit_2(tmp_path, capsys, K, argv, want):
    # K = -1 verified as valid, and both heights crashed modulate with an IndexError (exit 1);
    # K = 0 gave an empty [0, 0] code with d = 1
    path = tmp_path / "height.json"
    path.write_text(json.dumps({"p": 5, "m": 1, "K": K, "g": 0, "matrices": []}))
    assert run([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:") and want in captured.err


def test_height_zero_sets_stay_valid(tmp_path, capsys):
    from udmg import Udmg

    u = Udmg(make_field(5), 0, 0, ())
    path = tmp_path / "height0.json"
    save_matrixset(u, str(path))
    assert load_matrixset(str(path)) == u
    assert run(["--json", "verify", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True


def test_quotient_to_height_zero_refuses_a_lossy_file(fixture_path, tmp_path, capsys):
    # the quotient's nine matrices have no rows but 2 or 3 columns; written as [] they read
    # back with every length 0
    argv = ["--json", "quotient", fixture_path, "--truncate", "1,1,1,0,0,0,0,0,0"]
    assert run(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["height"] == 0 and data["lengths"] == [2, 2, 2] + [3] * 6 and data["valid"]
    out = tmp_path / "q.json"
    assert run(argv + ["-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert "row-major" in captured.err
    assert not out.exists()


def test_snr_of_a_message_space_past_2_to_the_22(tmp_path, capsys):
    # s^2 = r^3 + r + 1 over GF(23), all 27 affine points, D = 5*O: 23^5 messages, which a
    # message-count guard once refused with exit 2; snr encodes only the basis messages
    from udmg.curves import DivisorSpec, INFINITY, curve_new, enumerate_points, goppa_udmg

    curve = curve_new(make_field(23), 1, 1)
    points = [P for P in enumerate_points(curve) if P is not INFINITY]
    path = tmp_path / "d5.json"
    save_matrixset(goppa_udmg(curve, points, DivisorSpec(5, None)).udmg, str(path))
    assert run(["--json", "modulate", str(path), "--snr"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert 23 ** data["rate_symbols"] > 1 << 22
    assert data["snr"] == "8996420439688176/25" and data["snr_within_bounds"] is True


def test_reused_parser_answers_as_a_fresh_one(fixture_path, capsys, monkeypatch):
    from udmg import cli

    assert cli.build_parser() is cli.build_parser()
    argvs = [["verify"],                                # usage error: no matrix-set file
             ["--help"],
             ["verify", fixture_path, "--genus", "0"],  # an invalid set: exit 1
             ["--json", "verify", fixture_path]]

    def answers():
        return [(run(argv), *capsys.readouterr()) for argv in argvs]

    reused = answers()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)  # fresh per run
    assert reused == answers()
    assert [code for code, _, _ in reused] == [2, 0, 1, 0]
    assert "usage: udmg" in reused[0][2] and reused[1][1].startswith("usage: udmg")


def test_a_point_repeated_through_an_unreduced_coordinate_exits_2(tmp_path, capsys):
    # (2, 6) is (2, 1) over GF(5).  It used to pass as a second point: construct exited
    # 0 with "verified: True", and verify refused the set it wrote (exit 1).
    desc = tmp_path / "repeat.json"
    desc.write_text(json.dumps({"q": 5, "genus": 1, "a": 1, "b": 1,
                                "points": [[2, 1], [2, 6], [0, 1], [4, 2], [3, 4]],
                                "divisor": {"n": 3}}))
    out = tmp_path / "x.json"
    assert run(["construct", str(desc), "-o", str(out)]) == 2
    assert "error: rep 6 outside [0, 5)" in capsys.readouterr().err
    assert not out.exists()


def test_deg_d_zero_exits_2(tmp_path, capsys):
    desc = tmp_path / "n0.json"
    desc.write_text(json.dumps(_replace(GENUS1_DESC, ("divisor", "n"), 0)))
    out = tmp_path / "x.json"
    assert run(["construct", str(desc), "-o", str(out)]) == 2
    assert "error: need deg D >= 1" in capsys.readouterr().err
    assert not out.exists()
