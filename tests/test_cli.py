import hashlib
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from euciso import catalog, cli, io, reps
from euciso.cli import main
from euciso.errors import EucisoError
from euciso.fourier import PeriodicFunction, transform
from euciso.groups import find_m0

from conftest import quotient, reference_json, rod_spec, spec, time_limit

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def payloads_checked_against_json(monkeypatch):
    """Every payload the CLI writes here is also checked against json.dumps."""
    def checked(payload):
        text = io.canonical_json(payload)
        assert text == reference_json(payload)
        return text
    monkeypatch.setattr(cli, "canonical_json", checked)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_analyze_pg(capsys):
    code, out = run(capsys, "analyze", "catalog:pg", "--N", "3,6")
    assert code == 0
    data = json.loads(out)
    assert data["m0"] == 1
    assert data["is_space_group"] is True
    assert data["group_orders"] == {"3": 18, "6": 72}


def test_analyze_twist(capsys):
    code, out = run(capsys, "analyze", "catalog:twistE8", "--N", "2")
    data = json.loads(out)
    assert code == 0
    assert data["m0"] == 2
    assert data["orders"] == {"F": 4, "rot_S": 8}


def test_analyze_rejects_invalid_spec(tmp_path, capsys):
    s = spec("helix-C3")
    raw = io.spec_to_dict(s)
    raw["f_elements"] = raw["f_elements"][:2]      # break kernel closure
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(raw, default=io._coerce))
    code, out = run(capsys, "analyze", str(path))
    assert code == 2
    data = json.loads(out)
    assert data["valid"] is False
    assert any(v["code"] == "f-closed" for v in data["violations"])


@pytest.mark.parametrize("command", ["analyze", "verify"])
@pytest.mark.parametrize("p", [[[1, 0], [0]], [[1, 0, 0], [0, -1, 0]]])
def test_non_square_point_block_is_a_spec_error(tmp_path, capsys, command, p):
    raw = io.spec_to_dict(spec("pm"))
    raw["p_reps"][1]["p"] = p
    path = tmp_path / "pm.json"
    path.write_text(json.dumps(raw, default=io._coerce))
    assert main([command, str(path)]) == 2
    assert "cannot parse spec" in capsys.readouterr().err


@pytest.mark.parametrize("group, key, value", [
    ("pg", "p", [[1.7, 0], [0, -1.2]]),    # was read as the glide's [[1, 0], [0, -1]]
    ("pg", "d2", 2.7),
    ("helix-C3", "d2", True),
])
def test_non_integer_integer_fields_are_spec_errors(tmp_path, capsys, group, key, value):
    raw = io.spec_to_dict(spec(group))
    if key == "p":
        raw["p_reps"][1]["p"] = value
    else:
        raw[key] = value
    with pytest.raises(EucisoError, match="malformed group spec"):
        io.spec_from_dict(raw)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(raw, default=io._coerce))
    assert main(["verify", str(path)]) == 2
    assert "malformed group spec" in capsys.readouterr().err


def set_field(raw, path, value):
    """raw with the field at `path` (keys and list indices) set to value."""
    *head, last = path
    for key in head:
        raw = raw[key]
    raw[last] = value


# each of these loaded at one time: tau [true, 0] as (1, 0), which makes pg
# another group; a bool tol as 1.0, a string one as its number, a negative or
# NaN one until validate_spec blamed F; bools in q blocks and F as 1.0 and 0.0
@pytest.mark.parametrize("group, path, value", [
    ("pg", ["p_reps", 1, "tau"], [True, 0]),
    ("pg", ["p_reps", 1, "tau"], [0.5, 0]),
    ("pg", ["tol"], True),
    ("pg", ["tol"], "1e-9"),
    ("pg", ["tol"], -1),
    ("pg", ["tol"], 0),
    ("pg", ["tol"], float("nan")),
    ("pg", ["tol"], float("inf")),
    ("pg", ["tol"], 10 ** 400),
    ("helix-C3", ["p_reps", 1, "q"], [[True, 0.0], [0.0, -1.0]]),
    ("helix-C3", ["t_lifts", 0, "q", 1], [False, "1.0"]),
    ("helix-C3", ["f_elements", 0], [[1.0, False], [0.0, 1.0]]),
    ("helix-C3", ["f_elements", 0], [[1.0, 0.0], [0.0, float("nan")]]),
], ids=["tau-bool", "tau-float", "tol-bool", "tol-string", "tol-negative", "tol-zero",
        "tol-nan", "tol-inf", "tol-huge-int", "q-bool", "q-string", "f-bool", "f-nan"])
def test_bools_strings_and_bad_tolerances_are_spec_errors(tmp_path, capsys, group, path, value):
    raw = json.loads(io.canonical_json(io.spec_to_dict(spec(group))))
    set_field(raw, path, value)
    with pytest.raises(EucisoError, match="malformed group spec"):
        io.spec_from_dict(raw)
    file = tmp_path / "spec.json"
    file.write_text(json.dumps(raw))
    assert main(["analyze", str(file)]) == 2
    err = capsys.readouterr().err
    assert "malformed group spec" in err
    if path == ["tol"]:
        assert "tol must be" in err


@pytest.mark.parametrize("path, value", [
    (["d2"], 1000000),      # built a d2 x d2 identity first: still running after 15 s
    (["d2"], 3),
    (["p_reps"], []),
    (["p_reps", 1, "p"], [[1, 0, 0], [0, -1, 0], [0, 0, 1]]),
    (["p_reps", 1, "p", 1], [0]),
])
def test_d2_is_checked_against_the_lists_first(tmp_path, capsys, path, value):
    raw = json.loads(io.canonical_json(io.spec_to_dict(spec("pg"))))
    set_field(raw, path, value)
    file = tmp_path / "spec.json"
    file.write_text(json.dumps(raw))
    with time_limit(1.0):
        assert main(["analyze", str(file)]) == 2
    assert "malformed group spec" in capsys.readouterr().err


@pytest.mark.parametrize("group, path", [
    ("p1", ["p_reps", 0, "tau", 0]),
    ("pg", ["p_reps", 1, "p", 0, 1]),   # [[1, 2**70], [0, -1]] has det -1 and order 2
])
def test_integers_past_int64_are_violations(tmp_path, capsys, group, path):
    raw = json.loads(io.canonical_json(io.spec_to_dict(spec(group))))
    set_field(raw, path, 2 ** 70)
    file = tmp_path / "spec.json"
    file.write_text(json.dumps(raw))
    code, out = run(capsys, "analyze", str(file))
    assert code == 2
    # p1's one p_rep is its identity coset, so a translation there is refused too
    want = ["p-identity", "p-range"] if group == "p1" else ["p-range"]
    assert [v["code"] for v in json.loads(out)["violations"]] == want


@pytest.mark.parametrize("group, tau", [("p1", [1, 0]), ("pg", [0, 1])])
def test_an_identity_coset_off_the_identity_is_a_violation(tmp_path, capsys, group, tau):
    # the p_rep with identity point part is taken as the identity element
    # throughout the quotient; translated, it loaded as another group, which
    # verify failed and split crashed on
    raw = json.loads(io.canonical_json(io.spec_to_dict(spec(group))))
    set_field(raw, ["p_reps", 0, "tau"], tau)
    file = tmp_path / "spec.json"
    file.write_text(json.dumps(raw))
    code, out = run(capsys, "analyze", str(file))
    assert code == 2
    assert [v["code"] for v in json.loads(out)["violations"]] == ["p-identity"]
    assert main(["split", str(file), "--m", "1", "--n", "3"]) == 2
    assert "p-identity: p_reps[0] has the identity point part" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0", "-0.0", "one"])
def test_tol_option_must_be_positive_and_finite(capsys, tol):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "catalog:pg", "--tol", tol])
    assert exc.value.code == 2
    assert "argument --tol" in capsys.readouterr().err


def test_rational_strings_and_integers_still_load():
    raw = json.loads(io.canonical_json(io.spec_to_dict(spec("pg"))))
    raw["p_reps"][1]["tau"] = ["1/2", 0]
    raw["tol"] = 1
    loaded = io.spec_from_dict(raw)
    assert loaded.p_reps[1].tau == (Fraction(1, 2), Fraction(0))
    assert loaded.tol == 1.0 and type(loaded.tol) is float


def test_analyze_c12_rod_bound(tmp_path, capsys):
    # |F|^2 |Aut(C12)| = 144 * 4; a search over all 12! permutations of F never ends
    path = tmp_path / "rod-C12.json"
    path.write_text(io.canonical_json(io.spec_to_dict(rod_spec(12, False, 1.0))))
    code, out = run(capsys, "analyze", str(path))
    assert code == 0
    assert json.loads(out)["m0_bound"] == 576


def test_missing_file_is_io_error(capsys):
    code, _ = run(capsys, "analyze", "/nonexistent/path.json")
    assert code == 3
    code, _ = run(capsys, "analyze", "catalog:nope")
    assert code == 3


def test_unknown_catalog_group_message_is_unquoted(capsys):
    assert main(["analyze", "catalog:nope"]) == 3
    assert capsys.readouterr().err == (
        f"error: unknown catalog group 'nope'; have {', '.join(catalog.CATALOG)}\n")


def test_spec_json_round_trip(tmp_path, capsys):
    for name in ("pg", "twistE8"):
        s = spec(name)
        path = tmp_path / f"{name}.json"
        io.save_spec(s, str(path))
        loaded = io.load_spec(str(path))
        assert loaded.name == s.name
        code, out = run(capsys, "analyze", str(path))
        assert code == 0
        assert json.loads(out)["m0"] == catalog.CATALOG[name].expected["m0"]


def test_dual_command(capsys):
    code, out = run(capsys, "dual", "catalog:pg", "--N", "3")
    assert code == 0
    data = json.loads(out)
    assert len(data["labels"]) == 6
    assert sum(1 for l in data["labels"] if l["irreducible"]) == 3
    assert all(data["checks"].values())
    assert data["census_dims"] == [1, 1, 1, 1, 1, 1, 2, 2, 2]


def test_dual_default_level_is_m0(capsys):
    code, out = run(capsys, "dual", "catalog:twistE8")
    assert code == 0
    assert json.loads(out)["N"] == 2


def test_dual_cap_exit(capsys):
    code, _ = run(capsys, "dual", "catalog:p1", "--N", "80")
    assert code == 4


def test_split_cap_exit(capsys):
    # order 4489 is above the table cap; refused before any product is formed
    code, _ = run(capsys, "split", "catalog:p1", "--m", "1", "--n", "67")
    assert code == 4


def test_split_nonpositive_modulus_exit(capsys):
    code = main(["split", "catalog:p1", "--m", "-1", "--n", "-5"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_analyze_large_quotient_needs_no_table(capsys):
    code, out = run(capsys, "analyze", "catalog:twistE8", "--N", "24")
    assert code == 0
    assert json.loads(out)["group_orders"] == {"24": 18432}


def test_dual_deterministic_bytes(capsys):
    _, first = run(capsys, "dual", "catalog:pg", "--N", "3", "--seed", "11")
    _, second = run(capsys, "dual", "catalog:pg", "--N", "3", "--seed", "11")
    assert first == second


# sha256 of canonical stdout, recorded before the array-native Representation;
# these outputs carry no residual floats and depend only on characters
PINNED_DIGESTS = {
    ("dual", "catalog:pg", "--N", "3"):
        "c9119aaf0b30d1589aaeeb10f5a86b926748be4eb3c51e28e0c141ee96f6e981",
    ("dual", "catalog:twistE8"):
        "5086628e324c1d80d4ff6f35336606a14261d94dd4729d41fc75c21a27a47fb0",
    ("dual", "catalog:twistE8-m4", "--N", "8"):
        "8f55bc19c06f60dc533b269c4b4b9d8bdb240bca4a6487e204a06c2eb86ae2f7",
    # the rod group with a flip, whose rep_set merges two kernel characters
    ("dual", "catalog:helix-C3", "--N", "3"):
        "f43b98aaee575368b93f232658d91225fce484374d7948955f8508c12fe7ee0f",
    ("split", "catalog:twistE8", "--m", "2", "--n", "3"):
        "604fc7dee24bbf9c7b2e767fbfe2f644627518e276d9491a0593bf392fa18107",
    ("dual", "catalog:twistE8", "--N", "4"):
        "0e4642c54be81cffb10cee2113a2d11c6178d0f677a03d74dfb383abc83b18fd",
    # labels on and off the null set, recorded while every label's stack was built eagerly
    ("dual", "catalog:pg", "--N", "12"):
        "2569058802802ca5d18acda4fc348aa94e49063fb01561d41ae168397bc9dc6f",
    # recorded while the dual still came from the regular-representation solver
    ("dual", "catalog:twistE8", "--N", "6"):
        "861a71f48c0d89acf3d2c66f5750da25371c99e56e4e3ca5ccb23116bf4c422b",
    # recorded while every split built the whole table; its normal part's
    # 2025^2 products are a quarter of the table, so it still builds it
    ("split", "catalog:pg", "--m", "1", "--n", "45"):
        "2c1d84eec3c1edeb9598a8aabc29326ec54b792ab020cbf871f3e1641d697831",
    # recorded while the split parts were sets of ids
    ("split", "catalog:p1", "--m", "1", "--n", "5"):
        "e46d13b16b0356a204b337128e116e86e33d6a7f63d6cff35d26b26e6f4608f3",
    ("split", "catalog:pm", "--m", "1", "--n", "3"):
        "191172467ef1a3830caf598f2cae2d3334f41dcb1eacb32ff8899176b193ad33",
    ("split", "catalog:pg", "--m", "1", "--n", "3"):
        "b8ee00ee157721da71ceb13335fbf513393887e697e86bace298f29a0554943c",
    ("split", "catalog:screw-C4", "--m", "1", "--n", "3"):
        "8fb88cb704d031f78ca91619b68c9ed7848f5fad512503c5d29eef506e0fd88e",
    ("split", "catalog:helix-C3", "--m", "1", "--n", "5"):
        "aa0e90ed7befa5533db97f70ac0b1ed727349492a4cc1c5d2a37db5419de70e4",
    ("split", "catalog:helix-C3-tf", "--m", "1", "--n", "2"):
        "8ab81bec0faf34f4ffec900230e47b947a97c9a10e2475315f04f67a1379150e",
    ("split", "catalog:twistE8-m4", "--m", "4", "--n", "3"):
        "6b5022e546f48eb848fe87bbc659f89531a2fa9be8bee109180122fd9b6888cd",
    # recorded before `compose` left Fraction arithmetic and the Fourier
    # identities read the atlas stacks; seeds 1-3 pin the other draws
    ("verify", "catalog:p1"):
        "a9d55d7019d0129722e39bf8f8d34ce942c0d0324d7ad14992f77f0778ff97e7",
    ("verify", "catalog:pm"):
        "7be42542a788f244da400a91d322a374f74115f1b21850e954bac3e280beb960",
    ("verify", "catalog:pg"):
        "37600d95edd7b90d4c0159a701ea6096bd00f007eed3c9c659461128024e944e",
    ("verify", "catalog:screw-C4"):
        "df6a12a225b05f70ede1561ea1feb08e22b22e8982af7417c3312025db151a0e",
    ("verify", "catalog:helix-C3"):
        "c3bf499d36aae663798bad96c6f9ef0cafe7cbefad689c689021e949c00bd533",
    ("verify", "catalog:helix-C3-tf"):
        "0e8439c5d2a359e0cba94b1150e51a0bdaf7dc60e2c1ec8863d3c77595334ebe",
    ("verify", "catalog:twistE8"):
        "3eeaaf033125e820a61440346bcd1705d48a506b9346d23072f7a2d01e733850",
    ("verify", "catalog:twistE8-m4"):
        "d68636dde39f0bd88aac2bb98b9adabf6391d597dc6542bd1a99cb7269d1eb7c",
    ("verify", "catalog:p1", "--seed", "1"):
        "8b8e01cecc5faf49af5ded27f7c5f2c89ad3fdb885a9b861dc2c4316763809ce",
    ("verify", "catalog:pm", "--seed", "1"):
        "e5fa5718f2f5e6a82ec8c9f32cdfd7868c9742b9883124239ab952a9ab77126a",
    ("verify", "catalog:pg", "--seed", "1"):
        "402be3cf37fa58553f0ca8dd723a03dda65e812ceb8d2c2bf73f529fe66c7600",
    ("verify", "catalog:screw-C4", "--seed", "1"):
        "b1f36c73e12d21095c15ffd4777ada7964e6711f54c4dfddaea34cf949d24cbf",
    ("verify", "catalog:helix-C3", "--seed", "1"):
        "03c45f4804379ed23f5c52700ff974dc1642e13d2cd8fc147693cf672d6570eb",
    ("verify", "catalog:helix-C3-tf", "--seed", "1"):
        "d18ebe231efcfa5906f8d9d676eedb73127bf67b6b9c34c1df486e668ab015e0",
    ("verify", "catalog:twistE8", "--seed", "1"):
        "ccad2796f83b1e54b16ba72f773f1ecd3c08a70fc072e8e573c9ac63b0ab7bd4",
    ("verify", "catalog:twistE8-m4", "--seed", "1"):
        "2735e1eedb3a6ce1893565b0a7c52555264108889474dedc6c8dcf7876af0358",
    ("verify", "catalog:p1", "--seed", "2"):
        "9ab15c31241fab7010ae33f9f031e94567360b507effe1eae96417d1b39db19a",
    ("verify", "catalog:pm", "--seed", "2"):
        "e50878fcd5d80c9eca4bedc8ba349dde104e097d4f9a3b5b0dbf292b72442cda",
    ("verify", "catalog:pg", "--seed", "2"):
        "bd36686cfc2dad6ec83d40b4aaf4ae64d652497e549d237dbc661bf518f1618d",
    ("verify", "catalog:screw-C4", "--seed", "2"):
        "6a267e149fd8066df71bb4e0fe72b89fef9f4070f210bbaed894e2df3389178c",
    ("verify", "catalog:helix-C3", "--seed", "2"):
        "c43ce9883087e6ea0b4170be136023370abef63f934bd178417092a126e4e0d7",
    ("verify", "catalog:helix-C3-tf", "--seed", "2"):
        "ae44a172fd14a69415b1033a54072949523cfdf867d7f2bb4f6e81bee0501662",
    ("verify", "catalog:twistE8", "--seed", "2"):
        "82d4cfda2e22be9fd9d9adedde256e526a9fb98793fa9eee56119c330b659f7a",
    ("verify", "catalog:twistE8-m4", "--seed", "2"):
        "3056cb4a94750fba329136cd86a8f169df67eb9e529394776310280ee8d468f9",
    ("verify", "catalog:p1", "--seed", "3"):
        "a973f65c04af3e995b49f5b2d4f02217983e3abf4d4d44266f48ddadca2e3a9c",
    ("verify", "catalog:pm", "--seed", "3"):
        "06646162aaf6c1fbdd222b4041634fd111832ebad3c44e709972813033e23383",
    ("verify", "catalog:pg", "--seed", "3"):
        "d988cc9d189f955cedecb5681350e7642dd5147f26291546f88fb310bdb171f3",
    ("verify", "catalog:screw-C4", "--seed", "3"):
        "1b73f22687d7d98da7973050736a6c4e692f6b0a97055bd583124d119679edfb",
    ("verify", "catalog:helix-C3", "--seed", "3"):
        "936e894924cff06d403f3c817b09fa8a92d7ba8b85b22747bb6bb0f4d2409504",
    ("verify", "catalog:helix-C3-tf", "--seed", "3"):
        "9cd0b5ed1fd739cd1c7333a33e7ff039ddb0bed40122eaa75446e3d480b1d96d",
    ("verify", "catalog:twistE8", "--seed", "3"):
        "104a1fde19678a57df3acf3a48a60cb0f75d035ecc1d2eed71c68f1b37a59fac",
    ("verify", "catalog:twistE8-m4", "--seed", "3"):
        "5510f8d25ee191b8e39199ac31fb5a60c071986cf0fc3029c78f3410c72448d4",
}


def test_pinned_output_bytes(capsys):
    for argv, digest in PINNED_DIGESTS.items():
        code, out = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# sha256 of `fourier --check` and of `fourier --inverse` on its table, for a
# function drawn from default_rng(0); recorded while each transform still
# stacked the irreducibles per call and tables went out as nested lists
PINNED_FOURIER_DIGESTS = {
    ("twistE8", 2, (2, 2)):
        ("ac4881a0ecadb51a2f51fe35a868df03d6babbab8e90c0a798a1d5fab336320b",
         "eadc3af76cc00e497abb56834799be3afb0948c2a025397b0f461a4541abe99d"),
    ("pg", 3, (1, 2)):
        ("7512f90e40cfd9aec59daf54a79549ca450a69ddbe83fd0b2d401355a3f32ca7",
         "860988295bd348080e7cbeb5ca46d40783a5ae84e028f63ec2b8737eaa3ffd10"),
}


@pytest.mark.parametrize("group, N, shape", list(PINNED_FOURIER_DIGESTS))
def test_pinned_fourier_bytes(tmp_path, capsys, group, N, shape):
    u = PeriodicFunction.random(quotient(group, N), shape, np.random.default_rng(0))
    fn, table = tmp_path / "fn.json", tmp_path / "table.json"
    fn.write_text(io.canonical_json(io.function_to_dict(u)))
    code, forward = run(capsys, "fourier", f"catalog:{group}", str(fn), "--check")
    assert code == 0
    table.write_text(forward)
    code, back = run(capsys, "fourier", f"catalog:{group}", str(table), "--inverse")
    assert code == 0
    assert (hashlib.sha256(forward.encode()).hexdigest(),
            hashlib.sha256(back.encode()).hexdigest()) == PINNED_FOURIER_DIGESTS[group, N, shape]


def test_fourier_round_trip_files(tmp_path, capsys):
    q = quotient("pg", 3)
    u = PeriodicFunction.random(q, (1, 2), np.random.default_rng(9))
    fn = tmp_path / "fn.json"
    fn.write_text(io.canonical_json(io.function_to_dict(u)))
    table = tmp_path / "table.json"
    code, _ = run(capsys, "fourier", "catalog:pg", str(fn), "--check",
                  "--out", str(table))
    assert code == 0
    data = json.loads(table.read_text())
    assert data["plancherel_check"]["passed"] is True
    back = tmp_path / "back.json"
    code, _ = run(capsys, "fourier", "catalog:pg", str(table), "--inverse",
                  "--out", str(back))
    assert code == 0
    restored = io.function_from_dict(json.loads(back.read_text()), q)
    assert u.max_abs_diff(restored) <= 1e-8


def test_fourier_group_mismatch(tmp_path, capsys):
    q = quotient("pg", 3)
    u = PeriodicFunction.delta(q)
    d = io.function_to_dict(u)
    d["group"] = "pm"
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps(d, default=io._coerce))
    code, _ = run(capsys, "fourier", "catalog:pg", str(fn))
    assert code == 5


def test_fourier_entry_shape_mismatch(tmp_path, capsys):
    q = quotient("pg", 3)
    u = PeriodicFunction.random(q, (1, 2), np.random.default_rng(9))
    table = io.table_to_dict(transform(u))
    i = next(k for k, e in enumerate(table["entries"]) if e["dim"] == 2)
    transposed = json.loads(io.canonical_json(table))
    transposed["entries"][i]["value"] = \
        np.array(table["entries"][i]["value"]).reshape(4, 2, 2).tolist()
    wrong_dim = json.loads(io.canonical_json(table))
    wrong_dim["entries"][i]["dim"] = 5
    for bad in (transposed, wrong_dim):
        path = tmp_path / "table.json"
        path.write_text(json.dumps(bad))
        code, _ = run(capsys, "fourier", "catalog:pg", str(path), "--inverse")
        assert code == 5
    d = io.function_to_dict(u)
    d["entries"][3]["value"] = np.array(d["entries"][3]["value"]).reshape(2, 1, 2).tolist()
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps(d, default=io._coerce))
    code, _ = run(capsys, "fourier", "catalog:pg", str(fn))
    assert code == 5


def test_table_from_another_basis_is_refused(tmp_path, capsys):
    # another seed, or a solver that picks other bases, gives other irreducible
    # matrices; inverting in them would return a wrong function.  twistE8's
    # atlas basis depends on the seed through its TF classes at m0
    q = quotient("twistE8", 2)
    u = PeriodicFunction.random(q, (1, 2), np.random.default_rng(9))
    table = io.table_to_dict(transform(u, seed=0))
    reseeded = dict(table, seed=1)
    unmarked = {k: v for k, v in table.items() if k != "basis"}
    for bad in (reseeded, unmarked):
        path = tmp_path / "table.json"
        path.write_text(io.canonical_json(bad))
        code, _ = run(capsys, "fourier", "catalog:twistE8", str(path), "--inverse")
        assert code == 5
    # pg's atlas basis does not depend on the seed, so a reseeded pg table inverts
    u = PeriodicFunction.random(quotient("pg", 3), (1, 2), np.random.default_rng(9))
    path.write_text(io.canonical_json(dict(io.table_to_dict(transform(u, seed=0)), seed=1)))
    code, out = run(capsys, "fourier", "catalog:pg", str(path), "--inverse")
    assert code == 0
    assert u.max_abs_diff(io.function_from_dict(json.loads(out), u.q)) <= 1e-8


def test_function_and_table_files_round_trip_bit_exactly():
    q = quotient("pg", 3)
    u = PeriodicFunction.random(q, (1, 2), np.random.default_rng(9))
    u[0] = [[complex(-0.0, -0.0), complex(0.0, -0.0)]]
    text = io.canonical_json(io.function_to_dict(u))
    back = io.function_from_dict(json.loads(text), q)
    assert back.values.tobytes() == u.values.tobytes()
    assert io.canonical_json(io.function_to_dict(back)) == text
    t = transform(u)
    t.entries[0][0, 0] = complex(-0.0, 0.0)
    text = io.canonical_json(io.table_to_dict(t))
    back = io.table_from_dict(json.loads(text), q)
    assert all(back.entries[i].tobytes() == t.entries[i].tobytes() for i in t.entries)
    assert io.canonical_json(io.table_to_dict(back)) == text


@pytest.mark.parametrize("f,p", [(2, 0), (0, -1), (0, 2)])
def test_fourier_entry_outside_the_normal_forms(tmp_path, capsys, f, p):
    # pg has |F| = 1 and |P| = 2; such an entry names no element and must not alias one
    d = io.function_to_dict(PeriodicFunction.delta(quotient("pg", 3)))
    d["entries"] = [dict(d["entries"][0], f=f, p=p)]
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps(d, default=io._coerce))
    code, out = run(capsys, "fourier", "catalog:pg", str(fn))
    assert code == 2 and out == ""


def pg_file(kind):
    """A pg N=3 function file, or the table file of its transform, as json reads it."""
    u = PeriodicFunction.random(quotient("pg", 3), (1, 2), np.random.default_rng(9))
    data = io.function_to_dict(u) if kind == "function" else io.table_to_dict(transform(u))
    return json.loads(io.canonical_json(data))


def run_fourier(tmp_path, capsys, kind, data):
    """Exit code, stdout and stderr of `fourier` (`--inverse` on a table) on data."""
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(data))
    code = main(["fourier", "catalog:pg", str(path), *(["--inverse"] * (kind == "table"))])
    return (code, *capsys.readouterr())


def limited_address_space():
    """Cap the child's address space at 2 GiB, so that a file asking for
    more fails where it allocates instead of taking the machine's memory."""
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("shape", [[1, 10 ** 12], [1, 10 ** 8]])
def test_a_function_shape_past_the_cap_exits_4(tmp_path, shape):
    # [1, 10^8] on pg's 18 elements would be 26.8 GiB of values
    path = tmp_path / "function.json"
    path.write_text(json.dumps({"group": "pg", "N": 3, "shape": shape, "entries": []}))
    done = subprocess.run([sys.executable, "-m", "euciso.cli", "fourier", "catalog:pg", str(path)],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          preexec_fn=limited_address_space)
    assert (done.returncode, done.stdout) == (4, "")
    assert "Traceback" not in done.stderr and "DEFAULT_CAP^2" in done.stderr


def test_a_table_shape_past_the_cap_exits_4(tmp_path, capsys):
    data = pg_file("table")
    data["shape"] = [1, 10 ** 12]
    code, out, err = run_fourier(tmp_path, capsys, "table", data)
    assert (code, out) == (4, "") and "DEFAULT_CAP^2" in err


@pytest.mark.parametrize("kind", ["function", "table"])
def test_the_shape_cap_counts_every_value(tmp_path, capsys, monkeypatch, kind):
    # with the cap at 6, pg N=3 holds 36 values: shape (1, 2) fits exactly
    monkeypatch.setattr(io, "DEFAULT_CAP", 6)
    code, out, _ = run_fourier(tmp_path, capsys, kind, pg_file(kind))
    assert code == 0 and out
    data = pg_file(kind)
    data["shape"] = [1, 3]
    code, out, err = run_fourier(tmp_path, capsys, kind, data)
    assert (code, out) == (4, "") and "shape (1, 3) on 18 elements" in err


ENTRY_KEYS = {"n", "f", "p", "irrep", "dim"}


@pytest.mark.parametrize("kind, key, value", [
    ("function", "shape", [1, 2, 5]), ("function", "shape", [0, 2]), ("function", "N", 3.5),
    ("function", "N", 3.0), ("function", "N", 0), ("function", "n", [0.7, 0]),
    ("function", "f", 0.7), ("function", "p", 0.7), ("function", "p", True),
    ("table", "shape", [1, 2, 5]), ("table", "shape", [0, 2]), ("table", "N", 3.5),
    ("table", "seed", 0.7), ("table", "irrep", 0.7), ("table", "dim", 0.7),
    ("table", "dim", 1.0)])
def test_fourier_files_with_non_integers_or_bad_shapes(tmp_path, capsys, kind, key, value):
    data = pg_file(kind)
    (data["entries"][0] if key in ENTRY_KEYS else data)[key] = value
    code, out, err = run_fourier(tmp_path, capsys, kind, data)
    assert code == 2 and out == ""
    assert "malformed function file" in err


def test_a_repeated_irreducible_in_a_table_is_refused(tmp_path, capsys):
    data = pg_file("table")
    data["entries"].append(dict(data["entries"][0]))
    code, out, err = run_fourier(tmp_path, capsys, "table", data)
    assert code == 5 and out == ""
    assert "irrep 0 has two entries" in err


def drop_last_column(value):
    return [row[:-1] for row in value]


# (what is done to the value of the first dim-2 entry, or to the entries, the
# exit code, a piece of the message): a value that is not a rectangular
# matrix of [re, im] numbers is a format error; a rectangular one of the
# wrong shape, a missing entry and a repeated one are incompatible files
TABLE_DAMAGE = {
    "ragged-row": (lambda e, i: e[i]["value"][0].pop(), 2, "rectangular matrix"),
    "three-element-pair": (lambda e, i: e[i]["value"][0][0].append(0.0), 2, "rectangular matrix"),
    "empty-value": (lambda e, i: e[i].update(value=[]), 2, "rectangular matrix"),
    "number-value": (lambda e, i: e[i].update(value=1.5), 2, "malformed function file"),
    "string-number": (lambda e, i: e[i]["value"][1][0].__setitem__(0, "x"), 2,
                      "could not convert"),
    "wrong-width": (lambda e, i: e[i].update(value=drop_last_column(e[i]["value"])), 5,
                    "a (2, 3) value"),
    "missing-entry": (lambda e, i: e.pop(i), 5, "irrep 6 has no entry"),
    "repeated-entry": (lambda e, i: e.append(dict(e[i])), 5, "has two entries"),
}


@pytest.mark.parametrize("damage", list(TABLE_DAMAGE))
def test_damaged_table_values_and_entries_are_refused(tmp_path, capsys, damage):
    change, want_code, message = TABLE_DAMAGE[damage]
    data = pg_file("table")
    entries = data["entries"]
    change(entries, next(k for k, e in enumerate(entries) if e["dim"] == 2))
    code, out, err = run_fourier(tmp_path, capsys, "table", data)
    assert code == want_code and out == ""
    assert message in err


# (the value of the first entry of a pg N=3 function file of shape (1, 2), the
# exit code, a piece of the message): each number is read as `json_float`
# reads a spec's, so bools, nulls, strings and non-finite numbers are format
# errors, as is a value that is not a rectangular matrix of pairs; a
# rectangular one of the wrong shape is an incompatible file
FUNCTION_VALUE_DAMAGE = {
    "bool-null-string": ([[[True, None], ["1.5", 0.0]]], 2, "a function value must be"),
    "string-number": ([[[0.5, 0.0], ["1.5", 0.0]]], 2, "not '1.5'"),
    "nan": ([[[0.5, float("nan")], [1.0, 0.0]]], 2, "must be a finite number"),
    "ragged-row": ([[[0.5, 0.0], [1.0]]], 2, "rectangular matrix"),
    "transposed": ([[[0.5, 0.0]], [[1.0, 0.0]]], 5, "value shape (2, 1) != (1, 2)"),
}


@pytest.mark.parametrize("damage", list(FUNCTION_VALUE_DAMAGE))
def test_damaged_function_values_are_refused(tmp_path, capsys, damage):
    value, want_code, message = FUNCTION_VALUE_DAMAGE[damage]
    data = pg_file("function")
    data["entries"][0]["value"] = value
    code, out, err = run_fourier(tmp_path, capsys, "function", data)
    assert code == want_code and out == ""
    assert message in err


def test_function_values_keep_signed_zeros():
    data = pg_file("function")
    data["entries"][0]["value"] = [[[-0.0, 0.0], [0.0, -0.0]]]
    u = io.function_from_dict(data, quotient("pg", 3))     # entries are in id order
    assert np.signbit(u.values[0].view(float)).tolist() == [[True, False, False, True]]


def test_a_repeated_element_in_a_function_file_is_refused(tmp_path, capsys):
    # n and n + N e_1 reduce to the same element of pg mod T^3
    data = pg_file("function")
    first = data["entries"][0]
    data["entries"].append(dict(first, n=[first["n"][0] + 3, first["n"][1]]))
    code, out, err = run_fourier(tmp_path, capsys, "function", data)
    assert code == 2 and out == ""
    assert "two entries name element" in err


@pytest.mark.parametrize("argv", [["dual", "catalog:pg"], ["verify", "catalog:pg"],
                                  ["fourier", "catalog:pg", "table.json", "--inverse"],
                                  ["fourier", "catalog:pg", "fn.json"]])
def test_a_negative_seed_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: must be non-negative, not -1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["analyze", "catalog:pg"],
                                  ["split", "catalog:pg", "--m", "1", "--n", "3"]])
def test_seed_is_not_an_option_where_nothing_is_drawn(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 0" in capsys.readouterr().err


ALLOCATION_BOUND = 8 * 2**20    # bytes; far below any order-sized array of these quotients


def traced_peak(fn):
    """fn's result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_analyze_order_allocates_nothing_order_sized(capsys):
    code, peak = traced_peak(lambda: main(["analyze", "catalog:pg", "--N", "2000"]))
    assert code == 0
    assert json.loads(capsys.readouterr().out)["group_orders"] == {"2000": 8000000}
    assert peak < ALLOCATION_BOUND


def test_dual_reaches_the_table_cap_first(capsys):
    # order 5,120,000: the table cap refuses it before the atlas builds anything
    code, peak = traced_peak(lambda: main(["dual", "catalog:twistE8", "--N", "400"]))
    assert code == 4
    assert "table cap" in capsys.readouterr().err
    assert peak < ALLOCATION_BOUND


def test_fourier_reaches_the_solver_cap_before_reading_values(tmp_path, capsys):
    entry = {"n": [0, 0], "f": 0, "p": 0,
             "value": [[[float(i == j), 0.0] for j in range(3)] for i in range(3)]}
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps({"group": "twistE8", "N": 400, "shape": [3, 3],
                              "entries": [entry]}))
    code, peak = traced_peak(lambda: main(["fourier", "catalog:twistE8", str(fn)]))
    assert code == 4
    assert "table cap" in capsys.readouterr().err
    assert peak < ALLOCATION_BOUND


def test_fourier_solves_nothing_larger_than_the_tf_view_at_m0(tmp_path, capsys, monkeypatch):
    # the transform reads the atlas; the solver serves the rep-set candidates only
    s = spec("pg")
    limit, solve = quotient("pg", find_m0(s).m0).tf_subgroup().order, reps.irreps

    def guarded(domain, seed=0):
        assert len(domain.elements) <= limit, f"solver called at order {len(domain.elements)}"
        return solve(domain, seed)

    for module in [m for name, m in sys.modules.items() if name.startswith("euciso")]:
        if getattr(module, "irreps", None) is solve:
            monkeypatch.setattr(module, "irreps", guarded)
    spec_file, fn = tmp_path / "pg.json", tmp_path / "fn.json"
    io.save_spec(s, str(spec_file))         # a fresh spec holds no cached atlas
    u = PeriodicFunction.random(quotient("pg", 24), (2, 2), np.random.default_rng(9))
    fn.write_text(io.canonical_json(io.function_to_dict(u)))
    code, out = run(capsys, "fourier", str(spec_file), str(fn), "--check")
    assert code == 0
    assert json.loads(out)["plancherel_check"]["passed"] is True


def test_fourier_malformed_file(tmp_path, capsys):
    fn = tmp_path / "fn.json"
    fn.write_text("{not json")
    code, _ = run(capsys, "fourier", "catalog:pg", str(fn))
    assert code == 2


def test_split_command(capsys):
    code, out = run(capsys, "split", "catalog:pg", "--m", "1", "--n", "3")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["orders"] == {"normal": 9, "complement": 2, "group": 18}
    assert data["a_coefficient"] == -1


def test_split_coprimality_exit(capsys):
    code, _ = run(capsys, "split", "catalog:pg", "--m", "1", "--n", "2")
    assert code == 2


def test_verify_command(capsys):
    code, out = run(capsys, "verify", "catalog:pm")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_names_first_violation(tmp_path, capsys):
    s = spec("helix-C3")
    raw = io.spec_to_dict(s)
    raw["f_elements"] = raw["f_elements"][:2]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(raw, default=io._coerce))
    code, out = run(capsys, "verify", str(path))
    assert code == 1
    data = json.loads(out)
    assert data["passed"] is False
    assert data["first_failure"] == "spec-valid"


def test_catalog_command(capsys):
    code, out = run(capsys, "catalog")
    assert code == 0
    data = json.loads(out)
    assert set(data) == set(catalog.names())
