import hashlib
import importlib
import json
import pathlib

import pytest

import ppfan
from ppfan.cli import main
from ppfan.grassmann import MAX_N


def test_every_exported_name_resolves():
    assert len(set(ppfan.__all__)) == len(ppfan.__all__)
    assert [name for name in ppfan.__all__ if not hasattr(ppfan, name)] == []


def test_every_traced_layer_resolves(monkeypatch):
    # the benchmark's tracer refuses to run when a layer it wraps is gone
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    assert all(callable(tracing._resolve(name)) for name in tracing.LAYERS)


@pytest.fixture
def weights_file(tmp_path):
    path = tmp_path / "weights_2_1.json"
    path.write_text(json.dumps({"lattice_rank": 2, "weights": [[2, 1], [1, 1], [0, 1]]}))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_tailfan(capsys):
    code, out, _ = run(capsys, "tailfan", "--k", "2", "--n", "4")
    assert code == 0
    data = json.loads(out)
    assert len(data["maximal_cones"]) == 6


def test_tailfan_deterministic(capsys):
    _, out1, _ = run(capsys, "tailfan", "--k", "2", "--n", "5")
    _, out2, _ = run(capsys, "tailfan", "--k", "2", "--n", "5")
    assert out1 == out2


def test_setup(capsys, weights_file):
    code, out, _ = run(capsys, "setup", "--weights", weights_file)
    assert code == 0
    data = json.loads(out)
    assert data["pi"]["entries"] == [["1", "-2", "1"]]
    assert data["degree_element"] == [0, 1]
    assert sorted(data["tail_cone"]["rays"]) == [[-1, 2], [1, 0]]


def test_ppdivisor(capsys, weights_file):
    code, out, _ = run(capsys, "ppdivisor", "--weights", weights_file)
    assert code == 0
    data = json.loads(out)
    assert len(data["terms"]) == 2
    assert sorted(data["tail"]["rays"]) == [[-1, 2], [1, 0]]


def test_ppdivisor_with_rays_file(capsys, weights_file, tmp_path):
    rays = tmp_path / "rays.json"
    rays.write_text(json.dumps([[1]]))
    code, out, _ = run(capsys, "ppdivisor", "--weights", weights_file, "--rays", str(rays))
    assert code == 0
    assert len(json.loads(out)["terms"]) == 1


def test_projectivize(capsys, weights_file):
    code, out, _ = run(capsys, "projectivize", "--weights", weights_file)
    assert code == 0
    data = json.loads(out)
    assert len(data["cells"]) == 3


def test_ppdivisor_non_pointed_weights(capsys, tmp_path):
    # pi(orthant) is a half-plane: two chambers, and every ray has a fiber
    path = tmp_path / "weights.json"
    path.write_text(json.dumps({"lattice_rank": 1, "weights": [[1], [-1], [1]]}))
    code, out, err = run(capsys, "ppdivisor", "--weights", str(path))
    assert code == 0, err
    assert len(json.loads(out)["rays"]) == 3


def test_max_chambers_guard_exit_2(capsys, weights_file):
    code, out, err = run(capsys, "projectivize", "--weights", weights_file, "--max-chambers", "1")
    assert code == 2 and out == ""
    assert err == "error: more than 1 chambers (raise --max-chambers to force)\n"


@pytest.mark.parametrize("command", ["projectivize", "ppdivisor"])
@pytest.mark.parametrize("bound", ["0", "-1"])
def test_max_chambers_below_one_exit_2(capsys, weights_file, command, bound):
    with pytest.raises(SystemExit) as exc:
        main([command, "--weights", weights_file, "--max-chambers", bound])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert f"argument --max-chambers: must be at least 1, got {bound}" in out.err


def test_fansy_both(capsys):
    code, out, _ = run(capsys, "fansy", "--n", "4", "--method", "both")
    assert code == 0
    data = json.loads(out)
    assert data["equal"] is True
    assert len(data["closed"]["cells"]) == 6
    assert len(data["closed"]["labels"]) == 3
    assert len(data["cell_matching"]) == 6


def test_fansy_single_methods(capsys):
    code, out, _ = run(capsys, "fansy", "--n", "4", "--method", "closed")
    assert code == 0 and "cells" in json.loads(out)
    code, out, _ = run(capsys, "fansy", "--n", "4", "--method", "recipe")
    assert code == 0 and "cells" in json.loads(out)


def test_subdivision(capsys, weights_file):
    code, out, _ = run(capsys, "subdivision", "--weights", weights_file, "--c", "1")
    assert code == 0
    data = json.loads(out)
    assert len(data["cells"]) >= 1


def test_localcheck(capsys):
    code, out, _ = run(capsys, "localcheck", "--n", "4")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_small(capsys):
    code, out, err = run(capsys, "verify", "--n", "4")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert all(c["pass"] for c in data["criteria"])
    assert "PASS" in err


def test_bad_weights_file_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "ppdivisor", "--weights", str(bad))
    assert code == 2 and "error" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "setup", "--weights", "/nonexistent.json")
    assert code == 2


def test_ragged_weights_exit_2(capsys, tmp_path):
    bad = tmp_path / "ragged.json"
    bad.write_text(json.dumps({"lattice_rank": 2, "weights": [[1], [1, 2]]}))
    code, _, err = run(capsys, "setup", "--weights", str(bad))
    assert code == 2


@pytest.mark.parametrize("data, needle", [
    ({"lattice_rank": 2, "weights": [[2.7, 1], [1, 1], [0, 1]]}, "2.7"),
    ({"lattice_rank": 2, "weights": [[True, 1], [1, 1], [0, 1]]}, "True"),
    ({"lattice_rank": 0, "weights": []}, "lattice_rank"),
    ({"lattice_rank": 2, "weights": []}, "nonempty"),
    ({"lattice_rank": 2.0, "weights": [[2, 1], [1, 1], [0, 1]]}, "lattice_rank"),
    ({"weights": [[2, 1], [1, 1], [0, 1]]}, "lattice_rank must be an integer >= 1, got None"),
    ({"lattice_rank": 2}, "weights must be a nonempty list"),
], ids=["float", "bool", "rank-0-empty", "no-weights", "float-rank", "rank-missing",
        "weights-missing"])
def test_non_integer_or_empty_weights_exit_2(capsys, tmp_path, data, needle):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, err = run(capsys, "setup", "--weights", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error:") and needle in err


def test_fansy_guard_exit_2(capsys):
    code, _, err = run(capsys, "fansy", "--n", "10")
    assert code == 2


def test_verify_guard_exit_2(capsys):
    # refused before any check runs, as the recipe route would refuse n
    n = MAX_N + 1
    code, out, err = run(capsys, "verify", "--n", str(n))
    assert code == 2 and out == ""
    assert err == f"error: n={n} beyond the guard ({MAX_N})\n"


def test_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "fansy", "--n", "4", "--method", "closed")
    _, out2, _ = run(capsys, "fansy", "--n", "4", "--method", "closed")
    assert out1 == out2


@pytest.mark.parametrize("rays, needle", [
    ([[1.7], [-1]], "1.7"),
    ([[True], [-1]], "True"),
    ([[1, 0], [-1]], "[1, 0]"),
    ([], "nonempty"),
    ([[0], [1]], "(0,) is the zero vector"),
], ids=["float", "bool", "wrong-length", "empty", "zero"])
def test_bad_ray_file_exit_2(capsys, tmp_path, weights_file, rays, needle):
    bad = tmp_path / "rays.json"
    bad.write_text(json.dumps(rays))
    code, out, err = run(capsys, "ppdivisor", "--weights", weights_file, "--rays", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error:") and needle in err


def test_ray_file_accepted(capsys, tmp_path, weights_file):
    good = tmp_path / "rays.json"
    good.write_text(json.dumps([[1], [-1]]))
    code, out, _ = run(capsys, "ppdivisor", "--weights", weights_file, "--rays", str(good))
    assert code == 0
    assert sorted(r["ray"] for r in json.loads(out)["rays"]) == [[-1], [1]]


@pytest.mark.parametrize("n", ["3", "2", "0", "-1"])
def test_verify_small_n_exit_2(capsys, n):
    code, out, err = run(capsys, "verify", "--n", n)
    assert code == 2 and out == ""
    assert err == "error: need n >= 4\n"


# sha256 of stdout; a change to the JSON a command prints, down to one byte,
# must update its digest on purpose
@pytest.mark.parametrize("argv, digest", [
    (["fansy", "--n", "5", "--method", "both"],
     "b22a5d1344061b536c8fe133b6ec2aa41f8c09a252d088292c6c68871a75d677"),
    (["verify", "--n", "5"], "58b5b4218b2dbf5198652f751a464f3c22bf838a91d3992d6a3388b47351a6a8"),
    (["projectivize", "--weights", None],
     "79098e862c062ed80119a2dcc8aa883e9f6fc6e268861dc6521d92b92a023af3"),
    (["setup", "--weights", None],
     "27b7744593a439414c77511676e49bfa65e4cf40fc304b8e095218893b664375"),
    (["ppdivisor", "--weights", None],
     "f2925f04a43471278d6a486a09cf83aba6485181ec78b50355cc3469892e5a56"),
    (["subdivision", "--weights", None, "--c", "1"],
     "83f1171e678b72e0deb956d718b6526195ad99a44fc634fb92cd7e48b4d8b7ae"),
], ids=["fansy-5-both", "verify-5", "projectivize", "setup", "ppdivisor", "subdivision"])
def test_stdout_golden_digest(capsys, weights_file, argv, digest):
    code, out, _ = run(capsys, *[weights_file if a is None else a for a in argv])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
