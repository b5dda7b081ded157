import json

import numpy as np
import pytest

from coherify.cli import main

T_EXAMPLE = [[0.7, 0.2, 0.6], [0.1, 0.6, 0.4], [0.2, 0.2, 0.0]]


def write_json(path, matrix, kind="real"):
    m = np.asarray(matrix)
    if kind == "real":
        entries = [float(x) for x in m.reshape(-1)]
    else:
        entries = [[float(x.real), float(x.imag)] for x in m.reshape(-1)]
    path.write_text(json.dumps({"dim": m.shape[0], "kind": kind, "entries": entries}))
    return str(path)


@pytest.fixture
def t30(tmp_path):
    return write_json(tmp_path / "t30.json", T_EXAMPLE)


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def test_classify_flat_offdiagonal(tmp_path, capsys):
    path = tmp_path / "t64.csv"
    path.write_text("0,0.5,0.5\n0.5,0,0.5\n0.5,0.5,0\n")
    code, rep = run(capsys, "classify", str(path))
    assert code == 0
    assert rep["bistochastic"] is True
    assert rep["unistochastic"] == "no"
    assert rep["witness_triple"] == [1, 2, 3]


def test_classify_2x2(tmp_path, capsys):
    path = write_json(tmp_path / "b.json", [[0.5, 0.5], [0.5, 0.5]])
    code, rep = run(capsys, "classify", path)
    assert code == 0
    assert rep["unistochastic"] == "yes"
    assert rep["witness"] is not None


def test_classify_non_square_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1,0\n0,1\n1,0\n")
    assert main(["classify", str(path)]) == 3


def test_empty_matrix_exits_3(tmp_path, capsys):
    path = tmp_path / "empty.json"
    for kind in ("real", "complex"):
        path.write_text(json.dumps({"dim": 0, "kind": kind, "entries": []}))
        for command in ("classify", "bounds"):
            assert main([command, str(path)]) == 3
            assert "transition matrix is empty" in capsys.readouterr().err


def test_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["classify", str(path)]) == 2
    assert main(["classify", str(tmp_path / "missing.json")]) == 2
    # entries that are not a list, and a dim that is not a whole number >= 0
    for text in ('{"dim": 2, "entries": null}', '{"dim": 2, "entries": 5}',
                 '{"dim": -1, "entries": [0.5]}', '{"dim": 1.7, "entries": [1.0]}'):
        path.write_text(text)
        capsys.readouterr()
        assert main(["bounds", str(path)]) == 2, text
        assert "dim/kind/entries" in capsys.readouterr().err
    # a whole-number float dim still reads
    path.write_text('{"dim": 2.0, "entries": [0.5, 0.5, 0.5, 0.5]}')
    assert main(["bounds", str(path)]) == 0
    # a seed outside 0..2**64 - 1 is a usage error, not a traceback
    for seed, message in (("-1", "at least 0"), (str(2 ** 64), "at most")):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["validate", str(path), "--samples", "2", "--seed", seed])
        assert exc.value.code == 2
        assert f"--seed: must be {message}" in capsys.readouterr().err


def test_coherify_c0(t30, tmp_path, capsys):
    out = tmp_path / "dump"
    code, rep = run(capsys, "coherify", t30, "--method", "c0", "--out", str(out))
    assert code == 0
    assert rep["achieved_spectrum"][:3] == pytest.approx([0.5, 0.4, 0.1], abs=1e-9)
    assert rep["kraus_count"] == 3
    assert sorted(p.name for p in out.iterdir()) == [
        "kraus_00.json",
        "kraus_01.json",
        "kraus_02.json",
        "report.json",
    ]


def test_coherify_auto_qubit(tmp_path, capsys):
    path = write_json(tmp_path / "q.json", [[1 / 3, 1 / 6], [2 / 3, 5 / 6]])
    code, rep = run(capsys, "coherify", path, "--method", "auto")
    assert code == 0
    assert rep["method"] == "qubit_optimal"
    assert rep["optimal"] is True
    assert rep["achieved_spectrum"][:2] == pytest.approx([0.75, 0.25], abs=1e-9)


def test_coherify_auto_identity(tmp_path, capsys):
    path = write_json(tmp_path / "i.json", np.eye(3))
    code, rep = run(capsys, "coherify", path)
    assert code == 0
    assert rep["method"] == "unistochastic"
    assert rep["coherence_entropic_bits"] == pytest.approx(np.log2(3), abs=1e-9)


def test_coherify_method_precondition_exits_4(t30):
    assert main(["coherify", t30, "--method", "qutrit-cyclic"]) == 4
    assert main(["coherify", t30, "--method", "unistochastic"]) == 4
    assert main(["coherify", t30, "--method", "qubit"]) == 4


def test_row_stochastic_flag(tmp_path, capsys):
    t = np.asarray(T_EXAMPLE).T
    path = write_json(tmp_path / "rows.json", t)
    code, rep = run(capsys, "bounds", path, "--row-stochastic")
    assert code == 0
    assert rep["mu_upper"][:3] == pytest.approx([0.8, 0.2, 0.0], abs=1e-12)


def test_bounds_report(t30, tmp_path, capsys):
    code, rep = run(capsys, "bounds", t30)
    assert code == 0
    assert rep["mu_lower"][:3] == pytest.approx([0.5, 0.4, 0.1], abs=1e-12)
    assert "polygon" not in rep
    path = tmp_path / "t64.csv"
    path.write_text("0,0.5,0.5\n0.5,0,0.5\n0.5,0.5,0\n")
    code, rep = run(capsys, "bounds", str(path))
    assert rep["polygon"]["majorization_upper"][:2] == pytest.approx([0.5, 0.5])
    assert rep["polygon"]["purity_upper"] == pytest.approx(13 / 18)
    assert rep["unistochastic"] == "no"
    path = write_json(tmp_path / "w.json", np.full((3, 3), 1 / 3))
    code, rep = run(capsys, "bounds", str(path))
    assert rep["unistochastic"] == "yes"
    assert "complete coherification possible" in rep["note"]


def test_diagnose(tmp_path, capsys):
    # the qubit optimum's two Kraus operators
    from coherify.constructions import coherify_qubit

    res = coherify_qubit(np.array([[1 / 3, 1 / 6], [2 / 3, 5 / 6]]))
    paths = [
        write_json(tmp_path / f"k{i}.json", k, kind="complex")
        for i, k in enumerate(res.channel.kraus)
    ]
    code, rep = run(capsys, "diagnose", *paths)
    assert code == 0
    assert rep["path_distribution"][:2] == pytest.approx([0.75, 0.25], abs=1e-9)
    assert rep["bounds_satisfied"] is True
    assert rep["classical_action"][0][0] == pytest.approx(1 / 3, abs=1e-9)


def test_diagnose_identity(tmp_path, capsys):
    path = write_json(tmp_path / "id.json", np.eye(2), kind="complex")
    code, rep = run(capsys, "diagnose", path)
    assert code == 0
    assert rep["unitarity"] == pytest.approx(1.0, abs=1e-9)
    assert rep["coherence_entropic_bits"] == pytest.approx(1.0, abs=1e-9)


def test_diagnose_1x1_exits_3(tmp_path, capsys):
    # unitarity needs d >= 2; a 1x1 channel is a typed error, not a traceback
    path = write_json(tmp_path / "k.json", [[1.0]])
    assert main(["diagnose", path]) == 3
    assert "unitarity is defined only for d >= 2, got d = 1" in capsys.readouterr().err


def test_diagnose_not_tp_exits_5(tmp_path):
    path = write_json(tmp_path / "half.json", np.eye(2) * 0.5, kind="complex")
    assert main(["diagnose", str(path)]) == 5


def test_validate_ok_and_reproducible(t30, capsys):
    code, rep = run(capsys, "validate", t30, "--samples", "40", "--seed", "42")
    assert code == 0
    assert rep["ok"] is True
    assert all(v == 0 for v in rep["violations"].values())
    assert rep["purity_bracket"] == pytest.approx([0.42, 0.68], abs=1e-12)
    code2, rep2 = run(capsys, "validate", t30, "--samples", "40", "--seed", "42")
    assert rep == rep2


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_validate_samples_below_one_is_a_usage_error(t30, samples, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", t30, "--samples", samples])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--samples: must be at least 1" in captured.err


def test_dim_cap(tmp_path, capsys):
    path = write_json(tmp_path / "big.json", np.eye(9))
    kraus = write_json(tmp_path / "k9.json", np.eye(9), kind="complex")
    for args in (["classify", path], ["coherify", path], ["bounds", path],
                 ["validate", path], ["diagnose", kraus]):
        assert main(args) == 3
        assert "exceeds CLI limit 8" in capsys.readouterr().err


def test_diagnose_unequal_kraus_sizes_exits_3(tmp_path, capsys):
    k2 = write_json(tmp_path / "k2.json", np.eye(2) / np.sqrt(2), kind="complex")
    k3 = write_json(tmp_path / "k3.json", np.eye(3) / np.sqrt(2), kind="complex")
    assert main(["diagnose", k2, k3]) == 3
    assert "square with equal dims" in capsys.readouterr().err


def test_the_cached_parser_repeats_its_errors(capsys):
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "x.csv", "--samples", "0"])
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and "must be at least 1, got 0" in errors[0]
