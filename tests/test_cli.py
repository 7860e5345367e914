"""Command line interface: outputs, file formats, exit codes."""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from qdsbch import cli
from qdsbch.cli import main
from qdsbch.linalg import BinaryMatrix
from qdsbch.qds import identity_sm, qds_assemble
from qdsbch.sim import SimGrid, build_grid, default_code_meta, sweep
from qdsbch.stabilizer import format_stabilizer_code, lookup_decoder_build, steane_code


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- bch info -----------------------------------------------------------------


def test_bch_info(capsys):
    code, out, _ = run(capsys, "bch", "info", "--m", "5", "--t", "3")
    assert code == 0
    assert "[31,16,7] R=15" in out
    assert "generator=0x8faf" in out


def test_bch_info_shortened(capsys):
    code, out, _ = run(capsys, "bch", "info", "--m", "5", "--t", "3", "--shorten", "10")
    assert code == 0
    assert "[21,6,7] R=15" in out


def test_bch_info_infeasible_parameters(capsys):
    code, out, err = run(capsys, "bch", "info", "--m", "2", "--t", "5")
    assert code == 1
    assert err != ""
    assert out == ""


def test_bch_info_missing_argument(capsys):
    code, _, err = run(capsys, "bch", "info", "--m", "5")
    assert code == 1
    assert err != ""


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert err != ""


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "qdsbch" in out


# --- qds assemble ---------------------------------------------------------------


def test_qds_assemble_stdout(capsys):
    code, out, _ = run(capsys, "qds", "assemble", "--sm", "bch", "--t", "3")
    assert code == 0
    assert out.startswith("21 14\n")


def test_qds_assemble_files(tmp_path, capsys):
    prefix = tmp_path / "steane_qds"
    code, out, _ = run(
        capsys, "qds", "assemble", "--sm", "bch", "--t", "3", "--out", str(prefix)
    )
    assert code == 0
    matrix = BinaryMatrix.from_text((tmp_path / "steane_qds.txt").read_text())
    assert (matrix.rows, matrix.cols) == (21, 14)
    params = json.loads((tmp_path / "steane_qds.json").read_text())
    assert params["n"] == 7
    assert params["k"] == 1
    assert params["d"] == 3
    assert params["r"] == 15
    assert params["n_s"] == 21
    assert params["t_s"] == 3
    assert "version" in params["meta"]
    assert params["meta"]["command"] == "qds assemble"


@pytest.mark.parametrize(
    "sm_flags, digest",
    [
        (["--sm", "bch", "--t", "3"],
         "297f351f02a7831419607155d021fb71aa63fe137f4f018ee28e6e7bcdb04d85"),
        (["--sm", "repetition", "--reps", "3"],
         "6bcaa51f2a217694b95174ad9d3effa934b52ac6ae253cb4863cef2afbc02b3d"),
    ],
    ids=["bch-t3", "repetition-reps3"],
)
def test_qds_assemble_matrix_is_pinned(tmp_path, capsys, sm_flags, digest):
    """H_Q text recorded while G was still built apart from the encoder."""
    code, _, _ = run(capsys, "qds", "assemble", *sm_flags, "--out", str(tmp_path / "q"))
    assert code == 0
    assert hashlib.sha256((tmp_path / "q.txt").read_bytes()).hexdigest() == digest


def test_qds_assemble_identity_matches_base(capsys):
    code, out, _ = run(capsys, "qds", "assemble", "--sm", "identity")
    assert code == 0
    assert out.startswith("6 14\n")


def test_qds_assemble_from_code_file(tmp_path, capsys):
    path = tmp_path / "steane.txt"
    path.write_text(format_stabilizer_code(steane_code()))
    code, out, _ = run(
        capsys, "qds", "assemble", "--code-file", str(path), "--sm", "identity"
    )
    assert code == 0
    assert out.startswith("6 14\n")


def test_qds_assemble_rejects_invalid_code_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\nXI\nZI\n")
    code, _, err = run(capsys, "qds", "assemble", "--code-file", str(path))
    assert code == 1
    assert err != ""


def test_qds_assemble_failed_write_leaves_no_file(tmp_path, capsys, monkeypatch):
    """Both outputs are staged before either is committed: a write that
    dies on the second file leaves neither target nor any temp."""
    real_write = Path.write_text

    def fail_on_json(self, data, *args, **kwargs):
        if ".json" in self.name:
            real_write(self, data[:10], *args, **kwargs)
            raise OSError("disk full")
        return real_write(self, data, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", fail_on_json)
    code, _, err = run(
        capsys, "qds", "assemble", "--sm", "bch", "--t", "3", "--out", str(tmp_path / "q")
    )
    assert code == 1
    assert "disk full" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("prior", [None, "old matrix\n"], ids=["txt-absent", "txt-present"])
def test_qds_assemble_failed_rename_restores_the_first_target(tmp_path, capsys, prior):
    """The .json target is a directory, so its rename fails after the .txt
    one succeeded: the .txt goes back to what it was before the command."""
    (tmp_path / "q.json").mkdir()
    txt = tmp_path / "q.txt"
    if prior is not None:
        txt.write_text(prior)
    code, _, err = run(
        capsys, "qds", "assemble", "--sm", "bch", "--t", "3", "--out", str(tmp_path / "q")
    )
    assert code == 1
    assert f"cannot write {tmp_path / 'q.json'}" in err
    names = {p.name for p in tmp_path.iterdir()}
    if prior is None:
        assert names == {"q.json"}
    else:
        assert names == {"q.json", "q.txt"}
        assert txt.read_text() == prior


def test_qds_assemble_bch_requires_t(capsys):
    code, _, err = run(capsys, "qds", "assemble", "--sm", "bch")
    assert code == 1
    assert "--t" in err


def test_qds_assemble_repetition_requires_odd_reps(capsys):
    code, _, err = run(capsys, "qds", "assemble", "--sm", "repetition", "--reps", "4")
    assert code == 1
    assert err != ""


# --- qds count -------------------------------------------------------------------


def test_qds_count_csv(capsys):
    code, out, _ = run(capsys, "qds", "count", "--ell-range", "5:10", "--t-range", "1:3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# meta:")
    assert lines[1] == "ell,t,bch,fujiwara,repetition"
    assert "10,3,15,76,60" in lines
    assert "5,3,15,,30" in lines  # fujiwara needs 2t <= ell
    assert len(lines) == 2 + 6 * 3


def test_qds_count_single_values(tmp_path, capsys):
    out_path = tmp_path / "counts.csv"
    code, _, _ = run(
        capsys, "qds", "count", "--ell-range", "6", "--t-range", "3",
        "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[-1] == "6,3,15,51,36"


def test_qds_count_bad_ranges(capsys):
    for rng in ("x:y", "5:", "0:4"):
        code, _, err = run(capsys, "qds", "count", "--ell-range", rng, "--t-range", "1:2")
        assert code == 1
        assert err != ""
    code, _, err = run(capsys, "qds", "count", "--ell-range", "9:5", "--t-range", "1:2")
    assert code == 1


# --- sim grid ---------------------------------------------------------------------


def _grid_args(out_path, seed="7"):
    return [
        "sim", "grid", "--sm", "identity", "--trials", "200",
        "--bulk-trials", "40", "--max-wq", "3", "--max-ws", "4",
        "--seed", seed, "--out", str(out_path),
    ]


def test_sim_grid_schema(tmp_path, capsys):
    out_path = tmp_path / "grid.json"
    code, out, _ = run(capsys, *_grid_args(out_path))
    assert code == 0
    grid = SimGrid.from_json_text(out_path.read_text())
    assert grid.seed == 7
    assert grid.code_meta["n"] == 7
    assert grid.code_meta["n_s"] == 6
    assert grid.code_meta["t_data"] == 1
    assert grid.code_meta["command"] == "sim grid"
    assert "version" in grid.code_meta
    assert set(grid.cells) == {(wq, ws) for wq in range(4) for ws in range(5)}
    # boundary cells carry the full trial count
    assert grid.cells[(0, 0)].trials == 200
    assert grid.cells[(3, 4)].trials == 40


def test_sim_grid_is_byte_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(capsys, *_grid_args(a))[0] == 0
    assert run(capsys, *_grid_args(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.json"
    assert run(capsys, *_grid_args(c, seed="8"))[0] == 0
    assert a.read_bytes() != c.read_bytes()


def test_sim_grid_failed_rename_leaves_no_file(tmp_path, capsys, monkeypatch):
    def fail(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", fail)
    code, _, err = run(capsys, *_grid_args(tmp_path / "g.json"))
    assert code == 1
    assert "rename refused" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, target",
    [
        (["qds", "assemble", "--sm", "identity", "--out", "nodir/q"], "nodir/q.txt"),
        (_grid_args("nodir/g.json"), "nodir/g.json"),
    ],
    ids=["qds-assemble", "sim-grid"],
)
def test_out_into_missing_directory_names_the_target(tmp_path, capsys, monkeypatch, argv, target):
    monkeypatch.chdir(tmp_path)

    def refuse_to_sample(*args, **kwargs):
        raise AssertionError("sampled a grid that has nowhere to go")

    monkeypatch.setattr(cli, "build_grid", refuse_to_sample)
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert target in err
    assert ".tmp" not in err
    assert list(tmp_path.iterdir()) == []


def _library_grid():
    base = steane_code()
    dec = lookup_decoder_build(base, max_weight=1)
    q = qds_assemble(base, identity_sm(base.ell))
    cells = [(wq, ws) for wq in range(4) for ws in range(5)]
    return q, dec, build_grid(q, dec, seed=7, boundary_trials=200, bulk_trials=40, cells=cells)


def test_sim_grid_matches_the_library(tmp_path, capsys):
    """The CLI grid is build_grid's grid, with the library code_meta plus
    the command's provenance."""
    out_path = tmp_path / "grid.json"
    assert run(capsys, *_grid_args(out_path))[0] == 0
    cli_grid = SimGrid.from_json_text(out_path.read_text())
    q, dec, grid = _library_grid()
    meta = default_code_meta(q, dec)
    assert {key: cli_grid.code_meta.get(key) for key in meta} == meta
    assert cli_grid.cells == grid.cells


def test_sim_sweep_rows_match_library_sweep(tmp_path, capsys):
    grid_path = tmp_path / "grid.json"
    assert run(capsys, *_grid_args(grid_path))[0] == 0
    code, out, _ = run(
        capsys, "sim", "sweep", "--grid", str(grid_path),
        "--ps", "1e-4:1e-2:log5", "--ratio", "0.5", "--truncation", "1e-6",
    )
    assert code == 0
    q, dec, _ = _library_grid()
    grid = SimGrid.from_json_text(grid_path.read_text())
    ps = [float(p) for p in np.logspace(-4, -2, 5)]
    _, points = sweep(q, dec, ps, 0.5, seed=grid.seed, truncation=1e-6, grid=grid)
    want = [
        f"{pt.p_s:.12g},{pt.p_q:.12g},{pt.p_err:.12g},{pt.truncation_mass:.12g}"
        for pt in points
    ]
    assert out.strip().split("\n")[2:] == want


@pytest.mark.parametrize(
    "flag, value",
    [("--max-wq", "-1"), ("--max-ws", "-3"), ("--seed", "-5")],
    ids=["max-wq", "max-ws", "seed"],
)
def test_sim_grid_refuses_a_negative_flag(tmp_path, capsys, monkeypatch, flag, value):
    """A negative weight limit would write a grid of no cells, and a
    negative seed reach numpy: each is a usage error naming its flag,
    raised before any sampling."""

    def refuse_to_sample(*args, **kwargs):
        raise AssertionError("sampled a grid for an invalid flag")

    monkeypatch.setattr(cli, "build_grid", refuse_to_sample)
    out = tmp_path / "g.json"
    flags = {"--seed": "1", "--out": str(out), flag: value}
    argv = [item for pair in flags.items() for item in pair]
    code, _, err = run(capsys, "sim", "grid", "--sm", "identity", *argv)
    assert code == 1
    assert err.startswith(f"error: {flag} must be nonnegative")
    assert not out.exists()


def test_sim_grid_requires_seed(tmp_path, capsys):
    code, _, err = run(
        capsys, "sim", "grid", "--sm", "identity", "--out", str(tmp_path / "g.json")
    )
    assert code == 1
    assert err != ""
    assert not (tmp_path / "g.json").exists()


# --- sim sweep --------------------------------------------------------------------


def test_sim_sweep_from_grid(tmp_path, capsys):
    grid_path = tmp_path / "grid.json"
    run(capsys, "sim", "grid", "--sm", "identity", "--trials", "300",
        "--bulk-trials", "60", "--max-wq", "4", "--max-ws", "6",
        "--seed", "11", "--out", str(grid_path))
    curve_path = tmp_path / "curve.csv"
    code, _, _ = run(
        capsys, "sim", "sweep", "--grid", str(grid_path),
        "--ps", "1e-3:1e-2:log4", "--ratio", "0.01",
        "--truncation", "1e-9", "--out", str(curve_path),
    )
    assert code == 0
    lines = curve_path.read_text().strip().split("\n")
    assert lines[0].startswith("# meta:")
    assert lines[1] == "p_s,p_q,p_err,truncation_mass"
    assert len(lines) == 2 + 4
    first = lines[2].split(",")
    assert float(first[0]) == pytest.approx(1e-3)
    assert float(first[1]) == pytest.approx(1e-5)
    rates = [float(line.split(",")[2]) for line in lines[2:]]
    assert all(0.0 <= r <= 1.0 for r in rates)
    assert rates[0] < rates[-1]


def test_sim_sweep_single_point(tmp_path, capsys):
    grid_path = tmp_path / "grid.json"
    run(capsys, "sim", "grid", "--sm", "identity", "--trials", "100",
        "--bulk-trials", "30", "--max-wq", "3", "--max-ws", "6",
        "--seed", "2", "--out", str(grid_path))
    code, out, _ = run(
        capsys, "sim", "sweep", "--grid", str(grid_path),
        "--ps", "5e-3", "--ratio", "0.0", "--truncation", "1e-6",
    )
    assert code == 0
    assert "p_s,p_q,p_err,truncation_mass" in out


def test_sim_sweep_missing_grid_file(tmp_path, capsys):
    curve_path = tmp_path / "curve.csv"
    code, _, err = run(
        capsys, "sim", "sweep", "--grid", str(tmp_path / "missing.json"),
        "--ps", "1e-3", "--ratio", "0.1", "--out", str(curve_path),
    )
    assert code == 1
    assert err != ""
    assert not curve_path.exists()


def test_sim_sweep_rejects_malformed_grid_file(tmp_path, capsys):
    grid_path = tmp_path / "grid.json"
    cell = {"wq": 0, "ws": 0, "trials": 10, "failures": 0}
    grid_path.write_text(
        json.dumps({"code_meta": {"n": 7, "n_s": 6}, "seed": 1, "cells": [cell, cell]})
    )
    curve_path = tmp_path / "curve.csv"
    code, _, err = run(
        capsys, "sim", "sweep", "--grid", str(grid_path),
        "--ps", "1e-3", "--ratio", "0.1", "--truncation", "1e-2", "--out", str(curve_path),
    )
    assert code == 1
    assert "repeats cell (0, 0)" in err
    assert not curve_path.exists()


@pytest.mark.parametrize(
    "cell, key",
    [
        ({"wq": "1", "ws": 0, "trials": 10, "failures": 0}, "wq"),
        ({"wq": 0, "ws": 0, "trials": 10}, "failures"),
    ],
    ids=["string-weight", "missing-failures"],
)
def test_sim_sweep_names_the_bad_grid_key(tmp_path, capsys, cell, key):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({"code_meta": {"n": 7, "n_s": 6}, "seed": 1, "cells": [cell]}))
    code, _, err = run(
        capsys, "sim", "sweep", "--grid", str(grid_path), "--ps", "1e-3", "--ratio", "0.1",
    )
    assert code == 1
    assert err.startswith("error: grid cell") and f"'{key}'" in err


@pytest.mark.parametrize("spec", ["1e-3:1e-2:log0", "1e-3:1e-2:lin0"], ids=["log0", "lin0"])
def test_sim_sweep_refuses_an_empty_point_count(tmp_path, capsys, spec):
    """A sweep of zero points would write a CSV with a header only."""
    grid_path = tmp_path / "grid.json"
    cell = {"wq": 0, "ws": 0, "trials": 10, "failures": 0}
    grid_path.write_text(json.dumps({"code_meta": {"n": 7, "n_s": 6}, "seed": 1, "cells": [cell]}))
    curve_path = tmp_path / "curve.csv"
    code, _, err = run(
        capsys, "sim", "sweep", "--grid", str(grid_path),
        "--ps", spec, "--ratio", "0.1", "--out", str(curve_path),
    )
    assert code == 1
    assert err.startswith("error: --ps must be") and spec in err
    assert not curve_path.exists()


def test_sim_sweep_bad_points_spec(tmp_path, capsys):
    grid_path = tmp_path / "grid.json"
    run(capsys, "sim", "grid", "--sm", "identity", "--trials", "50",
        "--bulk-trials", "20", "--max-wq", "1", "--max-ws", "1",
        "--seed", "3", "--out", str(grid_path))
    for spec in ("abc", "1e-3:1e-2", "1e-3:1e-2:pow4", "1e-3:1e-2:logx"):
        code, _, err = run(
            capsys, "sim", "sweep", "--grid", str(grid_path),
            "--ps", spec, "--ratio", "0.1",
        )
        assert code == 1, spec
        assert err != ""


# --- verify -----------------------------------------------------------------------


def test_verify_identity_passes(capsys):
    code, out, _ = run(capsys, "verify", "--sm", "identity")
    assert code == 0
    assert "PASS" in out
    assert "w_q=1 w_s=0 cases=21 failures=0 ok" in out


def test_verify_bch_passes(capsys):
    code, out, _ = run(capsys, "verify", "--sm", "bch", "--t", "3")
    assert code == 0
    assert "PASS: all 34364 cases corrected exactly" in out


def test_verify_refuses_base_code_without_logical_qubit(tmp_path, capsys):
    path = tmp_path / "k0.txt"
    path.write_text("2 0\nXX\nZZ\n")
    code, out, err = run(capsys, "verify", "--code-file", str(path), "--sm", "identity")
    assert code == 1
    assert "k=0" in err
    assert "too large" not in err
    assert "PASS" not in out


def test_verify_budget_refusal(capsys):
    code, out, err = run(capsys, "verify", "--sm", "bch", "--t", "3", "--budget", "100")
    assert code == 3
    assert "34364" in err
    assert "PASS" not in out
