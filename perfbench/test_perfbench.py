"""Tests of the benchmark's own checks: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

import pytest

import run
from traced import layer_metrics

CHEAP = ["char", "simple", "3", "+"]


def _golden_for(argv, sha256, exit_code=0):
    return {" ".join(argv): {"sha256": sha256, "exit": exit_code}}


def test_matching_digest_passes_and_corrupted_digest_fails():
    child = run.run_child([sys.executable, "-m", "qsatake.cli", *CHEAP])
    assert child.exit_code == 0
    good = _golden_for(CHEAP, child.sha256)
    assert run.run_pass([CHEAP], good).failed == []
    corrupted = _golden_for(CHEAP, ("0" if child.sha256[0] != "0" else "1") + child.sha256[1:])
    assert run.run_pass([CHEAP], corrupted).failed == [" ".join(CHEAP)]


def test_nonzero_exit_fails_even_with_matching_digest():
    argv = ["verify", "zigzag", "--max", "-1"]
    golden = _golden_for(argv, hashlib.sha256(b"").hexdigest())
    result = run.run_pass([argv], golden)
    assert result.failed == [" ".join(argv)]


def test_invocation_missing_from_golden_fails():
    assert run.run_pass([CHEAP], {}).failed == [" ".join(CHEAP)]


def test_every_drawable_invocation_has_a_golden_digest():
    golden = json.loads(run.GOLDEN_FILE.read_text(encoding="utf-8"))
    for workload in run.WORKLOADS:
        for seed in range(64):
            for argv in run.invocations(workload, seed):
                assert " ".join(argv) in golden


def test_invocations_depend_only_on_seed():
    assert run.invocations("homdim", 7) == run.invocations("homdim", 7)
    drawn = {tuple(map(tuple, run.invocations("homdim", s))) for s in range(16)}
    assert len(drawn) > 1


def test_corrupted_golden_file_makes_the_command_fail(tmp_path, monkeypatch, capsys):
    golden = json.loads(run.GOLDEN_FILE.read_text(encoding="utf-8"))
    key = "verify bgg --max 40 --force --format json"
    golden[key]["sha256"] = "0" * 64
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden), encoding="utf-8")
    monkeypatch.setattr(run, "GOLDEN_FILE", path)
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "MIN_PAIRS", 1)
    code = run.main(["--workload", "combinatorics", "--seed", "1", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 3


def test_checkout_without_package_exits_2_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    code = run.main(["--workload", "zigzag", "--seed", "1", "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_unimportable_package_exits_2_without_result(tmp_path, monkeypatch, capsys):
    pkg = tmp_path / "qsatake"
    pkg.mkdir()
    (pkg / "cli.py").write_text("raise ImportError('broken')\n", encoding="utf-8")
    monkeypatch.setattr(run, "SRC", tmp_path)
    code = run.main(["--workload", "zigzag", "--seed", "1", "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""


def _span(name, start, end, parent, attrs=None):
    return [name, start, end, parent, attrs]


def test_layer_metrics_self_time_and_hit_ratio():
    spans = [
        _span("cli", 0.0, 10.0, -1),
        _span("modtools.hom", 1.0, 5.0, 0),
        _span("qsl2.intertwiner_basis", 1.5, 4.5, 1, {"unknowns": 6}),
        _span("linalg.reduce_rows", 2.0, 4.0, 2, {"rows_in": 8, "nnz_in": 20, "pivots": 2}),
        _span("modtools.hom", 6.0, 6.5, 0),
        _span("linalg.reduce_rows", 7.0, 8.0, 0, {"rows_in": 2, "nnz_in": 3, "pivots": 2}),
    ]
    counts = {"scalars.mul": 5, "scalars.add": 7, "scalars.inverse": 1}
    out = layer_metrics([{"spans": spans, "counts": counts}] * 2)
    assert out["cli.self_s"] == pytest.approx(2 * (10.0 - 4.0 - 0.5 - 1.0))
    assert out["modtools.hom.self_s"] == pytest.approx(2 * (1.0 + 0.5))
    assert out["qsl2.intertwiner_basis.self_s"] == pytest.approx(2 * 1.0)
    assert out["modtools.hom.calls"] == 4
    assert out["modtools.hom.hit_ratio"] == 0.5
    assert out["linalg.reduce_rows.rows_in"] == 20
    assert out["linalg.reduce_rows.pivot_ratio"] == pytest.approx(8 / 20)
    assert out["qsl2.intertwiner_basis.equations"] == 16
    assert out["qsl2.intertwiner_basis.unknowns"] == 12
    assert out["scalars.mul"] == 10


def test_traced_child_keeps_report_bytes(tmp_path):
    spans_file = tmp_path / "spans.json"
    argv = ["homdim", "18", "18", "--format", "json"]
    plain = run.run_child([sys.executable, "-m", "qsatake.cli", *argv])
    traced = run.run_child(
        [sys.executable, str(run.HERE / "traced.py"), str(spans_file), *argv]
    )
    assert traced.exit_code == plain.exit_code == 0
    assert traced.sha256 == plain.sha256
    out = layer_metrics([json.loads(spans_file.read_text(encoding="utf-8"))])
    assert out["modtools.hom.calls"] == 1
    # homdim reaches reduce_rows only through qsl2's from-import.
    assert out["linalg.reduce_rows.calls"] > 0
    assert out["qsl2.intertwiner_basis.unknowns"] > 0
    assert out["scalars.mul"] > 0


def test_renamed_layer_fails_the_traced_run(tmp_path, monkeypatch):
    pkg = tmp_path / "qsatake"
    shutil.copytree(run.SRC / "qsatake", pkg, ignore=shutil.ignore_patterns("__pycache__"))
    for path in pkg.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("reduce_rows", "eliminate_rows"), encoding="utf-8")
    monkeypatch.setattr(run, "SRC", tmp_path)
    argv = ["homdim", "18", "18", "--format", "json"]
    golden = json.loads(run.GOLDEN_FILE.read_text(encoding="utf-8"))
    assert run.run_pass([argv], golden).failed == []
    assert run.run_pass([argv], golden, traced=True).failed == [" ".join(argv)]


def test_traced_run_emits_every_per_layer_metric(tmp_path, monkeypatch, capsys):
    child = run.run_child([sys.executable, "-m", "qsatake.cli", *CHEAP])
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(_golden_for(CHEAP, child.sha256)), encoding="utf-8")
    monkeypatch.setattr(run, "GOLDEN_FILE", path)
    monkeypatch.setitem(run.WORKLOADS, "zigzag", lambda rng: [CHEAP])
    code = run.main(["--workload", "zigzag", "--seed", "1", "--seconds", "1", "--trace", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = json.loads(run.SPEC_FILE.read_text(encoding="utf-8"))
    assert code == 0 and result["correct"] is True
    assert result["attempted"] == 2 * run.TRACE_PAIRS
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["per_layer"])
