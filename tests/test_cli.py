from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from qsatake import cli, equivalence
from qsatake.modtools import hom
from qsatake.qsl2 import direct_sum, simple

REPO_ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestChar:
    def test_simple_text(self, capsys):
        code, out, _ = run(capsys, "char", "simple", "3", "+")
        assert code == 0
        assert out == "k⁺(3) ⊕ k⁻(1) ⊕ k⁺(-1) ⊕ k⁻(-3)\n"

    def test_standard_zero(self, capsys):
        code, out, _ = run(capsys, "char", "standard", "0", "+")
        assert code == 0
        assert out == "k⁺(0)\n"

    def test_standard_json_bytes(self, capsys):
        code, out, _ = run(capsys, "char", "standard", "2", "+", "--format", "json")
        assert code == 0
        assert out == '{"plus":{"2":1,"0":1,"-2":1},"minus":{"0":1}}\n'

    def test_json_schema(self, capsys, schemas):
        code, out, _ = run(capsys, "char", "projective", "4", "-", "--format", "json")
        assert code == 0
        jsonschema.validate(json.loads(out), schemas["character"])

    def test_bad_label_exits_2(self, capsys):
        code, _, err = run(capsys, "char", "simple", "-3", "+")
        assert code == 2

    def test_unknown_kind_exits_2(self, capsys):
        code, _, _ = run(capsys, "char", "tilting", "3", "+")
        assert code == 2


class TestJh:
    def test_standard(self, capsys):
        code, out, _ = run(capsys, "jh", "standard", "3", "+")
        assert code == 0
        assert out == "L(3)⁺, L(1)⁺\n"

    def test_projective(self, capsys):
        code, out, _ = run(capsys, "jh", "projective", "3", "+")
        assert code == 0
        assert out == "L(5)⁺, L(3)⁺ ×2, L(1)⁺\n"

    def test_simple(self, capsys):
        code, out, _ = run(capsys, "jh", "simple", "4", "+")
        assert code == 0
        assert out == "L(4)⁺\n"

    def test_json_schema(self, capsys, schemas):
        code, out, _ = run(capsys, "jh", "projective", "3", "+", "--format", "json")
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(data, schemas["jh"])
        assert data == [
            {"n": 5, "sign": "+", "mult": 1},
            {"n": 3, "sign": "+", "mult": 2},
            {"n": 1, "sign": "+", "mult": 1},
        ]


class TestHomdim:
    def test_values(self, capsys):
        assert run(capsys, "homdim", "2", "2")[1] == "2\n"
        assert run(capsys, "homdim", "0", "2")[1] == "1\n"
        assert run(capsys, "homdim", "0", "4")[1] == "0\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "homdim", "2", "4", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"a": 2, "b": 4, "dim": 1}

    def test_odd_label_exits_2(self, capsys):
        code, _, err = run(capsys, "homdim", "3", "2")
        assert code == 2
        assert "even" in err

    def test_over_guard_exits_2(self, capsys):
        assert run(capsys, "homdim", "50", "2")[0] == 2


class TestVerify:
    def test_blocks_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "blocks", "--max", "5")
        assert code == 0
        assert out.endswith("blocks: 7 checks, 0 failures\n")

    def test_relations_json_schema(self, capsys, schemas):
        code, out, _ = run(
            capsys, "verify", "relations", "--max", "3", "--format", "json"
        )
        assert code == 0
        items = json.loads(out)
        jsonschema.validate(items, schemas["report"])
        assert all(it["pass"] for it in items)

    def test_zigzag_small(self, capsys):
        code, out, _ = run(capsys, "verify", "zigzag", "--max", "1")
        assert code == 0
        assert "0 failures" in out.splitlines()[-1]

    def test_clebsch_gordan(self, capsys):
        code, out, _ = run(capsys, "verify", "clebsch-gordan", "--max", "4")
        assert code == 0

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "verify", "bgg", "--max", "3")
        _, second, _ = run(capsys, "verify", "bgg", "--max", "3")
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "verify",
            "steinberg",
            "--max",
            "2",
            "--format",
            "json",
            "--output",
            str(path),
        )
        assert code == 0
        assert out == ""
        items = json.loads(path.read_text(encoding="utf-8"))
        assert all(it["pass"] for it in items)

    def test_unwritable_output_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "report.txt"
        code, out, err = run(
            capsys, "verify", "relations", "--max", "1", "--output", str(path)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert not path.exists()

    def test_max_guard(self, capsys):
        code, _, err = run(capsys, "verify", "blocks", "--max", "25")
        assert code == 2
        assert "guard" in err

    def test_max_guard_force(self, capsys):
        code, _, _ = run(capsys, "verify", "blocks", "--max", "25", "--force")
        assert code == 0

    def test_negative_max(self, capsys):
        assert run(capsys, "verify", "blocks", "--max", "-1")[0] == 2

    def test_failure_exit_code(self, capsys, monkeypatch):
        def failing_suite(max_n):
            return [
                {"relation": "forced", "lhs": "1", "rhs": "0", "pass": False}
            ]

        monkeypatch.setitem(cli._SUITE_RUNNERS, "blocks", failing_suite)
        code, out, _ = run(capsys, "verify", "blocks")
        assert code == 1
        assert "FAIL blocks: forced" in out

    def test_gauge_failure_is_reported(self, capsys, monkeypatch, with_doubled_arrow):
        # A clean run first fills the memos; they must not hide the failure.
        code, out, _ = run(capsys, "verify", "zigzag", "--max", "2")
        assert code == 0
        assert out.splitlines()[-1] == "zigzag: 143 checks, 0 failures"
        # Only N = 2 has a vertex where the doubled entry breaks gauge fixing.
        real = equivalence.hom_quiver
        monkeypatch.setattr(
            equivalence,
            "hom_quiver",
            lambda n: with_doubled_arrow(real(n)) if n == 2 else real(n),
        )
        code, out, _ = run(capsys, "verify", "zigzag", "--max", "2")
        assert code == 1
        lines = out.splitlines()
        assert lines[-1] == "zigzag: 44 checks, 1 failures"
        assert (
            "FAIL zigzag: N=2: gauge fixing: lhs=x0*y1 and y2*x1 are not "
            "proportional at vertex 1 rhs=zigzag generators"
        ) in lines

    def test_truncation_after_a_gauge_failure_passes(
        self, capsys, monkeypatch, with_doubled_arrow
    ):
        # N = 3 cannot extend the failed gauge of N = 2 and is built afresh.
        real = equivalence.hom_quiver
        monkeypatch.setattr(
            equivalence,
            "hom_quiver",
            lambda n: with_doubled_arrow(real(n)) if n == 2 else real(n),
        )
        code, out, _ = run(capsys, "verify", "zigzag", "--max", "3")
        assert code == 1
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert fails == [
            "FAIL zigzag: N=2: gauge fixing: lhs=x0*y1 and y2*x1 are not "
            "proportional at vertex 1 rhs=zigzag generators"
        ]
        assert out.splitlines()[-1] == "zigzag: 241 checks, 1 failures"

    def test_non_local_end_at_vertex_0_is_reported(self, capsys, monkeypatch):
        # End(S0 + S2) has dimension 2, like End P(0), but no radical.
        s = direct_sum(simple(0), simple(2))
        monkeypatch.setattr(
            equivalence,
            "hom_quiver",
            lambda n: equivalence.HomQuiver(0, (s,), ((hom(s, s),),)),
        )
        code, out, _ = run(capsys, "verify", "zigzag", "--max", "0")
        assert code == 1
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert fails == [
            "FAIL zigzag: N=0: gauge fixing: lhs=End algebra has a 0-dimensional "
            "radical, expected 1 rhs=zigzag generators"
        ]

    def test_unknown_suite_exits_2(self, capsys):
        assert run(capsys, "verify", "everything")[0] == 2


class TestReportBytes:
    """Reports must not change by a byte; the zigzag and frobenius digests
    were recorded from the dense-matrix implementation (the zigzag json one
    from the big intertwiner solve, before the spin-up; the zigzag --max 16
    one, the first above N = 8, from the suite that gauged and compared
    every truncation from scratch) and the relations
    digests from the associativity loop that called ``multiply`` four times
    per triple, and the clebsch-gordan and bgg digests from the greedy
    Jordan-Holder routine, the double-loop convolution and the per-n bgg
    verifier, so any change in a printed coefficient or in the order of items
    fails here."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("verify", "zigzag", "--max", "3"),
                "884c675e70708edb3b4ab8239f6feb19b1cf2afa3665c162cc8853d0fa077cc5",
            ),
            (
                ("verify", "zigzag", "--max", "8", "--format", "json"),
                "7d0e3f7b0633bd510bf9ee384e9a4b76824987dfdbc42d068b3d6b4bea6d7e00",
            ),
            (
                ("verify", "zigzag", "--max", "16", "--format", "json"),
                "c0046ff06bb0b10358917a5e5d82c89e12d14edb37fc23c204860eb7dcb8e7ca",
            ),
            (
                ("verify", "frobenius", "--max", "4", "--format", "json"),
                "09cf0e8dd6e7c70268836fecea7ea540ac46da10b860df8bf70f9d671a0ea6f2",
            ),
            (
                ("verify", "relations", "--max", "12"),
                "5f81e6c61d017868868513c15c7c66af41c00e566fb7baaa274e7f6d181a5b2a",
            ),
            (
                ("verify", "relations", "--max", "4", "--format", "json"),
                "2f5a3a0ac21c6b8784f61a2a2e8f5dc26ee4984a7a916c5983b1899b12cca49d",
            ),
            (
                ("verify", "clebsch-gordan", "--max", "16", "--format", "json"),
                "c48da33197186c721313cd5e95096ecddbb880725237a26f6dfed474cafc14db",
            ),
            (
                ("verify", "bgg", "--max", "16", "--format", "json"),
                "b725a909e13ff6877d42f9f7de0178a54dcb2b0c1d06ef283271a889ac0cddf5",
            ),
        ],
        ids=[
            "zigzag-text",
            "zigzag-json",
            "zigzag-16-json",
            "frobenius-json",
            "relations-text",
            "relations-json",
            "clebsch-gordan-json",
            "bgg-json",
        ],
    )
    def test_report_digest(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestUsage:
    def test_missing_command(self, capsys):
        assert run(capsys)[0] == 2

    def test_missing_arguments(self, capsys):
        assert run(capsys, "char", "simple")[0] == 2


class TestProcessLevel:
    def test_byte_identical_across_processes(self):
        cmd = [sys.executable, "-m", "qsatake.cli", "verify", "zigzag", "--max", "1"]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout.endswith(b"zigzag: 42 checks, 0 failures\n")

    def test_start_up_imports_no_unneeded_stdlib_module(self):
        # -S keeps the host's .pth files, which may import typing themselves,
        # from hiding a regression.
        script = "\n".join(
            [
                "import sys",
                "import qsatake.cli",
                "unneeded = ('dataclasses', 'fractions', 'decimal', 'inspect', 'typing')",
                "print(sorted(set(unneeded) & set(sys.modules)))",
                "qsatake.cli.main(['homdim', '2', '4'])",
                "qsatake.cli.main(['homdim', '24', '22'])",
                "print('fractions' in sys.modules)",
            ]
        )
        env = {"PYTHONPATH": str(REPO_ROOT / "src")}
        cmd = [sys.executable, "-S", "-c", script]
        done = subprocess.run(cmd, capture_output=True, env=env, check=True)
        assert done.stdout == b"[]\n1\n1\nFalse\n"

    def test_benchmark_traced_run_resolves_every_layer(self, tmp_path):
        # perfbench/traced.py exits 3 if a function it wraps is renamed or moved.
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        cmd = [
            sys.executable,
            str(REPO_ROOT / "perfbench" / "traced.py"),
            str(tmp_path / "spans.json"),
            "homdim",
            "0",
            "0",
        ]
        done = subprocess.run(cmd, capture_output=True, env=env, cwd=REPO_ROOT)
        assert done.returncode == 0, done.stderr
        assert done.stdout == b"2\n"
