from __future__ import annotations

import contextlib
import errno
import hashlib
import io
import json
import os
import signal
import stat
import subprocess
import sys
import threading
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

from modules import direct_sum
from qsatake import cli, equivalence, modtools, qsl2, satake
from qsatake.errors import DomainError
from qsatake.modtools import hom
from qsatake.qsl2 import simple
from reports import expand_runs, render_items

REPO_ROOT = Path(__file__).resolve().parent.parent
# Child processes get what the benchmark gives its children: PATH and
# PYTHONPATH only.  A setting of the host such as PYTHONUNBUFFERED=1 would
# leave stdout unbuffered and hide a failed write of its buffer at exit.
PROCESS_ENV = {
    "PATH": os.environ.get("PATH", os.defpath),
    "PYTHONPATH": str(REPO_ROOT / "src"),
}
CLI = (sys.executable, "-m", "qsatake.cli")


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

    def test_unwritable_output_exits_2(self, capsys, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setitem(cli._SUITE_RUNNERS, "relations", calls.append)
        (tmp_path / "file").write_bytes(b"")
        for target in ("missing/report.txt", "missing/", ".", "file/report.txt"):
            path = os.path.join(tmp_path, target)
            code, out, err = run(
                capsys, "verify", "relations", "--max", "1", "--output", path
            )
            assert code == 2
            assert out == ""
            assert err.startswith("error: ")
            assert repr(path) in err  # the target, not a temporary name
        assert calls == []  # no suite ran
        assert os.listdir(tmp_path) == ["file"]

    def test_empty_output_exits_2_before_any_suite_runs(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setitem(cli._SUITE_RUNNERS, "blocks", calls.append)
        code, out, err = run(capsys, "verify", "blocks", "--max", "3", "--output", "")
        assert (code, out) == (2, "")
        assert err == "error: [Errno 2] No such file or directory: ''\n"
        assert calls == []

    def test_output_with_a_nul_byte_exits_2_before_any_suite_runs(
        self, capsys, monkeypatch
    ):
        # os.path reads such a path as missing; open() would raise ValueError.
        calls = []
        monkeypatch.setitem(cli._SUITE_RUNNERS, "blocks", calls.append)
        code, out, err = run(
            capsys, "verify", "blocks", "--max", "3", "--output", "a\0b"
        )
        assert (code, out) == (2, "")
        assert err == "error: [Errno 22] Invalid argument: 'a\\x00b'\n"
        assert calls == []

    def test_new_output_in_a_read_only_directory_exits_2(
        self, capsys, monkeypatch, tmp_path
    ):
        calls = []
        monkeypatch.setitem(cli._SUITE_RUNNERS, "relations", calls.append)
        folder = tmp_path / "folder"
        folder.mkdir(mode=0o555)
        if os.geteuid() == 0:
            # As in test_read_only_output_exits_2: answer as for any other user.
            monkeypatch.setattr(
                os, "access", lambda p, mode: os.stat(p).st_mode & 0o222 != 0
            )
        path = str(folder / "report.txt")
        code, out, err = run(
            capsys, "verify", "relations", "--max", "1", "--output", path
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and repr(path) in err
        assert calls == []
        assert os.listdir(folder) == []

    def test_failed_copy_exits_2(self, capsys, monkeypatch, tmp_path):
        import shutil

        def disk_full(src, dst):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(shutil, "copyfileobj", disk_full)
        path = tmp_path / "report.txt"
        code, out, err = run(
            capsys, "verify", "blocks", "--max", "1", "--output", str(path)
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and os.strerror(errno.ENOSPC) in err

    def test_output_with_a_long_name(self, capsys, tmp_path):
        # Any name open() accepts will do, however little room it leaves.
        argv = ("verify", "zigzag", "--max", "2")
        _, out, _ = run(capsys, *argv)
        path = tmp_path / ("r" * 250)
        code, nothing, _ = run(capsys, *argv, "--output", str(path))
        assert (code, nothing) == (0, "")
        assert path.read_bytes() == out.encode("utf-8")
        assert os.listdir(tmp_path) == [path.name]

    def test_killed_run_leaves_no_file(self, tmp_path):
        script = "\n".join(
            [
                "import os, signal, sys",
                "from qsatake import cli",
                "def dies_midway(max_n):",
                "    yield {'relation': 'first', 'lhs': '1', 'rhs': '1', 'pass': True}",
                "    os.kill(os.getpid(), signal.SIGKILL)",
                "cli._SUITE_RUNNERS['blocks'] = dies_midway",
                "cli.main(['verify', 'blocks', '--output', sys.argv[1]])",
            ]
        )
        cmd = [sys.executable, "-c", script, str(tmp_path / "report.txt")]
        done = subprocess.run(cmd, capture_output=True, env=PROCESS_ENV)
        assert done.returncode == -signal.SIGKILL
        assert os.listdir(tmp_path) == []

    def test_output_beside_a_stale_temporary_file(self, capsys, tmp_path):
        # A name another run may have left, built from this process's pid.
        stale = tmp_path / f".report.txt.{os.getpid()}.tmp"
        stale.write_bytes(b"stale\n")
        argv = ("verify", "zigzag", "--max", "2")
        _, out, _ = run(capsys, *argv)
        path = tmp_path / "report.txt"
        code, nothing, _ = run(capsys, *argv, "--output", str(path))
        assert (code, nothing) == (0, "")
        assert path.read_bytes() == out.encode("utf-8")
        assert stale.read_bytes() == b"stale\n"

    def test_existing_output_keeps_a_carriage_return(
        self, capsys, monkeypatch, tmp_path
    ):
        def with_return(max_n):
            yield {"relation": "cr", "lhs": "a\rb", "rhs": "a\r\nb", "pass": False}

        monkeypatch.setitem(cli._SUITE_RUNNERS, "blocks", with_return)
        _, out, _ = run(capsys, "verify", "blocks")
        path = tmp_path / "report.txt"
        path.write_bytes(b"old report\n")
        code, nothing, _ = run(capsys, "verify", "blocks", "--output", str(path))
        assert (code, nothing) == (1, "")
        assert path.read_bytes() == out.encode("utf-8")

    @pytest.mark.parametrize("existing", [True, False])
    def test_failed_run_leaves_the_output_as_it_was(
        self, capsys, monkeypatch, tmp_path, existing
    ):
        def failing_midway(max_n):
            yield {"relation": "first", "lhs": "1", "rhs": "1", "pass": True}
            raise RuntimeError("suite broke")

        monkeypatch.setitem(cli._SUITE_RUNNERS, "blocks", failing_midway)
        path = tmp_path / "report.txt"
        if existing:
            path.write_bytes(b"old report\n")
        with pytest.raises(RuntimeError, match="suite broke"):
            cli.main(["verify", "blocks", "--output", str(path)])
        assert capsys.readouterr().out == ""
        if existing:
            assert path.read_bytes() == b"old report\n"
        else:
            assert not path.exists()
        assert os.listdir(tmp_path) == (["report.txt"] if existing else [])

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_output_file_equals_stdout(self, capsys, tmp_path, fmt):
        argv = ("verify", "zigzag", "--max", "3", "--format", fmt)
        _, out, _ = run(capsys, *argv)
        path = tmp_path / "report"
        code, nothing, _ = run(capsys, *argv, "--output", str(path))
        assert (code, nothing) == (0, "")
        assert path.read_bytes() == out.encode("utf-8")
        assert os.listdir(tmp_path) == ["report"]
        with open(tmp_path / "plain", "w", encoding="utf-8"):
            pass
        assert path.stat().st_mode == (tmp_path / "plain").stat().st_mode

    def test_read_only_output_exits_2(self, capsys, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setitem(cli._SUITE_RUNNERS, "relations", calls.append)
        path = tmp_path / "report.txt"
        path.write_bytes(b"old report\n")
        path.chmod(0o444)
        if os.geteuid() == 0:
            # Root may write a read-only file, as open() would let it; answer
            # as the kernel does for any other user.
            monkeypatch.setattr(
                os, "access", lambda p, mode: os.stat(p).st_mode & 0o222 != 0
            )
        code, out, err = run(
            capsys, "verify", "relations", "--max", "1", "--output", str(path)
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and repr(str(path)) in err
        assert calls == []
        assert path.read_bytes() == b"old report\n"
        assert os.listdir(tmp_path) == ["report.txt"]

    @pytest.mark.parametrize("dangling", [False, True])
    def test_output_writes_through_a_symlink(self, capsys, tmp_path, dangling):
        argv = ("verify", "zigzag", "--max", "3")
        _, out, _ = run(capsys, *argv)
        report = tmp_path / "report"
        if not dangling:
            report.write_bytes(b"old report\n")
        link = tmp_path / "link"
        link.symlink_to("report")
        code, nothing, _ = run(capsys, *argv, "--output", str(link))
        assert (code, nothing) == (0, "")
        assert link.is_symlink() and os.readlink(link) == "report"
        assert report.read_bytes() == out.encode("utf-8")
        assert sorted(os.listdir(tmp_path)) == ["link", "report"]

    def test_existing_output_keeps_its_inode(self, capsys, tmp_path):
        argv = ("verify", "zigzag", "--max", "3", "--format", "json")
        _, out, _ = run(capsys, *argv)
        path = tmp_path / "report"
        path.write_bytes(b"old report\n")
        path.chmod(0o640)
        os.link(path, tmp_path / "hard")
        before = path.stat()
        code, nothing, _ = run(capsys, *argv, "--output", str(path))
        assert (code, nothing) == (0, "")
        after = path.stat()
        assert (after.st_ino, after.st_mode, after.st_uid, after.st_nlink) == (
            before.st_ino,
            before.st_mode,
            before.st_uid,
            2,
        )
        assert (tmp_path / "hard").read_bytes() == out.encode("utf-8")

    def test_output_to_a_fifo(self, capsys, tmp_path):
        argv = ("verify", "zigzag", "--max", "3")
        _, out, _ = run(capsys, *argv)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(fifo.read_bytes()), daemon=True
        )
        reader.start()
        code, nothing, _ = run(capsys, *argv, "--output", str(fifo))
        reader.join(timeout=30)
        assert (code, nothing) == (0, "")
        assert received == [out.encode("utf-8")]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert os.listdir(tmp_path) == ["fifo"]

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
        # A clean run first; nothing it computed may hide the failure.
        code, out, _ = run(capsys, "verify", "zigzag", "--max", "2")
        assert code == 0
        assert out.splitlines()[-1] == "zigzag: 143 checks, 0 failures"
        # Only N = 2 has a vertex where the doubled entry breaks gauge fixing.
        real = equivalence.hom_quiver
        monkeypatch.setattr(
            equivalence,
            "hom_quiver",
            lambda n, prev: (
                with_doubled_arrow(real(n, prev)) if n == 2 else real(n, prev)
            ),
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
            lambda n, prev: (
                with_doubled_arrow(real(n, prev)) if n == 2 else real(n, prev)
            ),
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
            lambda n, prev: equivalence.HomQuiver(0, (s,), ((hom(s, s),),)),
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


class TestSweepReuse:
    """What each sweep computes once, counted over its truncations."""

    def test_zigzag_solves_each_hom_space_once(self, monkeypatch):
        # Each quiver extends the one of N - 1 by the pairs with P(2N).  P(2a)
        # is the only module of dimension 4a + 4 that the suite solves with.
        solves = []
        real = modtools.hom
        monkeypatch.setattr(
            modtools, "hom", lambda m, n: solves.append((m.dim, n.dim)) or real(m, n)
        )
        assert all(item["pass"] for item in expand_runs(cli._suite_zigzag(6)))
        dims = [4 * a + 4 for a in range(7)]
        assert sorted(solves) == [(m, n) for m in dims for n in dims]

    def test_zigzag_spins_each_projective_once(self, monkeypatch):
        # The quiver keeps P(0..2N), and each keeps its spin for the next N.
        spins = []
        real = qsl2._generating_spin
        monkeypatch.setattr(
            qsl2, "_generating_spin", lambda m: spins.append(m.dim) or real(m)
        )
        assert all(item["pass"] for item in expand_runs(cli._suite_zigzag(6)))
        assert spins == [4 * a + 4 for a in range(7)]

    def test_zigzag_compares_each_product_once(self, monkeypatch):
        # 16 N + 5 products at --max N, each computed once; a second sweep
        # computes them all again, so none outlives the sweep that made it.
        calls = []
        real = equivalence._product_matches
        monkeypatch.setattr(
            equivalence, "_product_matches", lambda *key: calls.append(1) or real(*key)
        )
        for sweeps in (1, 2):
            assert all(item["pass"] for item in expand_runs(cli._suite_zigzag(6)))
            assert len(calls) == sweeps * (16 * 6 + 5)

    def test_frobenius_solves_each_canonical_map_once_at_max_64(self, monkeypatch):
        # Each label's image and pullback are built once for the whole sweep.
        maps, pullbacks = [], []
        real_map, real_pullback = qsl2.canonical_map, qsl2.frobenius_simple
        monkeypatch.setattr(
            qsl2, "canonical_map", lambda n: maps.append(n) or real_map(n)
        )
        monkeypatch.setattr(
            qsl2, "frobenius_simple", lambda n: pullbacks.append(n) or real_pullback(n)
        )
        assert all(item["pass"] for item in cli._suite_frobenius(64))
        assert maps == [2 * m for m in range(65)]
        assert pullbacks == list(range(65))


class TestReportBytes:
    """Reports must not change by a byte; the zigzag, frobenius and
    ``verify all --max 12`` digests were recorded from the dense-matrix
    implementation (the zigzag json one
    from the big intertwiner solve, before the spin-up; the zigzag --max 16
    one, the first above N = 8, from the suite that gauged and compared
    every truncation from scratch) and the relations
    digests from the associativity loop that called ``multiply`` four times
    per triple (the relations --max 24 one from the position-indexed table
    that followed it), and the clebsch-gordan and bgg digests from the greedy
    Jordan-Holder routine, the double-loop convolution and the per-n bgg
    verifier (the ``verify all --max 24`` one from the report buffered whole
    before it was streamed item by item; the clebsch-gordan and bgg --max 40
    ones, the benchmark's own invocations, from the convolution that packed
    both operands afresh and the Jordan-Holder scan that built every link;
    the frobenius --max 9 and 24 and steinberg --max 40 ones, the first the
    benchmark's own invocation, from the per-key Jordan-Holder routine that
    decomposed each product built as a character; the frobenius --max 48
    one, the first above the guard, from the sweep that read each label's
    inputs through module-level caches), so any change in a printed
    coefficient or in the order of items fails here."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("verify", "zigzag", "--max", "3"),
                "884c675e70708edb3b4ab8239f6feb19b1cf2afa3665c162cc8853d0fa077cc5",
            ),
            (
                ("verify", "zigzag", "--max", "8"),
                "648e401713941438bdd6eae125ae80255cbb1ad3d578f016144f119e25866001",
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
                ("verify", "zigzag", "--max", "36", "--force", "--format", "json"),
                "d039c5a6541f6c1eb1656c66d54cc793a9adeee1c913b52e748b57c95dcaaa02",
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
                ("verify", "relations", "--max", "24", "--force", "--format", "json"),
                "b9698db69468249415377959b3ad7b8a57286dc5fc77481b8e830dd3afb07feb",
            ),
            (
                ("verify", "clebsch-gordan", "--max", "16", "--format", "json"),
                "c48da33197186c721313cd5e95096ecddbb880725237a26f6dfed474cafc14db",
            ),
            (
                ("verify", "bgg", "--max", "16", "--format", "json"),
                "b725a909e13ff6877d42f9f7de0178a54dcb2b0c1d06ef283271a889ac0cddf5",
            ),
            (
                ("verify", "clebsch-gordan", "--max", "40", "--force", "--format", "json"),
                "8c74f91d0a089c5e006cd3631aadaeb80a3576db9aa43979b487e9dd84f54167",
            ),
            (
                ("verify", "bgg", "--max", "40", "--force", "--format", "json"),
                "0c117eadffa995e576291d0366f122aa1e91754abd666193776e0172fc634e66",
            ),
            (
                ("verify", "frobenius", "--max", "9", "--format", "json"),
                "565ec65d7e8e9bba1efcae1bc64bce287521a396c13bb5695729399eb1df9ce0",
            ),
            (
                ("verify", "frobenius", "--max", "24", "--format", "json"),
                "6343120225814b5bef15b67e80b853176264d2452f1428be81981f9c9ee264e2",
            ),
            (
                ("verify", "frobenius", "--max", "48", "--force", "--format", "json"),
                "ddf7e94b3eb6fbd04ea1e3bef0d3551aa54969ab0d110012d9d24c65e80ad676",
            ),
            (
                ("verify", "steinberg", "--max", "40", "--force", "--format", "json"),
                "3ce5fa968ba8c70453ca2feb341975935fb15ebe26bac4f180e58cd98cec2bfb",
            ),
            (
                ("verify", "all", "--max", "12", "--format", "json"),
                "dac207f01c17845b65aa331c0c3f4299bda1f63276aa77c8c9ae7e14316cf41f",
            ),
            (
                ("verify", "all", "--max", "24", "--force"),
                "09b941de64cc5365e41588e5237964aceb1bf8cddd7b0741457a462fb13bbb7a",
            ),
        ],
        ids=[
            "zigzag-text",
            "zigzag-8-text",
            "zigzag-json",
            "zigzag-16-json",
            "zigzag-36-json",
            "frobenius-json",
            "relations-text",
            "relations-json",
            "relations-24-json",
            "clebsch-gordan-json",
            "bgg-json",
            "clebsch-gordan-40-json",
            "bgg-40-json",
            "frobenius-9-json",
            "frobenius-24-json",
            "frobenius-48-json",
            "steinberg-40-json",
            "all-12-json",
            "all-24-text",
        ],
    )
    def test_report_digest(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize(
        "command, fmt, digest",
        [
            ("char", "text", "2f12de71fd50f2f0556b70792b5dba1c968e0e9e75e52bf1d183929e9d372560"),
            ("char", "json", "09a30dcfd36096399d6ea1a36b39644c5d14329e1f7e7f5b5aa0b9abef680b5d"),
            ("jh", "text", "c7eef4aa380d73b963c7d3565ec2031e284cc1a540bb38f0c9aecd8c40df8a5f"),
            ("jh", "json", "e0439fe9ac7ca4cb953b121bd257788583b7db44d4d5577d3bd52f3d7466b995"),
        ],
    )
    def test_object_report_digest(self, capsys, command, fmt, digest):
        # Every kind, both signs and labels 0..40, one output after another;
        # recorded from the ``formal`` that cached its objects by value and
        # copied a standard from its costandard.
        out = []
        for kind in satake.KINDS:
            for sign in "+-":
                for n in range(41):
                    code, text, _ = run(capsys, command, kind, str(n), sign, "--format", fmt)
                    assert code == 0
                    out.append(text)
        assert hashlib.sha256("".join(out).encode("utf-8")).hexdigest() == digest


GOLDEN = json.loads(
    (REPO_ROOT / "perfbench" / "golden.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("invocation", sorted(GOLDEN))
def test_benchmark_golden_report(capsys, invocation):
    # The benchmark checks these digests only when it runs; here a drift in a
    # benchmarked report fails the tests too.
    code, out, _ = run(capsys, *invocation.split())
    assert code == GOLDEN[invocation]["exit"]
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == GOLDEN[invocation]["sha256"]


class TestRuns:
    """A run item is written as the items it stands for, one by one."""

    ITEMS = [
        {"relation": "a*", "run": ("b", "c"), "lhs": "0", "rhs": "0", "pass": True},
        {"relation": "single", "lhs": "1", "rhs": "2", "pass": False},
        {"relation": "d*", "run": ("e",), "lhs": "0", "rhs": "0", "pass": True},
        # Heads and tails that JSON escapes, and a failing run.
        {
            "relation": 'q"\\*',
            "run": ('"', "\\", "é", "\n", "x\u2028", "😀"),
            "lhs": "0",
            "rhs": "0",
            "pass": True,
        },
        {"relation": "é*", "run": ("f", "g"), "lhs": "l\t", "rhs": "r", "pass": False},
        # Single items that JSON escapes, failing and passing.
        {"relation": 'one "é"\\\n', "lhs": "\u2028", "rhs": "😀", "pass": False},
        {"relation": '\x00"two"\\', "lhs": "😀\x1f", "rhs": "😀\x1f", "pass": True},
    ]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_bytes_and_counts_match_items_one_by_one(self, capsys, monkeypatch, fmt):
        monkeypatch.setitem(cli._SUITE_RUNNERS, "zigzag", lambda _: iter(self.ITEMS))
        code, out, _ = run(capsys, "verify", "zigzag", "--format", fmt)
        assert code == 1
        assert out == render_items("zigzag", self.ITEMS, fmt)
        if fmt == "text":
            assert out.endswith("zigzag: 14 checks, 4 failures\n")
        else:
            assert len(json.loads(out)) == 14

    def test_passing_runs_exit_0(self, capsys, monkeypatch):
        items = [self.ITEMS[0], self.ITEMS[2]]
        monkeypatch.setitem(cli._SUITE_RUNNERS, "zigzag", lambda _: iter(items))
        code, out, _ = run(capsys, "verify", "zigzag")
        assert code == 0
        assert out == render_items("zigzag", items, "text")
        assert out.endswith("zigzag: 3 checks, 0 failures\n")


class TestUsage:
    def test_missing_command(self, capsys):
        assert run(capsys)[0] == 2

    def test_missing_arguments(self, capsys):
        assert run(capsys, "char", "simple")[0] == 2


def argparse_reading(argv):
    """The namespace argparse makes of ``argv``, or None where it exits."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.build_parser().parse_args(argv)
        except SystemExit:
            return None


# Tokens drawn one category at a time, so that a drawn line is often plain.
TOKENS = st.one_of(
    st.sampled_from(("char", "jh", "verify", "homdim")),
    st.sampled_from(cli.SUITES),
    st.sampled_from(satake.KINDS),
    st.sampled_from(("+", "-")),
    st.sampled_from(("7", "-2", "+3", "1_0", "\u0663", " 7")),
    st.sampled_from(("text", "json", "xml", "", "-", "out.txt")),
    st.sampled_from(
        (
            "--format",
            "--form",
            "--format=json",
            "--output",
            "--max",
            "--m",
            "--force",
            "--fo",
            "-h",
            "--help",
            "--",
        )
    ),
)


class TestPlainReader:
    """``_plain_args`` reads a plain line as argparse does, and leaves every
    other line to argparse."""

    @given(st.lists(TOKENS, max_size=7))
    @settings(max_examples=400, deadline=None)
    @example(["verify", "zigzag"])
    @example(["verify", "--force", "all", "--max", "8", "--output", "-"])
    @example(["char", "standard", "3", "-", "--format", "json"])
    @example(["jh", "simple", "+3", "+", "--output", ""])
    @example(["homdim", "\u0663", " 7", "--format", "text"])
    @example(["homdim", "2", "-2"])
    @example(["verify", "zigzag", "--max", "-2"])
    def test_agrees_with_argparse(self, argv):
        mine, theirs = cli._plain_args(argv), argparse_reading(argv)
        if theirs is None:
            assert mine is None
        elif mine is not None:
            assert vars(mine) == vars(theirs)

    def test_plain_lines_take_the_plain_path(self):
        # The property holds for a reader that reads nothing; these it reads.
        lines = [invocation.split() for invocation in GOLDEN]  # the benchmark's
        lines += [
            ["verify", "zigzag"],
            ["char", "standard", "3", "-"],
            ["jh", "simple", "+3", "+", "--output", ""],
        ]
        for argv in lines:
            assert cli._plain_args(argv) is not None, argv


class TestJsonWriter:
    """``_to_json`` writes what ``json.dumps`` writes, for the values it takes."""

    @staticmethod
    def dumps(value):
        return json.dumps(value, separators=(",", ":"))

    def test_every_small_command_value(self):
        quote = cli._json_quote()
        values = []
        for n in range(13):
            for kind in satake.KINDS:
                for sign in ("+", "-"):
                    try:
                        formal = satake.formal(kind, n, sign)
                    except DomainError:
                        continue
                    values.append(formal.character.to_json_dict())
                    values.append(cli._jh_items(formal.jh))
        for a in range(0, 13, 2):
            for b in range(0, 13, 2):
                dim = len(modtools.hom(modtools.projective(a), modtools.projective(b)))
                values.append({"a": a, "b": b, "dim": dim})
        assert len(values) > 100
        for value in values:
            assert cli._to_json(value, quote) == self.dumps(value)

    @pytest.mark.parametrize(
        "value",
        [
            'q"uote\\back\x00\x1f\t\n\r\x7f',
            "é \u2028 \U0001f600 \ud800",
            {},
            [],
            [{}, [], "", 0, -12, 10**30],
            {"": {"k\u00e9y": ["\U0001f600", {"x": []}]}},
        ],
    )
    def test_escapes_and_empty_containers(self, value):
        assert cli._to_json(value, cli._json_quote()) == self.dumps(value)

    @pytest.mark.parametrize(
        "value", [True, False, None, 1.5, {"a": True}, [None], {"a": [0.0]}, (1,)]
    )
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            cli._to_json(value, cli._json_quote())


class TestProcessLevel:
    def test_byte_identical_across_processes(self):
        cmd = [*CLI, "verify", "zigzag", "--max", "1"]
        first = subprocess.run(cmd, capture_output=True, env=PROCESS_ENV, check=True)
        second = subprocess.run(cmd, capture_output=True, env=PROCESS_ENV, check=True)
        assert first.stdout == second.stdout
        assert first.stdout.endswith(b"zigzag: 42 checks, 0 failures\n")

    def test_start_up_imports_no_unneeded_stdlib_module(self):
        # -S keeps the host's .pth files, which may import typing themselves,
        # from hiding a regression.
        script = "\n".join(
            [
                "import io",
                "import sys",
                "import qsatake.cli",
                "unneeded = ('dataclasses', 'fractions', 'decimal', 'inspect', 'typing',"
                " 'numbers')",
                "print(sorted(set(unneeded) & set(sys.modules)))",
                # Q(i) loads with the first command that solves over it.
                "q_i = ('qsatake.scalars', 'qsatake.linalg', 'qsatake.qsl2')",
                "print(sorted(set(q_i) & set(sys.modules)))",
                "qsatake.cli.main(['homdim', '2', '4'])",
                "qsatake.cli.main(['homdim', '24', '22'])",
                "print(sorted({'fractions', 'numbers'} & set(sys.modules)))",
                # Non-integral values first appear at N = 2, and are hashed.
                "out, sys.stdout = sys.stdout, io.StringIO()",
                "qsatake.cli.main(['verify', 'zigzag', '--max', '2'])",
                "report, sys.stdout = sys.stdout.getvalue(), out",
                "print(report.splitlines()[-1])",
                "print(sorted({'fractions', 'numbers'} & set(sys.modules)))",
                # Only --output stages the report in a temporary file.
                "print('tempfile' in sys.modules)",
            ]
        )
        env = {"PYTHONPATH": str(REPO_ROOT / "src")}
        cmd = [sys.executable, "-S", "-c", script]
        done = subprocess.run(cmd, capture_output=True, env=env, check=True)
        assert done.stdout == (
            b"[]\n[]\n1\n1\n[]\nzigzag: 143 checks, 0 failures\n[]\nFalse\n"
        )

    def test_text_output_never_imports_json(self):
        # Run with -S, so that no site hook can load json first.
        script = "\n".join(
            [
                "import io",
                "import sys",
                "import qsatake.cli",
                "out, sys.stdout = sys.stdout, io.StringIO()",
                "code = qsatake.cli.main(['verify', 'relations', '--max', '1'])",
                "qsatake.cli.main(['verify', 'bgg', '--max', '1'])",
                "sys.stdout = out",
                "print(code, 'json' in sys.modules)",
                "qsatake.cli.main(['jh', 'simple', '3', '+'])",
                "print('json' in sys.modules)",
                "qsatake.cli.main(['jh', 'simple', '3', '+', '--format', 'json'])",
                "print('json' in sys.modules)",
            ]
        )
        env = {"PYTHONPATH": str(REPO_ROOT / "src")}
        cmd = [sys.executable, "-S", "-c", script]
        done = subprocess.run(cmd, capture_output=True, env=env, check=True)
        assert done.stdout.decode("utf-8") == (
            "0 False\nL(3)⁺\nFalse\n"
            '[{"n":3,"sign":"+","mult":1}]\nFalse\n'
        )

    def test_plain_lines_import_only_what_they_run(self):
        # Run with -S, so that no site hook can load these first.
        script = "\n".join(
            [
                "import io",
                "import sys",
                "import qsatake.cli",
                "def loaded(extra=()):",
                "    names = ('argparse', 'gettext', 'locale', 'json', *extra)",
                "    print(sorted(set(names) & set(sys.modules)))",
                "qsatake.cli.main(['homdim', '2', '4', '--format', 'json'])",
                "loaded(['qsatake.equivalence', 'qsatake.zigzag'])",
                "out, sys.stdout = sys.stdout, io.StringIO()",
                "qsatake.cli.main(['verify', 'relations', '--max', '1'])",
                "report, sys.stdout = sys.stdout.getvalue(), out",
                "print(report.splitlines()[-1])",
                "loaded(['qsatake.equivalence'])",
                "qsatake.cli.main(['jh', 'simple', '3', '+', '--format', 'json'])",
                "loaded()",
            ]
        )
        env = {"PYTHONPATH": str(REPO_ROOT / "src")}
        cmd = [sys.executable, "-S", "-c", script]
        done = subprocess.run(cmd, capture_output=True, env=env, check=True)
        assert done.stdout.decode("utf-8") == (
            '{"a":2,"b":4,"dim":1}\n[]\n'
            "relations: 2 checks, 0 failures\n[]\n"
            '[{"n":3,"sign":"+","mult":1}]\n[]\n'
        )

    EMPTY = hashlib.sha256(b"").hexdigest()

    @pytest.mark.parametrize(
        "argv, code, out, err",
        [
            (
                ["--help"],
                0,
                "67dc98bceab01501cd237845d89e2b3512b117a11f0aa8bb2048c102daae5778",
                EMPTY,
            ),
            (
                ["verify", "--help"],
                0,
                "55664a0fcb8e8e6cd98f7d83e2e8bc1c327e9b27450e2cfb309f8b9334de6e3c",
                EMPTY,
            ),
            (
                ["verify", "nosuch"],
                2,
                EMPTY,
                "454c5781d106d2daab0db55283905b4d41d85c0f6f8a35a89a72216ea999b6e1",
            ),
            (
                ["homdim", "1"],
                2,
                EMPTY,
                "857caf4c9c60140e1e5668fb396e10f1f215c09adbe2332951ccdce8246cdca9",
            ),
            (
                ["verify", "zigzag", "--max", "x"],
                2,
                EMPTY,
                "47a1a4c07e89083b59a30e33e1857f033ad0aa6b9e7bb117a0ae847d324c052c",
            ),
            (
                ["char", "standard", "3", "-"],
                0,
                "6270e7dc48ebd75ce7596629801682028d91f7670c1489ef54ae6a14956f8408",
                EMPTY,
            ),
        ],
        ids=["help", "verify-help", "bad-suite", "missing-label", "bad-max", "lone-dash"],
    )
    def test_help_errors_and_lone_dash_keep_their_bytes(self, argv, code, out, err):
        # Recorded from the CLI that parsed every line with argparse, under
        # CPython 3.11; the help is wrapped at 80 columns, as on a pipe.
        done = subprocess.run([*CLI, *argv], capture_output=True, env=PROCESS_ENV)
        assert done.returncode == code
        assert hashlib.sha256(done.stdout).hexdigest() == out
        assert hashlib.sha256(done.stderr).hexdigest() == err

    def test_closed_stdout_exits_2(self):
        # As a broken pipe does: one error line, no traceback.
        cmd = [*CLI, "verify", "zigzag", "--max", "3"]
        done = subprocess.run(
            cmd, capture_output=True, env=PROCESS_ENV, preexec_fn=lambda: os.close(1)
        )
        assert done.returncode == 2
        assert done.stderr == b"error: [Errno 9] standard output is closed\n"
        assert done.stdout == b""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device_exits_2(self):
        # The report fits in stdout's buffer, so only the flush fails.
        with open("/dev/full", "wb") as full:
            done = subprocess.run(
                [*CLI, "homdim", "2", "2"],
                stdout=full,
                stderr=subprocess.PIPE,
                env=PROCESS_ENV,
            )
        assert done.returncode == 2
        assert done.stderr == b"error: [Errno 28] No space left on device\n"

    @pytest.mark.parametrize(
        "stderr_fault",
        [lambda: os.close(2), lambda: os.dup2(os.open(os.devnull, os.O_RDONLY), 2)],
        ids=["closed", "read-only"],
    )
    def test_unwritable_stderr_still_exits_2(self, stderr_fault):
        # A bad label is exit 2 even when its error line cannot be written.
        done = subprocess.run(
            [*CLI, "homdim", "1", "2"],
            capture_output=True,
            env=PROCESS_ENV,
            preexec_fn=stderr_fault,
        )
        assert done.returncode == 2
        assert done.stdout == b""

    def test_output_is_complete_after_the_process_exits(self, capsys, tmp_path):
        argv = ("verify", "zigzag", "--max", "3")
        _, out, _ = run(capsys, *argv)
        path = tmp_path / "report.txt"
        done = subprocess.run(
            [*CLI, *argv, "--output", str(path)], capture_output=True, env=PROCESS_ENV
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
        assert path.read_bytes() == out.encode("utf-8")

    def test_help_reaches_a_pipe(self):
        # argparse's help is still buffered when main returns.
        done = subprocess.run([*CLI, "--help"], capture_output=True, env=PROCESS_ENV)
        assert done.returncode == 0
        assert done.stdout.startswith(b"usage: qsatake ")

    def test_profiler_still_reports(self):
        # Under a profiler the interpreter exits normally, so cProfile prints.
        cmd = [sys.executable, "-m", "cProfile", "-m", "qsatake.cli", "homdim", "2", "2"]
        done = subprocess.run(cmd, capture_output=True, env=PROCESS_ENV)
        assert done.returncode == 0, done.stderr
        first, rest = done.stdout.split(b"\n", 1)
        assert first == b"2"
        assert b"function calls" in rest and b"Ordered by:" in rest

    def test_uncaught_exception_prints_its_traceback(self):
        script = "\n".join(
            [
                "import sys",
                "from qsatake import cli",
                "def fails(max_n):",
                "    raise RuntimeError('boom')",
                "    yield",
                "cli._SUITE_RUNNERS['blocks'] = fails",
                "sys.argv[1:] = ['verify', 'blocks']",
                "cli.run()",
            ]
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, env=PROCESS_ENV
        )
        assert done.returncode == 1
        assert done.stderr.startswith(b"Traceback")
        assert done.stderr.endswith(b"RuntimeError: boom\n")

    def test_benchmark_traced_run_resolves_every_layer(self, tmp_path):
        # perfbench/traced.py exits 3 if a function it wraps is renamed or moved.
        cmd = [
            sys.executable,
            str(REPO_ROOT / "perfbench" / "traced.py"),
            str(tmp_path / "spans.json"),
            "homdim",
            "0",
            "0",
        ]
        done = subprocess.run(cmd, capture_output=True, env=PROCESS_ENV, cwd=REPO_ROOT)
        assert done.returncode == 0, done.stderr
        assert done.stdout == b"2\n"
