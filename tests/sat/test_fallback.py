"""Graceful degradation of the compiled SAT core.

A missing compiler or a corrupt cached ``.so`` must never take the run
down: the loader falls back to the reference :class:`CdclSolver` (the
oracle) with a one-time warning, and repairs a damaged cache by
rebuilding it once.  The fallback changes speed, never results.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro.runtime.cbuild as cbuild
import repro.sat.compiled as compiled


@pytest.fixture
def clean_warn_flag(monkeypatch):
    monkeypatch.setattr(compiled._LOADER, "_warned", False)
    monkeypatch.delenv("REPRO_SATCORE", raising=False)


class TestCompilerMissing:
    def test_no_compiler_warns_once_and_falls_back(
        self, monkeypatch, clean_warn_flag
    ):
        monkeypatch.setattr(cbuild.shutil, "which", lambda name: None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert compiled._load_satcore() is None
            assert compiled._load_satcore() is None  # second call: silent
        fallback = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(fallback) == 1
        assert "falling back" in str(fallback[0].message)

    def test_explicit_python_opt_out_is_silent(
        self, monkeypatch, clean_warn_flag
    ):
        monkeypatch.setenv("REPRO_SATCORE", "python")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert compiled._load_satcore() is None
        assert not [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]


@pytest.mark.skipif(
    compiled.SAT_CORE != "c", reason="needs a working C toolchain"
)
class TestCorruptCache:
    def test_corrupt_cached_library_is_rebuilt_once(
        self, monkeypatch, tmp_path, clean_warn_flag
    ):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        lib_path = compiled._build_library()
        assert lib_path is not None and lib_path.startswith(str(tmp_path))
        with open(lib_path, "wb") as handle:
            handle.write(b"\x7fELF not really a shared object\n")
        assert compiled._try_load(lib_path) is None, "corruption must bite"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lib = compiled._load_satcore()
        assert lib is not None, "rebuild should recover the compiled core"
        # The repaired cache loads directly again.
        assert compiled._try_load(lib_path) is not None
        assert not [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]

    def test_unrecoverable_cache_warns_and_falls_back(
        self, monkeypatch, tmp_path, clean_warn_flag
    ):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        lib_path = compiled._build_library()
        assert lib_path is not None
        with open(lib_path, "wb") as handle:
            handle.write(b"junk")
        # Rebuilding "succeeds" but yields the same broken bits: the loader
        # must give up with one warning instead of looping.
        monkeypatch.setattr(compiled._LOADER, "_try_load", lambda path: None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert compiled._load_satcore() is None
        fallback = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(fallback) == 1
        assert "corrupt" in str(fallback[0].message)


def _run(argv, cwd, satcore=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        Path(__file__).resolve().parents[2] / "src"
    ) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_SATCORE", None)
    if satcore is not None:
        env["REPRO_SATCORE"] = satcore
    proc = subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=env,
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestFallbackIsOracle:
    def test_python_opt_out_selects_reference_solver(self, tmp_path):
        out = _run(
            ["-c", (
                "from repro.sat.compiled import SAT_CORE, solver_class\n"
                "from repro.sat.solver import CdclSolver\n"
                "assert solver_class('compiled') is CdclSolver\n"
                "print(SAT_CORE)"
            )],
            tmp_path, satcore="python",
        )
        assert out.strip() == "python"

    @pytest.mark.skipif(
        compiled.SAT_CORE != "c", reason="needs a working C toolchain"
    )
    def test_fallback_sweep_is_byte_identical(self, tmp_path):
        """A CLI sweep on the fallback writes the C core's exact netlist."""
        _run(["-m", "repro.tools", "gen", "cps", "-o", "net.blif"], tmp_path)
        reports = {}
        for core, satcore in (("c", None), ("python", "python")):
            out = _run(
                ["-m", "repro.tools", "sweep", "net.blif",
                 "-o", f"{core}.blif"],
                tmp_path, satcore=satcore,
            )
            # The first line carries verdict counts, then timings.
            reports[core] = out.splitlines()[0].split(" gen ")[0]
        assert reports["c"] == reports["python"]
        assert "SAT calls" in reports["c"]
        assert (tmp_path / "c.blif").read_bytes() == (
            tmp_path / "python.blif"
        ).read_bytes()
