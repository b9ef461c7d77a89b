"""The package namespace: what ``spacing_lab`` exports by name, and what
it needs at run time."""

import dataclasses
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import spacing_lab
from spacing_lab import (FredholmSpectrum, Interval, KernelSpec,
                         QuadratureRule, ZeroDataset, _dop853, fredholm,
                         kernels, montecarlo, painleve, quadrature, routes)
from spacing_lab.cli import main

ROOT = Path(__file__).resolve().parents[1]

# each removed name with the module or class that held it
REMOVED = ((fredholm, "GapProfile"), (painleve, "extend_series"),
           (fredholm, "rho_k_bulk"), (fredholm.SpacingTable, "from_csv"),
           (fredholm.SpacingTable, "to_csv_text"),
           (painleve.PainleveProblem, "series"),
           (fredholm, "spacing_from_gaps"), (kernels, "evaluate"),
           (FredholmSpectrum, "trace"),
           (painleve.PainleveProblem, "series_value"),
           (fredholm.SpacingTable, "step"), (kernels, "hard_edge_bessel"),
           (quadrature, "rule_interval"))


def _public_names():
    return {name for name, value in vars(spacing_lab).items()
            if not name.startswith("_") and not inspect.ismodule(value)}


def test_all_lists_every_public_name():
    assert len(spacing_lab.__all__) == len(set(spacing_lab.__all__))
    assert set(spacing_lab.__all__) == _public_names() | {"__version__"}
    for name in spacing_lab.__all__:
        assert getattr(spacing_lab, name) is not None


def test_star_import():
    namespace = {}
    exec("from spacing_lab import *", namespace)
    assert set(spacing_lab.__all__) <= namespace.keys()


def test_removed_names_are_absent():
    for module, name in REMOVED:
        assert not hasattr(module, name)
        assert not hasattr(spacing_lab, name)
        assert name not in spacing_lab.__all__


# accuracy and tuning values are module constants, read at call time
SETTINGS = {"tol", "segment", "min_expected", "n_terms"}


def test_no_public_callable_takes_a_tolerance():
    for name in spacing_lab.__all__:
        value = getattr(spacing_lab, name)
        if callable(value) and not (inspect.isclass(value)
                                    and issubclass(value, Exception)):
            assert not SETTINGS & inspect.signature(value).parameters.keys(), \
                name
    for function in (routes.evaluate, fredholm._converged_spectrum):
        assert "tol" not in inspect.signature(function).parameters
    assert list(inspect.signature(Interval.is_symmetric).parameters) == [
        "self"]


def test_unfold_and_stepper_take_no_hooks():
    # unfold always uses the semicircle of its rank; the stepper has no
    # horizon, painleve's guard on requests being the only bound
    assert list(inspect.signature(montecarlo.unfold).parameters) == [
        "spectra"]
    assert list(inspect.signature(_dop853.DOP853).parameters) == [
        "fun", "t0", "y0", "rtol", "atol"]


def test_evaluators_of_s_take_s_alone():
    # xi and a reach the generating function through fredholm_det,
    # generating_value and build_problem
    for function in (painleve.e2_bulk, fredholm.e2_bulk_det,
                     painleve.enn_generating, fredholm.enn_det):
        assert list(inspect.signature(function).parameters) == ["s"]
    assert list(inspect.signature(painleve.e2_hard).parameters) == ["s", "a"]
    assert list(inspect.signature(painleve.series_residual).parameters) == [
        "problem"]


def test_kernels_take_no_parameter():
    # the hard-edge kernels are the parity blocks, and the conditioned
    # origin is the one spectrum-singularity kernel any route runs
    assert [f.name for f in dataclasses.fields(KernelSpec)] == ["variant"]
    assert not inspect.signature(kernels.spectrum_singularity).parameters
    assert list(inspect.signature(fredholm.parity_split).parameters) == [
        "interval"]


def test_records_hold_only_what_is_read():
    assert [f.name for f in dataclasses.fields(FredholmSpectrum)] == [
        "eigenvalues", "nodes_used", "clamp_applied"]
    assert [f.name for f in dataclasses.fields(QuadratureRule)] == [
        "nodes", "weights"]
    assert [f.name for f in dataclasses.fields(ZeroDataset)] == [
        "ordinates", "sha256"]


def test_tabulate_refuses_det_tol(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["tabulate", "--det-tol", "1e-9"])
    assert excinfo.value.code == 2
    assert "--det-tol" in capsys.readouterr().err


def test_version_is_stated_in_the_package():
    # the version is a literal in spacing_lab/__init__.py, which setuptools
    # reads at build time, so a checkout reports it too and the import does
    # not go through importlib.metadata
    script = textwrap.dedent("""
        import sys
        import spacing_lab
        if "importlib.metadata" in sys.modules:
            sys.exit("imported importlib.metadata")
        if spacing_lab.__version__ == "0.0.0":
            sys.exit("checkout fallback version")
    """)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_out_fractions_and_decimal():
    script = ("import sys, spacing_lab; "
              "print(sorted({'fractions', 'decimal'} & sys.modules.keys()))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "[]", proc.stderr


def test_runs_without_scipy():
    # a fresh interpreter in which every scipy import fails imports the
    # package and runs every route: determinant, Painleve and surmise
    # tables, a forked sample, and all of verify
    script = textwrap.dedent("""
        import contextlib, io, sys

        class NoScipy:
            def find_spec(self, name, path=None, target=None):
                if name == "scipy" or name.startswith("scipy."):
                    raise ModuleNotFoundError(f"no module named {name!r}")
                return None

        sys.meta_path.insert(0, NoScipy())
        import spacing_lab
        from spacing_lab.cli import main
        runs = (["tabulate", "--quantity", "E2", "--method", "all"],
                ["sample", "--n", "13", "--reps", "600", "--workers", "2"],
                ["verify"])
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(argv) for argv in runs]
        if codes != [0, 0, 0]:
            sys.exit(f"exit codes {codes}")
        loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
        if loaded:
            sys.exit(f"loaded {loaded}")
    """)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
