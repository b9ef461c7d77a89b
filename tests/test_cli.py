"""Command-line surface: CSV writers, exit codes, determinism."""

import hashlib
import io
import math
import shlex
import warnings

import numpy as np
import pytest

from spacing_lab import (ArgumentError, UnsupportedError, cli, fredholm,
                         montecarlo, painleve, routes, sequences, verify)
from spacing_lab.cli import main, write_primes, write_sample, write_tabulate


def _args(command, **options):
    """The parsed command line ``command`` with one ``--option value``
    per keyword (``--option`` alone for True)."""
    argv = [command]
    for key, value in options.items():
        flag = "--" + key.replace("_", "-")
        argv += [flag] if value is True else [flag, str(value)]
    return cli.parse_args(argv)


def _tabulate_args(**overrides):
    return _args("tabulate", **{"s_max": 1.0, "s_step": 0.25} | overrides)


class TestTabulate:
    def test_csv_shape_and_agreement(self):
        out = io.StringIO()
        table, deviations = write_tabulate(_tabulate_args(), out)
        lines = out.getvalue().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        assert any(l.startswith("# command: spacing-lab tabulate") for l in meta)
        assert any(l.startswith("# package: spacing-lab") for l in meta)
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "s,E2_fredholm,E2_painleve"
        absolute, relative = deviations[("fredholm", "painleve")]
        assert absolute <= 1e-6
        assert relative == routes.max_relative(table.columns["E2_fredholm"],
                                               table.columns["E2_painleve"])
        assert len(table.s_grid) == 5

    def test_repeat_runs_identical(self):
        first, second = io.StringIO(), io.StringIO()
        write_tabulate(_tabulate_args(), first)
        write_tabulate(_tabulate_args(), second)
        assert first.getvalue() == second.getvalue()

    def test_thread_count_invisible(self):
        # tabulate is serial; workers sizes sample's process pool, so three
        # chunks of replicas are drawn in one process, then in several
        outputs = []
        for workers in (1, 3):
            args = _args("sample", n=13, reps=3 * montecarlo.CHUNK,
                           seed=7, workers=workers)
            out = io.StringIO()
            write_sample(args, out)
            outputs.append(out.getvalue())
        assert outputs[0] == outputs[1]

    def test_surmise_column(self):
        out = io.StringIO()
        args = _tabulate_args(quantity="p0", method="surmise", beta=2)
        write_tabulate(args, out)
        header = next(l for l in out.getvalue().splitlines()
                      if not l.startswith("#"))
        assert header == "s,p0_surmise"

    def test_gap_count_column(self):
        out = io.StringIO()
        args = _tabulate_args(quantity="En", method="fredholm", n=2,
                                  s_max=0.5)
        table, _ = write_tabulate(args, out)
        column = table.columns["En_fredholm"]
        assert column[0] == 0.0            # no room for 2 eigenvalues at s=0
        assert np.all(column >= 0.0)

    @pytest.mark.parametrize("quantity, beta", [
        ("p0", 1), ("p0", 2), ("p0", 4), ("p1gap", 1), ("p2nn", 1)])
    def test_density_columns_vanish_at_zero(self, capsys, quantity, beta):
        # the Fredholm densities are exactly 0 at s = 0, so the row no
        # longer reads as relative deviation 1 against the Painleve column
        args = _tabulate_args(quantity=quantity, beta=beta, s_max=3.0)
        assert cli.run(args) == 0
        captured = capsys.readouterr()
        table = np.genfromtxt([l for l in captured.out.splitlines()
                               if not l.startswith("#")],
                              delimiter=",", names=True)
        assert table[f"{quantity}_fredholm"][0] == 0.0
        line = next(l for l in captured.err.splitlines()
                    if l.startswith(f"max |{quantity}_fredholm - "
                                    f"{quantity}_painleve|"))
        assert float(line.rsplit("relative ", 1)[1]) < 1e-6

    def test_p4_relative_deviation_at_small_s(self, capsys):
        # p4 ~ s^4 reaches 1.15e-11 at s = 0.001, far below the roundoff
        # of a stencil of determinants (which read relative 0.994 here)
        argv = ["tabulate", "--quantity", "p0", "--beta", "4", "--method",
                "all", "--s-max", "0.01", "--s-step", "0.001"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "stencil_h" not in captured.out
        line = next(l for l in captured.err.splitlines()
                    if l.startswith("max |p0_fredholm - p0_painleve|"))
        assert float(line.rsplit("relative ", 1)[1]) < 1e-3

    @pytest.mark.parametrize("s_max, s_step, last", [
        (1.0, 0.6, 0.6), (1.0, 0.3, 0.9), (1.0, 0.25, 1.0), (3.0, 0.01, 3.0),
        (4.0, 0.001, 4.0)])
    def test_grid_never_passes_s_max(self, s_max, s_step, last):
        table, _ = write_tabulate(
            _tabulate_args(quantity="p0", method="surmise", s_max=s_max,
                             s_step=s_step), io.StringIO())
        assert table.s_grid[-1] == pytest.approx(last, abs=1e-12)

    def test_grid_validation(self):
        with pytest.raises(ArgumentError):
            write_tabulate(_tabulate_args(s_step=0.0), io.StringIO())
        with pytest.raises(ArgumentError):
            write_tabulate(_tabulate_args(s_min=-1.0), io.StringIO())


class TestSample:
    def test_csv_columns_and_seed(self):
        out = io.StringIO()
        args = _args("sample", n=13, reps=64, seed=7)
        write_sample(args, out)
        lines = out.getvalue().splitlines()
        assert "# seed: 7" in lines
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "bin_left,bin_right,count,density,exact,surmise"

    def test_deterministic(self):
        args = _args("sample", n=13, reps=64, seed=7)
        first, second = io.StringIO(), io.StringIO()
        write_sample(args, first)
        write_sample(args, second)
        assert first.getvalue() == second.getvalue()

    def test_even_rank_rejected(self):
        args = _args("sample", n=12, reps=10, seed=1)
        with pytest.raises(ArgumentError):
            write_sample(args, io.StringIO())


class TestPrimes:
    def test_histogram_output(self):
        out = io.StringIO()
        args = _args("primes", start=10**9 + 7, count=200)
        write_primes(args, out)
        lines = out.getvalue().splitlines()
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "bin_left,bin_right,count,density,poisson"

    def test_raw_listing(self):
        out = io.StringIO()
        args = _args("primes", start=10, count=3, raw=True)
        write_primes(args, out)
        body = [l for l in out.getvalue().splitlines()
                if not l.startswith("#")]
        assert body == ["index,prime,gap", "0,11,2", "1,13,4", "2,17,0"]


class TestGoldenDigests:
    """SHA-256 of the data rows (the '#' metadata carries library versions)
    of CSVs recorded before the sampler and sieve were batched; the sample
    digests also cover the exact and surmise overlay columns, and were
    re-recorded each time the Painleve trajectories behind the exact column
    moved in their last bits (the last of these when p1 and p1(1; s) moved
    onto the bulk trajectory by Gaudin's relation, and the exact column
    moved by at most 1.2e-11, 4.0e-10 relative), and once more when each
    chunk of replicas came to draw its diagonals and off-diagonals from two
    streams of its own, which changed the sampled counts."""

    @staticmethod
    def _data_digest(argv, tmp_path):
        path = tmp_path / "out.csv"
        assert main([*argv, "-o", str(path)]) == 0
        with open(path, encoding="utf-8") as f:
            rows = "".join(line for line in f if not line.startswith("#"))
        return hashlib.sha256(rows.encode()).hexdigest()

    @pytest.mark.parametrize("order, digest", [
        ("0", "fa78290e3d3a96d99211c960de2e996463286e3bf25aba3ce4990616a919e9ca"),
        ("1", "ab0463d0160dbbcf4f0cef3125025dda87c7bdf06486f5a13cfd2e803720e689"),
    ], ids=["order0", "order1"])
    def test_sample(self, tmp_path, order, digest):
        painleve.clear_cache()
        argv = ["sample", "--n", "13", "--reps", "600", "--seed", "11",
                "--order", order]
        assert self._data_digest(argv, tmp_path) == digest

    def test_primes_raw(self, tmp_path):
        argv = ["primes", "--start", "100000000003", "--count", "20000",
                "--raw"]
        assert self._data_digest(argv, tmp_path) == (
            "34e79fcafd3e49857e4fe6e5068e89bd484fd9c3d8c4e87aa46c4b40ad6fa305")


class TestPainleveDigests:
    """SHA-256 of the data rows of each Painleve column on the dense grid,
    from a cold solution cache, one array call per grid.  Re-recorded when
    the third derivative became the complex-step derivative of each
    family's one G, which moved the trajectories in their last bits, and
    p1 at s <= 1e-3 came from the series layer instead of its leading
    term; p0 at beta 1 and 4 and p1gap again when p1 and p4 moved onto the
    mu = 2 hard-edge trajectories, which negate the former beta = 1 and
    beta = 4 transcendents and differ from them in the last bits; p0 at
    beta 2 again when p2 came from the bulk trajectory instead of its own
    transcendent, which moved it by up to 5.5e-10 (5.9e-6 relative).  E1,
    E4, p0 at beta 1 and 4 and p1gap again when they moved onto the bulk
    trajectory by Gaudin's relation, and E2 and p0 at beta 2 with them,
    because the fifth state component changes the step sequence.  Largest
    moves, absolute and relative: E2 7.8e-14 and 5.0e-12; p2 1.1e-11 and
    3.0e-10 (at s = 0.109, where its numerator now comes from the series);
    E1 1.0e-13 and 4.2e-4, E4 2.5e-13 and 1.7e-5, p1 1.4e-11 and 1.1e-8, p4
    2.8e-11 and 3.6e-7, all four relative ones at s = 4, the hard-edge
    route's error there; p1gap 1.4e-11 and 1.2e-6 (at s = 0.001)."""

    @pytest.mark.parametrize("quantity, extra, s_max, digest", [
        ("E2", (), "4.0",
         "6de8b0e65e0124b1bbcb6b3a0f37e86ef3a4af596a5b52b0aad4baa362d596c6"),
        ("E1", (), "4.0",
         "6c23841153023fda6ae4ba46e7f32c5800b5a8730f987e2ce1b0155a6989e4b3"),
        ("E4", (), "4.0",
         "1a5e65a940adb1321cc240b7f2cd1318594e372a120a3ecbd5a1ddbe766a607b"),
        ("Enn", (), "4.0",
         "f4142774e1a08a179fe7cc9a34f2f6c2dc000c77ca77a05e60174a9ab03e7733"),
        ("p0", ("--beta", "1"), "4.0",
         "28b597dcad1b8a25ab224b505a6a060e794676648f50d320a652015b481f4d69"),
        ("p0", ("--beta", "2"), "4.0",
         "97f2142084f69c4f2dfcfb96d820601ed0befaf4ac27e97b171bd87163e9fce4"),
        ("p0", ("--beta", "4"), "4.0",
         "5e619242896d24b38543518accc3bbfb4d800049810bb1000dc1677f614df4fc"),
        ("p1gap", (), "6.0",
         "071a11f803951aadc2764f46b4a5b752cf7dc5808ea76fcc609b55046f30c435"),
        ("p2nn", (), "4.0",
         "c53765c6ed7725324bd874d2293dc665154849f3664aef42b0189fe543697b5e"),
    ], ids=["E2", "E1", "E4", "Enn", "p0-beta1", "p0-beta2", "p0-beta4",
            "p1gap", "p2nn"])
    def test_tabulate(self, tmp_path, quantity, extra, s_max, digest):
        painleve.clear_cache()
        argv = ["tabulate", "--quantity", quantity, *extra, "--method",
                "painleve", "--s-min", "0.0", "--s-max", s_max,
                "--s-step", "0.001", "--workers", "1"]
        assert TestGoldenDigests._data_digest(argv, tmp_path) == digest


class TestFredholmDigests:
    """SHA-256 of the s > 0 data rows of each Fredholm column: on a coarse
    grid, and on one of small s (below 2e-3 the old point stencils were
    one-sided).  The gap columns were recorded before the determinant
    evaluators took arrays; the density columns (p0, p1gap, p2nn) when
    they became exact s-derivatives by Jacobi's formula."""

    GRIDS = {"coarse": ("0", "3", "0.25"), "one-sided": ("0", "0.01", "0.001")}

    @pytest.mark.parametrize("grid", ["coarse", "one-sided"])
    @pytest.mark.parametrize("quantity, coarse, one_sided", [
        (("E2",),
         "5a4a3eddf6acda11b7b5b8fcc334f69151c77336097cf308181e77dba9492119",
         "0927f67e8c9ef45583d1886f179e598ceab3205bb83ab03b8e3fdcbd45daf357"),
        (("E1",),
         "0dd2ee5ef4bf450662d5ff82830c7b788fedb7dcea77ee866440c1a15761c0bb",
         "a101742d0a563a3db0322cd6787f5eda5ee3a27003e00d9b41242af117057710"),
        (("E4",),
         "e5ca17a6804488486ee6048e48857f5c25952fa5ef81e70ba5f7ddce8e8ca19b",
         "8c4bf3426cf56a717030ce00168dce4fec04636f36c99051c3a0375c82c2876b"),
        (("Enn",),
         "c6b5bf616bbd48d279322a418025db83c565a37d109322a2016d0fc7b52d15f4",
         "7099848de8bddafa3e8142b2ddcdede68394f803fc64096c59eb2e2dc25ce7dc"),
        (("p0", "--beta", "1"),
         "d71bf3503abc5699a2401c6481af780a47c3b94241871d44989ac6851b7846a3",
         "02e63700f4940d762f9c107fed1bc0684b42fbae9b2e3d52371400591c4a709e"),
        (("p0", "--beta", "2"),
         "3360964fe0269b73f987ca4f0f1ea158d90dd05aaae99e0ec7079ddb8c2c9658",
         "d9b24fbf05b4995fa92080acb8bba112e90200ef6fed1d2352f3c5319d6a96e6"),
        (("p0", "--beta", "4"),
         "a440e8cf46113a0e84a7e53d55b5eaf9378658a0ec5b87973a1263896c01ee2c",
         "e8be6f33fa0bd567a141f2015c862c0b62f9e6fa8875f383f377628287a9f201"),
        (("p1gap",),
         "05f41a0f05374313826ebaa3b8b776b352b0c37628d1f823e936caf649b247c6",
         "377ad787c0ea2f79208864039060073b9445f3b5e6db17ca16ffec487b6429bc"),
        (("p2nn",),
         "f5230d45d6ecde9e256906287ec6edc1f84c8f514976667847ef78fd67dd8eb4",
         "4aa093d5dde7005c46cfff9c11b52cc48070c3049fe4e1e080d0c7a2fa855662"),
        (("En", "--n", "0"),
         "5bbdf62e9b2741f3da36491cdabd4998d0b161b8d1b9532f68cede806bf638a1",
         "2eeb69607b57ad7983828969f25938bd6ec52745358d6f4853497c1483be3107"),
        (("En", "--n", "1"),
         "811c72ec00ca8e0b05bee0063eceaebf4f3b7415ad986b3f327776544f4f192f",
         "f00ca4b11900f41f4a6f4ccfdc6d8bb6b8e87219fe9dd8bc60e8015d0a3c2e6e"),
        (("En", "--n", "2"),
         "4093725005429c5d28731d73b060943e3462a38319c59234327da6d28f3b540c",
         "8fb9439edbdab7988d10da25c602b7e7b93ec638bc8c751d0870aa3d5cdd25d8"),
        (("En", "--n", "3"),
         "cb46749e99701d4edf3b0e6cd8fdcb99f6ee8f8c552e0d4bd87b597f9d7af1d6",
         "c819e70ceddbaabb9d9d6dc2b48919be84e7999f42f600ce790e90aab035f80a"),
        (("En", "--n", "4"),
         "146a143429c47de7d74cdbe7530c1e63480678e1fd51c7a9b5ee15ac68136b47",
         "cee7be478469e2d7d1fa2728ab4ce169d8de56c2b1c667bbb360a9a305426783"),
        (("En", "--n", "5"),
         "21df36b5112e24e6b2fbfa9d3c9a1355e3fbc4141e52ba2df43c0a0d59d6024f",
         "cee7be478469e2d7d1fa2728ab4ce169d8de56c2b1c667bbb360a9a305426783"),
    ], ids=["E2", "E1", "E4", "Enn", "p0-beta1", "p0-beta2", "p0-beta4",
            "p1gap", "p2nn", "En0", "En1", "En2", "En3", "En4", "En5"])
    def test_tabulate(self, tmp_path, grid, quantity, coarse, one_sided):
        s_min, s_max, s_step = self.GRIDS[grid]
        path = tmp_path / "out.csv"
        argv = ["tabulate", "--quantity", *quantity, "--method", "fredholm",
                "--s-min", s_min, "--s-max", s_max, "--s-step", s_step,
                "-o", str(path)]
        assert main(argv) == 0
        with open(path, encoding="utf-8") as f:
            rows = "".join(line for line in f
                           if not line.startswith(("#", "0,")))
        digest = hashlib.sha256(rows.encode()).hexdigest()
        assert digest == (coarse if grid == "coarse" else one_sided)


def _write_zeros(path):
    """Ordinates at the smooth counting function's unit-spacing targets;
    plumbing only, no statistics claimed."""
    lines = []
    for u in np.arange(5.0, 205.0):
        g = 40.0
        for _ in range(60):
            w = g / (2.0 * math.pi)
            g -= (w * (math.log(w) - 1.0) + 0.875 - u) \
                / (math.log(w) / (2.0 * math.pi))
        lines.append(f"{g:.12f}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestZeros:
    @pytest.fixture()
    def zeros_file(self, tmp_path):
        return _write_zeros(tmp_path / "zeros.txt")

    def test_csv_output(self, zeros_file):
        out = io.StringIO()
        args = _args("zeros", file=zeros_file)
        cli.write_zeros(args, out)
        lines = out.getvalue().splitlines()
        assert "# ordinates: 200" in lines
        assert any(l.startswith("# ks_exact: ") for l in lines)
        assert any(l.startswith("# ks_poisson: ") for l in lines)
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "bin_left,bin_right,count,density,exact,poisson"

    def test_metadata_records_the_file_digest(self, zeros_file):
        def written():
            out = io.StringIO()
            cli.write_zeros(_args("zeros", file=zeros_file), out)
            return out.getvalue().splitlines()

        before = written()
        with open(zeros_file, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
        assert f"# ordinates_sha256: {digest}" in before
        with open(zeros_file, "a", encoding="utf-8") as f:
            f.write("# an edit that leaves every ordinate as it was\n")
        after = written()
        changed = [(a, b) for a, b in zip(before, after) if a != b]
        assert len(before) == len(after) and len(changed) == 1
        assert all(line.startswith("# ordinates_sha256: ")
                   for line in changed[0])

    def test_exact_overlay_equals_scalar_loop(self, zeros_file):
        out = io.StringIO()
        cli.write_zeros(_args("zeros", file=zeros_file), out)
        body = [l for l in out.getvalue().splitlines()
                if not l.startswith("#")][1:]
        rows = np.loadtxt(body, delimiter=",", ndmin=2)
        centers = 0.5 * (rows[:, 0] + rows[:, 1])
        loop = [painleve.p2_nn(float(c)) for c in centers]
        assert np.array(loop).tobytes() == rows[:, 4].tobytes()


class TestCommandLine:
    """The `# command:` line of each CSV names every option that changes
    what is written, so running it again writes the same bytes."""

    @pytest.mark.parametrize("argv", [
        ["tabulate", "--s-max", "1", "--s-step", "0.123456789"],
        ["tabulate", "--quantity", "p0", "--beta", "4", "--s-max", "0.5",
         "--s-step", "0.25"],
        ["tabulate", "--quantity", "En", "--n", "2", "--s-max", "0.5",
         "--s-step", "0.25"],
        ["sample", "--reps", "300", "--bin-width", "0.2", "--workers", "1"],
        ["sample", "--reps", "300", "--bin-width", "0.2", "--workers", "2"],
        ["primes", "--bin-width", "0.05"],
        ["primes", "--count", "200", "--raw"],
        ["zeros", "--file", None],
    ], ids=["tabulate-step-tol", "tabulate-p0-beta4", "tabulate-En2",
            "sample-workers1", "sample-workers2", "primes-bin-width",
            "primes-raw", "zeros-spaced-path"])
    def test_rerun_writes_the_same_bytes(self, tmp_path, argv):
        argv = [a if a is not None
                else _write_zeros(tmp_path / "zero ordinates.txt")
                for a in argv]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*argv, "-o", str(first)]) == 0
        recorded = next(line for line in first.read_text().splitlines()
                        if line.startswith("# command: "))
        program, *rerun = shlex.split(recorded[len("# command: "):])
        assert program == "spacing-lab"
        assert main([*rerun, "-o", str(second)]) == 0
        assert second.read_bytes() == first.read_bytes()

    def test_every_option_in_declaration_order(self):
        args = cli.parse_args(["tabulate", "--s-step", "0.123456789",
                               "-o", "out.csv", "--workers", "2"])
        assert cli.command_line(args) == (
            "spacing-lab tabulate --quantity E2 --method all --s-min 0.0 "
            "--s-max 2.0 --s-step 0.123456789 --beta 1 --n 0")


class TestRouteTable:
    @pytest.mark.parametrize("method", routes.METHODS)
    @pytest.mark.parametrize("quantity", routes.QUANTITIES)
    def test_tabulate_runs_exactly_the_listed_methods(
            self, tmp_path, capsys, quantity, method):
        target = tmp_path / "table.csv"
        code = main(["tabulate", "--quantity", quantity, "--method", method,
                     "--s-max", "0.5", "--s-step", "0.25",
                     "-o", str(target)])
        if method in routes.methods_for(quantity):
            assert code == 0
            header = next(l for l in target.read_text().splitlines()
                          if not l.startswith("#"))
            assert header == f"s,{quantity}_{method}"
        else:
            assert code == 2
            assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["fredholm", "painleve", "surmise"])
    def test_evaluate_refuses_an_unknown_beta(self, method, monkeypatch):
        def evaluator(*args, **kwargs):
            raise AssertionError("an evaluator ran")
        for module in (fredholm, painleve, routes.surmise):
            for name in ("p1_det", "p2_det", "p4_det", "p1_direct",
                         "p2_direct", "p4_direct", "wigner_surmise"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, evaluator)
        with pytest.raises(UnsupportedError, match="beta"):
            routes.evaluate("p0", method, np.array([0.5]), beta=3)

    def test_evaluate_refuses_an_unlisted_method(self):
        # the painleve En column is E2(0; s), right at n = 0 only
        with pytest.raises(UnsupportedError):
            routes.evaluate("En", "painleve", np.array([0.5]), n=2)

    def test_help_lists_the_table(self, capsys):
        with pytest.raises(SystemExit):
            main(["tabulate", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        listed = text.split("Supported methods per quantity: ")[1]
        listed = listed.split(". ")[0]
        methods = {}
        for group in listed.split("; "):
            quantities, names = group.split(": ")
            for q in quantities.split("/"):
                methods[q] = tuple(names.split(", "))
        assert methods == {q: routes.methods_for(q)
                           for q in routes.QUANTITIES}


class TestMainExitCodes:
    def test_usage_error_for_unsupported_combination(self, capsys):
        code = main(["tabulate", "--quantity", "En", "--n", "2",
                     "--method", "painleve"])
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    def test_missing_zeros_file(self, capsys, tmp_path):
        code = main(["zeros", "--file", str(tmp_path / "absent.txt")])
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_invalid_beta_rejected_by_parser(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["tabulate", "--quantity", "p0", "--beta", "3"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (["sample", "--n", "3", "--order", "1"],
         "rank must be odd and >= 5, got 3"),
        (["sample", "--n", "12"], "rank must be odd and >= 3, got 12"),
        (["sample", "--bin-width", "0"],
         "bin width must be finite and > 0, got 0.0"),
        (["sample", "--bin-width", "nan"],
         "bin width must be finite and > 0, got nan"),
        (["sample", "--n", "13", "--reps", "50", "--bin-width", "inf"],
         "bin width must be finite and > 0, got inf"),
        (["primes", "--bin-width", "0"],
         "bin width must be finite and > 0, got 0.0"),
    ], ids=["rank3-order1", "even-rank", "sample-zero-width",
            "sample-nan-width", "sample-inf-width", "primes-zero-width"])
    def test_arguments_checked_before_sampling(self, monkeypatch, capsys,
                                               argv, message):
        calls = []

        def recording(module, name):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, **k: calls.append(
                name) or original(*a, **k))

        recording(montecarlo, "sample_ensemble")
        recording(sequences, "primes_from")
        assert main([*argv, "--workers", "1"]) == 2
        assert calls == []
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--s-step", "nan"], "--s-step must be finite and > 0, got nan"),
        (["--s-step", "inf"], "--s-step must be finite and > 0, got inf"),
        (["--s-min", "nan"], "--s-min must be finite and >= 0, got nan"),
        (["--s-max", "nan"], "--s-max must be finite and >= --s-min, got nan"),
        (["--s-max", "inf"], "--s-max must be finite and >= --s-min, got inf"),
    ], ids=["step-nan", "step-inf", "min-nan", "max-nan", "max-inf"])
    def test_tabulate_arguments_checked_before_evaluation(
            self, monkeypatch, capsys, argv, message):
        calls = []
        monkeypatch.setattr(routes, "_COLUMNS", {
            key: lambda s, **keywords: calls.append(keywords)
            or np.zeros_like(s) for key in routes._COLUMNS})
        assert main(["tabulate", *argv]) == 2
        assert calls == []
        assert message in capsys.readouterr().err

    def test_negative_seed(self, capsys):
        code = main(["sample", "--n", "13", "--reps", "10", "--seed", "-1"])
        assert code == 2
        assert capsys.readouterr().err == (
            "usage error: seed must be >= 0, got -1\n")

    def test_huge_s_is_a_numeric_error(self, capsys):
        # 2 s overflows the first rule's ceiling; the clamp leaves the
        # kernel's own non-finite check to refuse it, the one line on stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["tabulate", "--quantity", "E2", "--method",
                         "fredholm", "--s-min", "1e308", "--s-max", "1.7e308",
                         "--s-step", "1e308"])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: kernel evaluated to a non-finite value\n")

    @pytest.mark.parametrize("quantity", [
        ["p0", "--beta", "1"], ["p0", "--beta", "2"], ["p0", "--beta", "4"],
        ["p1gap"], ["p2nn"]], ids=["p0-1", "p0-2", "p0-4", "p1gap", "p2nn"])
    def test_huge_s_density_is_a_numeric_error(self, capsys, quantity):
        # the Jacobi jets overflow in their sines; the jet's own non-finite
        # check refuses it before det, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["tabulate", "--quantity", *quantity, "--method",
                         "fredholm", "--s-min", "1e308", "--s-max", "1.7e308",
                         "--s-step", "1e308"])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: kernel evaluated to a non-finite value\n")

    @pytest.mark.parametrize("argv, code", [
        (["--s-step", "1e-300"], 2),
        (["--quantity", "E2", "--method", "fredholm", "--s-min", "1e308",
          "--s-max", "1.7e308", "--s-step", "1e308"], 3)],
        ids=["usage", "numeric"])
    def test_failed_command_keeps_the_output_file(self, tmp_path, argv, code):
        # the -o file is opened only once the table is computed
        target = tmp_path / "out.csv"
        target.write_text("keep me\n")
        assert main(["tabulate", *argv, "-o", str(target)]) == code
        assert target.read_text() == "keep me\n"

    def test_forced_gap_is_a_numeric_error(self, capsys):
        # E2(0; 12.8) is about 1e-82: an eigenvalue rounds to 1
        code = main(["tabulate", "--quantity", "En", "--n", "0", "--method",
                     "fredholm", "--s-min", "12.8", "--s-max", "12.8"])
        assert code == 3
        assert "forced to 0" in capsys.readouterr().err

    def test_zero_determinant_is_a_numeric_error(self, capsys):
        # E1(0; 6) = 1.410e-43, which the Fredholm column printed as 0
        code = main(["tabulate", "--quantity", "E1", "--method", "all",
                     "--s-max", "6.2", "--s-step", "0.4"])
        assert code == 3
        assert "determinant is exactly 0" in capsys.readouterr().err

    @pytest.mark.parametrize("quantity", [["p0", "--beta", "4"], ["p2nn"]],
                             ids=["p0-beta4", "p2nn"])
    def test_negative_density_is_a_numeric_error(self, tmp_path, capsys,
                                                 quantity):
        # the Jacobi-jet p4 and p2nn change sign past s = 7.3: at s = 8
        # they read -1.2e-59 and -6.0e-115
        target = tmp_path / "out.csv"
        target.write_text("keep me\n")
        code = main(["tabulate", "--quantity", *quantity, "--method",
                     "fredholm", "--s-min", "3", "--s-max", "8",
                     "--s-step", "1", "-o", str(target)])
        assert code == 3
        assert "at s = 8 is negative" in capsys.readouterr().err
        assert target.read_text() == "keep me\n"

    def test_zero_workers(self, capsys):
        # sample is the one command that sizes a pool
        code = main(["sample", "--n", "3", "--reps", "8", "--workers", "0"])
        assert code == 2
        assert "--workers must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["tabulate", "--s-max", "0.5", "--workers", "-3"],
        ["sample", "--reps", "8", "--workers", "-1"],
        ["primes", "--count", "5", "--workers", "-1"],
        ["zeros", "--file", "absent.txt", "--workers", "0"],
    ], ids=["tabulate", "sample", "primes", "zeros"])
    def test_workers_below_one_refused(self, capsys, tmp_path, argv):
        # before any output file is opened or input file read, and for a
        # library caller that passes the parsed options to a writer
        target = tmp_path / "out.csv"
        assert main([*argv, "-o", str(target)]) == 2
        assert (f"--workers must be >= 1, got {argv[-1]}"
                in capsys.readouterr().err)
        assert not target.exists()
        with pytest.raises(ArgumentError):
            cli.parse_args(argv)

    def test_tabulate_to_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code = main(["tabulate", "--quantity", "E2", "--s-max", "0.5",
                     "--s-step", "0.25", "-o", str(target)])
        assert code == 0
        assert target.read_text().startswith("#")
        assert "max |E2_fredholm - E2_painleve|" in capsys.readouterr().err

    def test_tabulate_reports_relative_deviation(self, capsys):
        code = main(["tabulate", "--quantity", "E2", "--s-max", "0.5",
                     "--s-step", "0.25"])
        assert code == 0
        line = capsys.readouterr().err.strip()
        assert line.startswith("max |E2_fredholm - E2_painleve| = ")
        assert ", relative " in line

    def test_relative_deviation_skips_double_zeros(self):
        a = np.array([0.0, 1.0, -2.0, 4.0])
        b = np.array([0.0, 1.5, -2.0, 0.0])
        assert routes.max_relative(a, b) == 1.0
        assert routes.max_relative(a[:3], b[:3]) == pytest.approx(1.0 / 3.0)
        assert routes.max_relative(a[:1], b[:1]) == 0.0

    def test_verify_single_criterion(self, capsys):
        code = main(["verify", "--only", "surmise_accuracy"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS] surmise-accuracy" in out
        assert "1/1 criteria passed" in out

    def test_verify_unknown_criterion(self, capsys):
        code = main(["verify", "--only", "bogus_name"])
        assert code == 2

    def test_verify_accepts_printed_names(self, capsys):
        code = main(["verify", "--only", "series-boundary-layers",
                     "prime_gap_poisson"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS] series-boundary-layers" in out
        assert "[PASS] prime-gap-poisson" in out
        assert "2/2 criteria passed" in out

    def test_verify_unknown_name_in_list_is_usage_error(self, capsys):
        code = main(["verify", "--only", "surmise-accuracy", "bogus"])
        assert code == 2
        captured = capsys.readouterr()
        assert "bogus" in captured.err
        assert "criteria passed" not in captured.out


class TestSizeLimit:
    # montecarlo.MAX_POINTS bounds every tabulate grid and histogram
    COMMANDS = [
        ["tabulate", "--quantity", "p0", "--method", "surmise"],
        ["sample", "--n", "13", "--reps", "50", "--workers", "1"],
        ["primes", "--count", "50", "--workers", "1"],
        ["zeros"],
    ]
    IDS = ["tabulate", "sample", "primes", "zeros"]
    TINY = {"tabulate": "--s-step", "sample": "--bin-width",
            "primes": "--bin-width", "zeros": "--bin-width"}

    @staticmethod
    def _argv(argv, tmp_path):
        if argv[0] == "zeros":
            return [*argv, "--file", _write_zeros(tmp_path / "zeros.txt")]
        return argv

    @pytest.mark.parametrize("argv", COMMANDS, ids=IDS)
    def test_tiny_step_is_a_usage_error(self, capsys, tmp_path, argv):
        argv = self._argv(argv, tmp_path)
        assert main([*argv, self.TINY[argv[0]], "1e-300"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert "would give more than 1000000" in err

    @pytest.mark.parametrize("argv", COMMANDS, ids=IDS)
    def test_one_past_the_limit(self, capsys, monkeypatch, tmp_path, argv):
        # a command that sizes n points or bins passes at a limit of n and
        # is refused at n - 1
        argv = [*self._argv(argv, tmp_path), "-o", str(tmp_path / "out.csv")]
        assert main(argv) == 0
        rows = (tmp_path / "out.csv").read_text().splitlines()
        n = sum(not line.startswith("#") for line in rows) - 1
        monkeypatch.setattr(montecarlo, "MAX_POINTS", n)
        assert main(argv) == 0
        monkeypatch.setattr(montecarlo, "MAX_POINTS", n - 1)
        assert main(argv) == 2
        assert f"more than {n - 1}" in capsys.readouterr().err

    def test_grid_one_past_the_stated_limit(self, monkeypatch, capsys):
        # [0, 1] in steps of 1e-6 is 10^6 + 1 points, refused before any
        # column is evaluated
        calls = []
        monkeypatch.setattr(routes, "_COLUMNS", {
            key: lambda s, **keywords: calls.append(len(s))
            or np.zeros_like(s) for key in routes._COLUMNS})
        assert main(["tabulate", "--s-max", "1", "--s-step", "1e-6"]) == 2
        assert calls == []
        assert main(["tabulate", "--s-max", "1", "--s-step", "1e-5"]) == 0
        assert calls == [100_001] * len(routes.methods_for("E2"))
        assert "1000000 grid points" in capsys.readouterr().err


class TestCriterionNames:
    def test_every_printed_name_selects_its_criterion(self, monkeypatch):
        # stand-ins carrying the registered names, so the 13 real checks
        # need not run; the names are read from the real registry
        names = [fn.criterion for fn in verify.ALL_CRITERIA]
        assert len(set(names)) == len(names) == 13
        # _criterion appends to ALL_CRITERIA, so the stubs go to a list
        # that replaces the real one until the test ends
        monkeypatch.setattr(verify, "ALL_CRITERIA", [])
        for name in names:
            verify._criterion(name)(lambda: (True, {}))
        for name in names:
            for spelling in (name, name.replace("-", "_")):
                results = verify.run_all([spelling])
                assert [r.name for r in results] == [name]
