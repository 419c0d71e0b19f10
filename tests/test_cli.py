"""End-to-end command tests through main(argv), checking CSV shapes, digit
rendering, exit codes, and the self-check's sensitivity to perturbations.
"""

import csv
import dataclasses
import io
import math
import time

import pytest

from urnwait import BernoulliParams, Dist, UrnParams, cdf, cli, estimation, pmf, pmf_table
from urnwait.distributions import maxnb_pmf, maxnh_pmf


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows(out):
    lines = out.splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


class TestPmf:
    def test_table_shape_and_digits(self, capsys):
        code, out, _ = run(["pmf", "maxnh", "--N", "15", "--m", "6", "--c", "3"], capsys)
        assert code == 0
        header, data = rows(out)
        assert header == "y,pmf"
        assert len(data) == 7
        assert data[0] == ["0", "0.335664336"]
        assert data[1] == ["1", "0.251748252"]

    def test_cdf_column(self, capsys):
        code, out, _ = run(
            ["pmf", "maxnh", "--N", "15", "--m", "6", "--c", "3", "--cdf"], capsys
        )
        assert code == 0
        header, data = rows(out)
        assert header == "y,pmf,cdf"
        assert data[1][2] == "0.587412587"
        assert data[-1][2] == "1"

    def test_cdf_column_is_the_library_cdf(self, capsys):
        code, out, _ = run(["pmf", "nb", "--c", "2", "--p", "0.5", "--cdf"], capsys)
        assert code == 0
        table = pmf_table(Dist.NB, BernoulliParams(2, 0.5))
        _, data = rows(out)
        assert [r[2] for r in data] == [f"{cdf(table, y):.9g}" for y in table.ys]
        # 1013/1024 exactly; a running float sum printed ...813 here.
        assert data[8][2] == "0.989257812"

    @pytest.mark.parametrize("dist", ["nb", "maxnb"])
    def test_large_c_bernoulli_terminates(self, dist, capsys):
        start = time.perf_counter()
        code, out, _ = run(["pmf", dist, "--c", "5000", "--p", "0.5"], capsys)
        assert code == 0
        assert time.perf_counter() - start < 2.0
        table = pmf_table(Dist(dist), BernoulliParams(5000, 0.5))
        _, data = rows(out)
        assert len(data) == len(table.ys)
        assert math.fsum(table.probs) == pytest.approx(1.0, abs=1e-10)

    def test_row_cap_exit_2(self, capsys):
        code, _, err = run(["pmf", "nb", "--c", "5000", "--p", "1e-7"], capsys)
        assert code == 2
        assert "1000000 rows" in err

    def test_minnb_at_subnormal_p(self, capsys):
        code, out, _ = run(["pmf", "minnb", "--c", "2", "--p", "5e-324"], capsys)
        assert code == 0
        _, data = rows(out)
        assert data == [["0", "1"], ["1", "0"]]

    def test_bernoulli_family_needs_no_population(self, capsys):
        code, out, _ = run(["pmf", "nb", "--c", "2", "--p", "0.5"], capsys)
        assert code == 0
        _, data = rows(out)
        total = sum(float(r[1]) for r in data)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_single_row(self, capsys):
        code, out, _ = run(["pmf", "maxnh", "--N", "6", "--m", "3", "--c", "3"], capsys)
        assert code == 0
        _, data = rows(out)
        assert data == [["0", "1"]]

    def test_missing_flags_exit_2(self, capsys):
        code, _, err = run(["pmf", "maxnh", "--N", "15", "--m", "6"], capsys)
        assert code == 2
        assert err.startswith("error:")
        assert "--c" in err

    def test_invalid_parameters_exit_2(self, capsys):
        code, _, err = run(["pmf", "maxnh", "--N", "10", "--m", "5", "--c", "9"], capsys)
        assert code == 2
        assert err.startswith("error:")


class TestSample:
    def test_deterministic(self, capsys):
        argv = ["sample", "maxnh", "--N", "15", "--m", "6", "--c", "3",
                "--trials", "50", "--seed", "11"]
        _, out1, _ = run(argv, capsys)
        _, out2, _ = run(argv, capsys)
        assert out1 == out2

    def test_trial_rows(self, capsys):
        code, out, _ = run(
            ["sample", "maxnh", "--N", "15", "--m", "6", "--c", "3",
             "--trials", "4", "--seed", "5"],
            capsys,
        )
        assert code == 0
        header, data = rows(out)
        assert header == "y,terminal_color,count1,count2"
        assert len(data) == 4
        for y, color, n1, n2 in data:
            assert color in ("first", "second")
            assert sorted((int(n1), int(n2))) == [3, 3 + int(y)]

    def test_empirical_table(self, capsys):
        code, out, _ = run(
            ["sample", "maxnh", "--N", "15", "--m", "6", "--c", "3",
             "--trials", "2000", "--seed", "5", "--empirical-pmf"],
            capsys,
        )
        assert code == 0
        header, data = rows(out)
        assert header == "y,freq"
        assert sum(float(r[1]) for r in data) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "scheme_args",
        [
            ["maxnh", "--N", "15", "--m", "6", "--c", "3"],
            ["maxnb", "--c", "3", "--p", "0.4"],
        ],
    )
    def test_raw_rows_tally_to_empirical_table(self, scheme_args, capsys):
        argv = ["sample", *scheme_args, "--trials", "3000", "--seed", "8"]
        _, raw, _ = run(argv, capsys)
        _, table, _ = run([*argv, "--empirical-pmf"], capsys)
        _, data = rows(raw)
        counts = [0] * (1 + max(int(r[0]) for r in data))
        for r in data:
            counts[int(r[0])] += 1
        _, freqs = rows(table)
        assert freqs == [[str(y), f"{n / 3000:.9g}"] for y, n in enumerate(counts)]

    def test_bernoulli_scheme(self, capsys):
        code, out, _ = run(
            ["sample", "maxnb", "--c", "3", "--p", "0.4", "--trials", "2",
             "--seed", "1"],
            capsys,
        )
        assert code == 0
        _, data = rows(out)
        assert len(data) == 2

    @pytest.mark.parametrize("scheme", ["nb", "maxnb"])
    @pytest.mark.parametrize("extra", [[], ["--empirical-pmf"]])
    def test_row_cap_exit_2_before_any_output(self, scheme, extra, capsys):
        # A trial at p = 1e-300 waits about 1e300 draws; sample refuses what
        # pmf_table refuses, before the header.
        argv = ["sample", scheme, "--c", "1", "--p", "1e-300", "--trials", "3", "--seed", "1"]
        start = time.perf_counter()
        code, out, err = run(argv + extra, capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert "1000000-row cap" in err

    @pytest.mark.parametrize("scheme, p", [("maxnb", "0.9999999999999999"), ("nb", "1e-7")])
    def test_long_tail_exit_2_before_any_output(self, scheme, p, capsys):
        # The wait peaks early, but its tail passes the row cap.
        argv = ["sample", scheme, "--c", "1", "--p", p, "--trials", "3", "--seed", "1"]
        start = time.perf_counter()
        code, out, err = run(argv, capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert "1000000-row cap" in err

    def test_zero_trials_exit_2(self, capsys):
        code, _, err = run(
            ["sample", "maxnh", "--N", "15", "--m", "6", "--c", "3",
             "--trials", "0", "--seed", "1"],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:")


class TestModes:
    def test_single_m_report(self, capsys):
        code, out, _ = run(["modes", "--N", "24", "--m", "8", "--c", "6"], capsys)
        assert code == 0
        header, data = rows(out)
        assert header == "modes,is_unimodal,p0_over_p1"
        mode_list, unimodal, ratio = data[0]
        assert mode_list.startswith("0;")
        assert unimodal == "False"
        assert float(ratio) == pytest.approx(7 / 6, rel=1e-8)

    def test_scan_intervals(self, capsys):
        code, out, _ = run(["modes", "--N", "10", "--c", "2"], capsys)
        assert code == 0
        header, data = rows(out)
        assert header == "m_lo,m_hi"
        assert data == [["3", "7"]]

    def test_large_population_range(self, capsys):
        # the bisection reads 17 tables where a scan would read 49991
        code, out, _ = run(["modes", "--N", "100000", "--c", "10"], capsys)
        assert code == 0
        assert out == "m_lo,m_hi\n35144,64856\n"

    def test_underflowed_head_scan(self, capsys):
        code, out, _ = run(["modes", "--N", "40000", "--c", "6000"], capsys)
        assert (code, out) == (0, "m_lo,m_hi\n19842,20158\n")

    def test_underflowed_head_report(self, capsys):
        # p(0) and p(1) underflow to 0.0, so neither y=0 nor the ratio is
        # reported; y=0 is still a mode of the law, which so reads bimodal
        code, out, _ = run(["modes", "--N", "1000000", "--m", "100", "--c", "100"], capsys)
        assert (code, out) == (0, "modes,is_unimodal,p0_over_p1\n999800,False,nan\n")

    def test_table_past_the_row_cap_exits_2(self, capsys):
        code, out, err = run(["pmf", "maxnh", "--N", "3000000", "--m", "1000000", "--c", "10"], capsys)
        assert (code, out) == (2, "")
        assert "1000000 rows" in err

    def test_verdict_past_the_row_cap_exits_2(self, capsys):
        code, out, err = run(["modes", "--N", str(2**53), "--c", str(2**50)], capsys)
        assert (code, out) == (2, "")
        assert "1000000 rows" in err

    def test_empty_scan_notes_and_exits_zero(self, capsys):
        code, out, err = run(["modes", "--N", "10", "--c", "5"], capsys)
        assert code == 0
        _, data = rows(out)
        assert data == []
        assert "degenerate" in err


class TestMle:
    def test_point_estimate(self, capsys):
        code, out, _ = run(["mle", "--N", "20", "--c", "3", "--y", "0"], capsys)
        assert code == 0
        header, data = rows(out)
        assert header == "m_hat,phi,classification"
        assert data[0] == ["10", "-0.037970679", "global_max_at_half"]

    def test_symmetric_pair(self, capsys):
        code, out, _ = run(["mle", "--N", "20", "--c", "3", "--y", "5"], capsys)
        assert code == 0
        _, data = rows(out)
        m_hat, phi_s, classification = data[0]
        parts = sorted(float(v) for v in m_hat.split(";"))
        assert parts[1] == pytest.approx(14.786383063790, abs=1e-6)
        assert parts[0] + parts[1] == pytest.approx(20.0, abs=1e-6)
        assert classification == "local_min_at_half"
        assert float(phi_s) > 0

    def test_zero_of_the_likelihood_at_half(self, capsys):
        # c + y - 1 >= N/2: L vanishes at N/2 for even N (phi has a pole
        # there) and at N/2 +- 1/2 for odd N. The maxima lie on
        # (c + y - 1, N - c]; for (12, 1, 10) and (7, 1, 5) L still rises one
        # float inside N - c, so the estimates are c and N - c.
        want = {
            (20, 8, 3): "8.35573651;11.6442635,nan,zero_at_half",
            (12, 1, 10): "1;11,nan,zero_at_half",
            (7, 1, 5): "1;6,-4.5260771,zero_at_half",
        }
        for (N, c, y), line in want.items():
            code, out, _ = run(["mle", "--N", str(N), "--c", str(c), "--y", str(y)], capsys)
            assert code == 0
            assert out.splitlines()[1:] == [line], (N, c, y)

    def test_large_population(self, capsys):
        # every Newton read takes O(1) here; walking at each read took 3.6 s
        code, out, _ = run(["mle", "--N", "10000000", "--c", "5", "--y", "3000000"], capsys)
        assert code == 0
        assert out.splitlines()[1:] == ["16.1605475;9999983.84,0.41979544,local_min_at_half"]

    def test_profile_grid(self, capsys):
        code, out, err = run(
            ["mle", "--N", "20", "--c", "3", "--y", "0", "--profile", "3:17:0.25"],
            capsys,
        )
        assert code == 0
        header, data = rows(out)
        assert header == "m,loglik"
        assert len(data) == 57
        assert "maximizers=10" in err

    def test_profile_writes_nan_where_the_likelihood_is_undefined(self, capsys):
        code, out, err = run(
            ["mle", "--N", "12", "--c", "1", "--y", "10", "--profile", "1:11:0.5"],
            capsys,
        )
        assert code == 0
        header, data = rows(out)
        assert header == "m,loglik"
        assert len(data) == 21
        undefined = [m for m, v in data if v == "nan"]
        assert undefined == "2 2.5 3 4 4.5 5 6 7 7.5 8 9 9.5 10".split()
        assert [",".join(r) for r in data if r[1] != "nan"] == [
            "1,-2.48490665",
            "1.5,-3.91618108",
            "3.5,-8.31063023",
            "5.5,-11.1438436",
            "6.5,-11.1438436",
            "8.5,-8.31063023",
            "10.5,-3.91618108",
            "11,-2.48490665",
        ]
        assert err == "maximizers=1;11 phi=nan classification=zero_at_half\n"

    def test_one_mle_per_command(self, capsys, monkeypatch):
        calls = []
        real = estimation.mle

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli, "mle", counted)
        monkeypatch.setattr(estimation, "mle", counted)
        argv = ["mle", "--N", "20", "--c", "3", "--y", "5"]
        for extra in ([], ["--profile", "3:17:0.25"]):
            calls.clear()
            code, _, _ = run(argv + extra, capsys)
            assert code == 0
            assert calls == [(20, 3, 5)], extra

    @pytest.mark.parametrize("spec", ["nan:11:0.5", "1:inf:0.5", "1:11:nan"])
    def test_non_finite_grid_exit_2(self, spec, capsys):
        code, out, err = run(
            ["mle", "--N", "20", "--c", "3", "--y", "5", "--profile", spec], capsys
        )
        assert code == 2
        assert out == "" and err.startswith("error:")

    def test_oversized_grid_exit_2(self, capsys):
        # 10**12 points: refused before any is listed
        code, out, err = run(
            ["mle", "--N", "20", "--c", "3", "--y", "5", "--profile", "0:1e12:1"], capsys
        )
        assert code == 2
        assert out == "" and err.startswith("error:")

    def test_malformed_grid_exit_2(self, capsys):
        code, _, err = run(
            ["mle", "--N", "20", "--c", "3", "--y", "0", "--profile", "3:17"],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:")


class TestFigure:
    @pytest.mark.parametrize("which,n_rows", [(1, 69), (6, 451)])
    def test_row_counts(self, which, n_rows, capsys):
        code, out, _ = run(["figure", "--which", str(which)], capsys)
        assert code == 0
        header, data = rows(out)
        assert header == "label,x,value"
        assert len(data) == n_rows

    def test_values_recomputed_not_echoed(self, capsys):
        _, out, _ = run(["figure", "--which", "1"], capsys)
        _, data = rows(out)
        by_key = {(label, x): float(v) for label, x, v in data}
        # the N=15 trace at y=0 is the (15, 6, 3) head probability
        assert by_key[("N=15", "0")] == pytest.approx(48 / 143, rel=1e-9)

    @pytest.mark.parametrize("which", [1, 2, 3, 4, 5])
    def test_table_rows_print_as_the_pointwise_values(self, which):
        c, num, den = cli._FIG_REGIMES[which]
        golden = cli._load_golden(which)
        computed = cli._figure_rows(which)
        for (label, x, _), (_, _, value) in zip(golden, computed):
            if label == "maxnb":
                want = maxnb_pmf(BernoulliParams(c, num / den), int(x))
            else:
                N = int(label[2:])
                want = maxnh_pmf(UrnParams(N, N * num // den, c), int(x))
            assert f"{value:.9g}" == f"{want:.9g}", (label, x)

    def test_out_of_range_exit_2(self, capsys):
        code, _, err = run(["figure", "--which", "7"], capsys)
        assert code == 2
        assert err.startswith("error:")


class TestSelfcheck:
    def test_passes_clean(self, capsys):
        code, out, _ = run(["selfcheck"], capsys)
        assert code == 0
        header, data = rows(out)
        assert header == "suite,max_deviation,tolerance,status"
        assert len(data) >= 6
        assert all(r[3] == "PASS" for r in data)
        assert {r[0] for r in data} >= {"figure 1", "figure 6", "enumeration N<=12"}

    def test_likelihood_suite(self, capsys, monkeypatch):
        code, out, _ = run(["selfcheck"], capsys)
        _, data = rows(out)
        assert [r[3] for r in data if r[0] == "likelihood N<=400"] == ["PASS"]
        for name in ("loglik_kernel", "loglik_grad"):
            real = getattr(cli, name)
            with monkeypatch.context() as mp:
                mp.setattr(cli, name, lambda *a, f=real: f(*a) * (1 + 1e-10))
                code, out, _ = run(["selfcheck"], capsys)
            assert code == 1
            _, data = rows(out)
            assert [r[3] for r in data if r[0] == "likelihood N<=400"] == ["FAIL"]

    def test_detects_pmf_perturbation(self, capsys, monkeypatch):
        # figures 1-5 read pmf tables
        def perturbed(dist, params):
            table = pmf_table(dist, params)
            return dataclasses.replace(table, probs=[p + 1e-3 for p in table.probs])

        monkeypatch.setattr(cli, "pmf_table", perturbed)
        code, out, _ = run(["selfcheck"], capsys)
        assert code == 1
        _, data = rows(out)
        assert any(r[3] == "FAIL" for r in data)
        failed = [r[0] for r in data if r[3] == "FAIL"]
        assert failed == [f"figure {k}" for k in range(1, 6)]

    def test_detects_pointwise_pmf_perturbation(self, capsys, monkeypatch):
        # the enumeration suite reads the pointwise pmf
        monkeypatch.setattr(
            cli, "pmf", lambda dist, params, y: pmf(dist, params, y) * (1 + 1e-10)
        )
        code, out, _ = run(["selfcheck"], capsys)
        assert code == 1
        _, data = rows(out)
        assert [r[0] for r in data if r[3] == "FAIL"] == ["enumeration N<=12"]

    def test_detects_likelihood_perturbation(self, capsys, monkeypatch):
        real = cli.loglik_kernel
        monkeypatch.setattr(
            cli, "loglik_kernel", lambda m, N, c, y: real(m, N, c, y) + 1e-3
        )
        code, out, _ = run(["selfcheck"], capsys)
        assert code == 1
        _, data = rows(out)
        fig6 = [r for r in data if r[0] == "figure 6"]
        assert fig6 and fig6[0][3] == "FAIL"


class TestFlags:
    # Each subcommand takes only the flags it reads; argparse refuses the rest.
    @pytest.mark.parametrize(
        "argv",
        [
            ["mle", "--N", "20", "--c", "3", "--y", "5", "--m", "7"],
            ["mle", "--N", "20", "--c", "3", "--y", "5", "--p", "0.9"],
            ["mle", "--N", "20", "--c", "3", "--y", "5", "--p", "3:17:1"],
            ["modes", "--N", "24", "--c", "6", "--p", "0.5"],
            ["pmf", "maxnh", "--N", "15", "--m", "6", "--c", "3", "--cd"],
        ],
    )
    def test_unread_flag_is_an_argparse_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    # pmf and sample take the law flags of both families; each law reads
    # exactly those of its own.
    @pytest.mark.parametrize(
        "argv, unread",
        [
            (["pmf", "nh", "--N", "15", "--m", "6", "--c", "3", "--p", "0.5"], "--p"),
            (["pmf", "nb", "--c", "2", "--p", "0.5", "--N", "10"], "--N"),
            (["pmf", "nb", "--c", "2", "--p", "0.5", "--m", "3"], "--m"),
            (["sample", "maxnb", "--c", "3", "--p", "0.4", "--trials", "2", "--seed", "1",
              "--N", "5"], "--N"),
        ],
    )
    def test_flag_of_the_other_family_exits_2(self, argv, unread, capsys):
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and unread in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["mle", "--c", "3", "--y", "5"], "--N"),
            (["mle", "--N", "20", "--y", "5"], "--c"),
            (["mle", "--N", "20", "--c", "3"], "--y"),
            (["modes", "--c", "6"], "--N"),
            (["modes", "--N", "24", "--m", "8"], "--c"),
            (["figure"], "--which"),
            (["sample", "maxnh", "--N", "15", "--m", "6", "--c", "3", "--seed", "1"], "--trials"),
            (["sample", "maxnh", "--N", "15", "--m", "6", "--c", "3", "--trials", "2"], "--seed"),
        ],
    )
    def test_missing_required_flag_is_an_argparse_error(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "the following arguments are required" in err and flag in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["pmf", "maxnh", "--m", "6", "--c", "3"], "maxnh takes exactly --N --m --c, got --m --c"),
            (["pmf", "nb", "--p", "0.5"], "nb takes exactly --c --p, got --p"),
            (["pmf", "minnb"], "minnb takes exactly --c --p, got none"),
            (["sample", "nh", "--N", "15", "--c", "3", "--trials", "2", "--seed", "1"],
             "nh takes exactly --N --m --c, got --N --c"),
        ],
    )
    def test_missing_law_flag_exits_2(self, argv, message, capsys):
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_settable_values(self):
        # 22 values: 3 law flags dropped from mle and modes
        sub = cli.build_parser()._subparsers._group_actions[0].choices
        dests = {
            name: sorted(a.dest for a in p._actions if a.dest != "help")
            for name, p in sub.items()
        }
        assert dests == {
            "pmf": ["N", "c", "cdf", "dist", "m", "p"],
            "sample": ["N", "c", "empirical_pmf", "m", "p", "scheme", "seed", "trials"],
            "modes": ["N", "c", "m"],
            "mle": ["N", "c", "profile", "y"],
            "figure": ["which"],
            "selfcheck": [],
        }


class TestCsvContract:
    def test_round_trip_is_byte_identical(self, capsys):
        for argv in (
            ["pmf", "maxnh", "--N", "15", "--m", "6", "--c", "3", "--cdf"],
            ["figure", "--which", "2"],
            ["mle", "--N", "20", "--c", "3", "--y", "4"],
        ):
            _, out, _ = run(argv, capsys)
            parsed = list(csv.reader(io.StringIO(out)))
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(parsed)
            assert buf.getvalue() == out

    def test_unknown_subcommand_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_distribution_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["pmf", "cauchy", "--N", "10", "--m", "5", "--c", "2"])
        assert exc.value.code == 2
