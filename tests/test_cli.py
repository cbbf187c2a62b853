import json
import math
from fractions import Fraction

import pytest

from rabi_zeta import cli
from rabi_zeta.cli import run


def _run(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def _records(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


class TestUsage:
    def test_no_args_is_usage_error(self, capsys):
        code, _ = _run(capsys, [])
        assert code == 64

    def test_unknown_model(self, capsys):
        code, _ = _run(capsys, ["zeta", "--model", "3pqrm", "--n", "2"])
        assert code == 64

    def test_missing_required_flag(self, capsys):
        code, _ = _run(capsys, ["zeta", "--model", "1pqrm"])
        assert code == 64

    def test_bergman_requires_nu(self, capsys):
        code, _ = _run(capsys, ["zeta", "--model", "bergman", "--n", "2"])
        assert code == 64

    @pytest.mark.parametrize("nu_list", ["8,abc", ",", ""])
    def test_malformed_nu_list(self, capsys, nu_list):
        # "8,abc" used to exit 1 with a traceback, "," to exit 0 with no record.
        code, out = _run(capsys, ["confluence", "--nu-list", nu_list])
        assert code == 64 and out == ""


class TestZeta:
    def test_decoupled_value(self, capsys):
        code, out = _run(
            capsys,
            ["zeta", "--model", "1pqrm", "--n", "2", "--lambda", "1.0"],
        )
        assert code == 0
        (rec,) = _records(out)
        assert rec["command"] == "zeta"
        assert rec["value"]["re"] == pytest.approx(math.pi**2 / 3, rel=1e-12)
        assert rec["value"]["im"] == 0.0
        assert rec["abs_error"] >= 0
        assert "library_version" in rec

    def test_domain_error_exit(self, capsys):
        code, _ = _run(
            capsys,
            ["zeta", "--model", "1pqrm", "--n", "2", "--lambda", "-1.0"],
        )
        assert code == 2
        # The integral route stops at m = 3; m = 4 used to print the operator
        # route's value under the integral route's name.
        code, _ = _run(
            capsys,
            ["trace-term", "--family", "flat", "--route", "integral", "--m", "4",
             "--lambda", "1.2", "--g", "0.2", "--eps", "0.1"],
        )
        assert code == 2

    def test_radius_exceeded_exit(self, capsys):
        code, _ = _run(
            capsys,
            [
                "zeta", "--model", "1pqrm", "--n", "2", "--lambda", "0.6",
                "--delta", "0.8", "--eps", "0.1",
            ],
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--model", "ncho", "--alpha", "nan", "--beta", "1.2", "--eta", "0.1"],
            ["--model", "ncho", "--alpha", "inf", "--beta", "1.2", "--eta", "0.1"],
            ["--model", "bergman", "--nu", "inf"],
            ["--model", "1pqrm", "--lambda", "nan"],
            ["--model", "1pqrm", "--g", "nan"],
            ["--model", "1pqrm", "--lambda", "1.0", "--tol", "nan"],
        ],
    )
    def test_non_finite_input_exit(self, capsys, flags):
        # The ncho cases and --tol nan used to exit 0 with a value; --nu inf
        # and --lambda nan exited 1 with a traceback.
        code, out = _run(capsys, ["zeta", "--n", "2", *flags])
        assert code == 2 and out == ""

    @pytest.mark.parametrize("route", ["operator", "series"])
    @pytest.mark.parametrize("flag,value", [("--lambda", "nan"), ("--lambda", "inf"), ("--eps", "nan")])
    def test_non_finite_trace_term_exit(self, capsys, route, flag, value):
        # --lambda nan used to exit 1 with a ValueError from a pole guard.
        argv = ["trace-term", "--family", "flat", "--route", route, "--g", "0.2", flag, value]
        code, out = _run(capsys, argv)
        assert code == 2 and out == ""

    @pytest.mark.parametrize(
        "family,route",
        [("flat", "series"), ("plus", "series"), ("flat", "operator"), ("flat", "integral"),
         ("minus", "integral")],
    )
    def test_non_finite_coupling_trace_term_exit(self, capsys, family, route):
        # --g nan used to exit 3 after 2.9 s of J-terms (flat series) or
        # 0.9 s (plus series), and exit 2 only through a singular factorization
        # (operator) or a non-finite integrand (integral).
        argv = ["trace-term", "--family", family, "--route", route,
                "--lambda", "0.9", "--g", "nan", "--eps", "0.1"]
        code = run(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "domain error: g must be finite, got nan\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace-term", "--family", "plus", "--route", route, "--m", "1", "--lambda", "1.2",
             "--g", "400", "--eps", "0.1"]
            for route in ("integral", "operator", "series")
        ]
        + [
            ["zeta", "--model", "2pqrm", "--n", "2", "--lambda", "1.0", "--g", "400",
             "--delta", "0.01", "--eps", "0.1", "--method", method]
            for method in ("series_operator", "series_integral", "eigen_oracle")
        ]
        + [["zeta", "--model", "bergman", "--nu", "0.7", "--n", "2", "--lambda", "1.0",
            "--g", "400", "--delta", "0.01", "--eps", "0.1", "--method", "eigen_oracle"]],
    )
    def test_huge_coupling_exit(self, capsys, argv):
        # Beyond |g| = 355.2 cosh 2g overflows: every route of a Bergman
        # model or Psi family used to exit 1 with a bare OverflowError.
        code = run(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("domain error: g=400.0 is too large")

    @pytest.mark.parametrize("method", ["series_operator", "series_integral", "eigen_oracle"])
    @pytest.mark.parametrize("trunc_n,expected", [("8", 0), ("7", 2), ("4", 2), ("-4", 2)])
    def test_small_truncation(self, capsys, method, trunc_n, expected):
        # --trunc-n 8 factors 2 x 2 operators at N/4; every route refuses a
        # smaller cap with the one InvalidDimension message, the eigen route
        # too, although its own budget starts at 384 whatever the cap.
        code = run(
            [
                "zeta", "--model", "1pqrm", "--n", "2", "--lambda", "1.0",
                "--g", "0.2", "--delta", "0.3", "--eps", "0.1", "--trunc-n", trunc_n,
                "--method", method,
            ],
        )
        err = capsys.readouterr().err
        assert code == expected
        if expected:
            assert err == f"domain error: trunc_n must be >= 8, got {trunc_n}\n"

    @pytest.mark.parametrize("trunc_n,expected", [("8", 0), ("7", 2), ("-4", 2)])
    def test_small_operator_trace_term_truncation(self, capsys, trunc_n, expected):
        # The refusal names the truncation asked for, not a level of its ladder.
        code = run(
            [
                "trace-term", "--family", "flat", "--route", "operator", "--m", "2",
                "--lambda", "0.9", "--g", "0.2", "--eps", "0.1", "--trunc-n", trunc_n,
            ],
        )
        err = capsys.readouterr().err
        assert code == expected
        if expected:
            assert err == f"domain error: N must be >= 8, got {trunc_n}\n"

    def test_deterministic_output(self, capsys):
        argv = [
            "zeta", "--model", "2pqrm", "--n", "2", "--lambda", "1.0",
            "--g", "0.2", "--delta", "0.3", "--eps", "0.1",
            "--trunc-n", "200", "--tol", "1e-6",
        ]
        _, out1 = _run(capsys, argv)
        _, out2 = _run(capsys, argv)
        r1, r2 = _records(out1)[0], _records(out2)[0]
        assert r1["value"] == r2["value"]
        assert r1["per_m_terms"] == r2["per_m_terms"]

    def test_truncations_name_each_term(self, capsys):
        argv = [
            "zeta", "--model", "1pqrm", "--n", "2", "--lambda", "1.0",
            "--g", "0.2", "--delta", "0.3", "--eps", "0.1",
        ]
        # --trunc-n is a cap and "tops" lists the truncations tried: the
        # default tol is met at the start top, 1e-12 (with more m-terms) one
        # doubling later, and 1e-14 not even by the series tail, so the cap
        # is tried alone.
        for extra, tops in (([], [200]), (["--tol", "1e-12", "--max-m", "30"], [200, 400]),
                            (["--tol", "1e-14"], [400])):
            code, out = _run(capsys, argv + extra)
            assert code == 0
            (rec,) = _records(out)
            per_m = rec["truncations"]["per_m"]
            assert rec["truncations"]["trunc_n"] == 400
            assert len(per_m) == len(rec["per_m_terms"]) and per_m[0] == tops[-1]
            assert rec["truncations"]["tops"] == tops

    @pytest.mark.parametrize(
        "argv,converged,key,cause",
        [
            # NCHO capped at 200 misses the default tol.
            (["--model", "ncho", "--alpha", "2.0", "--beta", "1.2", "--eta", "0.1",
              "--lambda", "0.8", "--trunc-n", "200"], False, "warnings", "missed"),
            # The integral route hands m >= 3 to the operator oracle.
            (["--model", "1pqrm", "--g", "0.2", "--delta", "0.3", "--eps", "0.1",
              "--method", "series_integral"], True, "notes", "m3_delegated_to_operator"),
            # lambda 1e-5 from the excluded set.
            (["--model", "1pqrm", "--g", "0.1", "--lambda", "1e-5", "--tol", "1e-4",
              "--trunc-n", "100"], True, "warnings", "ill-conditioned"),
            # Coupling at 0.96 of the convergence radius.
            (["--model", "1pqrm", "--g", "0.2", "--delta", "0.48", "--eps", "0.1",
              "--lambda", "0.6", "--trunc-n", "200"], False, "warnings", "SlowConvergence"),
        ],
    )
    def test_diagnostics_name_the_cause(self, capsys, argv, converged, key, cause):
        code, out = _run(capsys, ["zeta", "--n", "2", *argv])
        assert code == 0
        (rec,) = _records(out)
        diagnostics = rec["diagnostics"]
        assert set(diagnostics) == {"converged", "warnings", "notes", "m_used", "tail_bound"}
        assert diagnostics["converged"] is converged
        assert diagnostics["m_used"] == len(rec["per_m_terms"])
        assert 0 <= diagnostics["tail_bound"] <= rec["abs_error"]
        assert any(cause in line for line in diagnostics[key])

    def test_parity_difference(self, capsys):
        code, out = _run(
            capsys,
            [
                "zeta", "--model", "2pqrm", "--n", "2", "--lambda", "1.0",
                "--eps", "0.1", "--parity-difference",
            ],
        )
        assert code == 0
        (rec,) = _records(out)
        # alternating Hurwitz pair at 1.6 and 1.4
        eta = sum(
            sum((-1) ** k / (k + a) ** 2 for k in range(200000)) for a in (1.6, 1.4)
        )
        assert rec["value"]["re"] == pytest.approx(eta, abs=1e-8)


class TestTraceTerm:
    def test_routes_agree(self, capsys):
        base = [
            "trace-term", "--family", "flat", "--m", "1", "--lambda", "0.9",
            "--g", "0.2", "--eps", "0.1", "--trunc-n", "800",
        ]
        _, out_i = _run(capsys, base + ["--route", "integral"])
        _, out_o = _run(capsys, base + ["--route", "operator"])
        _, out_s = _run(capsys, base + ["--route", "series"])
        vi = _records(out_i)[0]["value"]["re"]
        vo = _records(out_o)[0]["value"]["re"]
        vs = _records(out_s)[0]["value"]["re"]
        assert abs(vi - vo) < 1e-5
        assert abs(vs - vo) < 1e-6
        for out in (out_i, out_o, out_s):
            assert _records(out)[0]["diagnostics"] == {"converged": True, "warnings": []}

    def test_uncalibrated_truncation_is_not_converged(self, capsys):
        code, out = _run(capsys, [
            "trace-term", "--family", "flat", "--route", "operator", "--m", "2",
            "--lambda", "0.9", "--g", "0.2", "--eps", "0.1", "--trunc-n", "40",
        ])
        assert code == 0
        (rec,) = _records(out)
        assert rec["truncations"] == {"terms_used": 40}
        assert rec["diagnostics"] == {
            "converged": False,
            "warnings": ["operator truncation N=40 is below 44: no calibrated bar"],
        }


class TestApery:
    def test_classic_strings(self, capsys):
        code, out = _run(capsys, ["apery", "--family", "classic", "--n-max", "3"])
        assert code == 0
        (rec,) = _records(out)
        assert rec["a_list"] == ["1", "3", "19", "147"]
        assert rec["b_list"][0] == "0"
        assert rec["b_list"][1] == "5"

    def test_flat_exact(self, capsys):
        code, out = _run(
            capsys,
            [
                "apery", "--family", "flat", "--n", "2", "--lambda", "0.9",
                "--eps", "0.13", "--exact",
            ],
        )
        assert code == 0
        (rec,) = _records(out)
        assert "/" in rec["a"] or rec["a"].lstrip("-").isdigit()

    @pytest.mark.parametrize(
        "argv",
        [
            # the default lam = 1.0 zeroes a Pochhammer factor a B form divides out
            ["--family", "flat", "--n", "2", "--eps", "0.13"],
            ["--family", "plus", "--n", "3", "--eps", "0.13"],
            # even n near eps = 0, where the Pochhammer-ratio A loses digits
            ["--family", "plus", "--n", "2", "--lambda", "1.3", "--eps", "1e-7"],
        ],
    )
    def test_removable_points_are_finite(self, capsys, argv):
        code, out = _run(capsys, ["apery", *argv])
        assert code == 0
        (rec,) = _records(out)
        for key in ("a", "b"):
            assert math.isfinite(rec[key]["re"]) and math.isfinite(rec[key]["im"])

    def test_float_cancellation_exits_3(self, capsys):
        argv = ["apery", "--family", "flat", "--n", "30", "--lambda", "0.9", "--eps", "0.13"]
        code, out = _run(capsys, argv)
        assert (code, out) == (3, "")
        code, out = _run(capsys, argv + ["--exact"])
        assert code == 0

    @pytest.mark.parametrize(
        "family,n",
        # n! > 1.8e308 from n = 171 on; at n = 200 the delta forms are inf / inf
        [("flat", "200"), ("plus", "171"), ("plus", "200")],
    )
    def test_float_overflow_exits_3(self, capsys, family, n):
        argv = ["apery", "--family", family, "--n", n, "--lambda", "0.9", "--eps", "0.13"]
        code, out = _run(capsys, argv)
        assert (code, out) == (3, "")

    @pytest.mark.parametrize("family,n,lam", [("flat", "40", "1e9"), ("plus", "60", "1e7")])
    def test_exact_beyond_the_float_range(self, capsys, family, n, lam):
        # A and B are exact Fractions far past 1.8e308; the record's float
        # value reads "inf" instead of raising.
        argv = ["apery", "--family", family, "--n", n, "--lambda", lam, "--eps", "0.13"]
        code, out = _run(capsys, argv + ["--exact"])
        assert code == 0
        (rec,) = _records(out)
        a, b = Fraction(rec["a"]), Fraction(rec["b"])
        assert abs(a) > 1e308 and b.denominator > 1
        assert rec["value"]["re"] == ("inf" if a > 0 else "-inf")

    def test_flat_exact_at_the_classical_point(self, capsys):
        # lam = n + 1, eps = 0: A_2 = 19 and A_2 (1 + 1/4) - B_2 = -15/2.
        code, out = _run(
            capsys,
            [
                "apery", "--family", "flat", "--n", "2", "--lambda", "3",
                "--eps", "0", "--exact",
            ],
        )
        assert code == 0
        (rec,) = _records(out)
        assert rec["a"] == "19"
        assert rec["b"] == "-15/2"

    @pytest.mark.parametrize("family", ["flat", "plus", "minus"])
    @pytest.mark.parametrize("flags", [["--lambda", "nan", "--eps", "0.1"],
                                       ["--lambda", "1.2", "--eps", "inf"]])
    def test_non_finite_input_exit(self, capsys, family, flags):
        # --lambda nan used to exit 3 as a float overflow.
        code, out = _run(capsys, ["apery", "--family", family, "--n", "2", *flags])
        assert code == 2 and out == ""

    def test_exact_rejects_complex_lambda(self, capsys):
        code, out = _run(
            capsys,
            [
                "apery", "--family", "plus", "--n", "2", "--lambda", "1.5,0.5",
                "--eps", "0.1", "--exact",
            ],
        )
        assert code == 64
        assert out == ""


class TestBeukers:
    def test_residuals_small(self, capsys):
        code, out = _run(capsys, ["beukers", "--n-max", "4"])
        assert code == 0
        recs = _records(out)
        assert len(recs) == 5  # rows for n = 0 .. n_max
        for rec in recs:
            assert rec["value"]["re"] < 1e-9

    @pytest.mark.parametrize("n_max", ["-1", "13"])
    def test_n_max_outside_the_range_exits_2(self, capsys, n_max):
        # -1 used to exit 0 with no record; 13 computed n = 0..12 first.
        code, out = _run(capsys, ["beukers", "--n-max", n_max])
        assert code == 2 and out == ""


class TestValidate:
    def test_negative_seed_is_a_usage_error(self, capsys):
        # -1 used to exit 1 with a traceback from the Philox generator.
        code, out = _run(capsys, ["validate", "--seed", "-1"])
        assert code == 64 and out == ""


class TestConfluence:
    def test_decoupled_scan(self, capsys):
        code, out = _run(
            capsys,
            [
                "confluence", "--g", "0", "--delta", "0", "--eps", "0.1",
                "--lambda", "1.0", "--nu-list", "1,2", "--trunc-n", "100",
            ],
        )
        assert code == 0
        recs = _records(out)
        assert len(recs) == 2
        for rec in recs:
            assert rec["deviation"] < 1e-10

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_exit_2(self, capsys, threads):
        code, out = _run(capsys, ["--threads", threads, "confluence", "--nu-list", "8"])
        assert code == 2 and out == ""

    @pytest.mark.parametrize("nu_list", ["8,0", "8,-1", "8,inf", "8,nan"])
    def test_bad_nu_is_a_domain_error(self, capsys, nu_list):
        # "8,0" used to exit 1 with ZeroDivisionError, "8,-1" with ValueError.
        code, out = _run(
            capsys,
            ["confluence", "--g", "0.2", "--delta", "0.1", "--eps", "0.05",
             "--lambda", "1.5", "--nu-list", nu_list],
        )
        assert code == 2 and out == ""


class TestCsv:
    def test_header_and_row(self, capsys):
        code, out = _run(
            capsys,
            [
                "--format", "csv",
                "zeta", "--model", "1pqrm", "--n", "2", "--lambda", "1.0",
            ],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "command,value_re,value_im,abs_error,method,runtime_ms,params"
        assert lines[1].startswith("zeta,")
        assert float(lines[1].split(",")[1]) == pytest.approx(math.pi**2 / 3)


class TestOneParser:
    # run() parses with the one parser built at import; a call must leave
    # nothing in it that the next call could read.
    _SEQUENCE = [
        ["zeta", "--model", "2pqrm", "--n", "2", "--lambda", "1.0", "--g", "0.2",
         "--delta", "0.3", "--eps", "0.1", "--parity-difference"],
        ["zeta", "--model", "2pqrm", "--n", "2", "--lambda", "1.0", "--g", "0.2",
         "--delta", "0.3", "--eps", "0.1"],
        ["--format", "csv", "trace-term", "--family", "flat", "--route", "series",
         "--lambda", "0.9", "--g", "0.2", "--eps", "0.1"],
        ["confluence", "--g", "0.2", "--delta", "0.1", "--eps", "0.05", "--lambda", "1.5",
         "--trunc-n", "100"],
        ["zeta", "--model", "1pqrm"],
        ["zeta", "--model", "1pqrm", "--n", "3", "--lambda", "1.2", "--g", "0.2",
         "--delta", "0.3", "--eps", "0.05"],
    ]

    @staticmethod
    def _outcome(capsys, argv):
        """(exit code, records without their runtimes, standard error)."""
        code = run(argv)
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        if lines and lines[0].startswith("command,"):
            records = [line.split(",")[:5] + line.split(",")[6:] for line in lines]
        else:
            records = [{k: v for k, v in rec.items() if k != "runtime_ms"}
                       for rec in _records(captured.out)]
        return code, records, captured.err

    def test_run_builds_no_parser(self, capsys, monkeypatch):
        built = []
        make_parser = cli._make_parser
        monkeypatch.setattr(cli, "_make_parser", lambda: built.append(1) or make_parser())
        for argv in self._SEQUENCE[:3]:
            run(argv)
        capsys.readouterr()
        assert built == []

    def test_a_sequence_in_one_process_matches_each_call_alone(self, capsys, monkeypatch):
        shared = [self._outcome(capsys, argv) for argv in self._SEQUENCE]
        assert [code for code, _, _ in shared] == [0, 0, 0, 0, 64, 0]
        for argv, got in zip(self._SEQUENCE, shared):
            monkeypatch.setattr(cli, "_PARSER", cli._make_parser())
            assert self._outcome(capsys, argv) == got, argv
