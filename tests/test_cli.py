import json
import math

import pytest

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

    def test_bad_threads_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("RABI_ZETA_THREADS", "two")
        code, _ = _run(capsys, ["beukers", "--n-max", "1"])
        assert code == 64


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

    def test_radius_exceeded_exit(self, capsys):
        code, _ = _run(
            capsys,
            [
                "zeta", "--model", "1pqrm", "--n", "2", "--lambda", "0.6",
                "--delta", "0.8", "--eps", "0.1",
            ],
        )
        assert code == 2

    @pytest.mark.parametrize("trunc_n,expected", [("8", 0), ("4", 2)])
    def test_small_truncation(self, capsys, trunc_n, expected):
        # --trunc-n 8 factors 2 x 2 operators at N/4; --trunc-n 4 needs a
        # 1 x 1 truncation, which InvalidDimension refuses.
        code, _ = _run(
            capsys,
            [
                "zeta", "--model", "1pqrm", "--n", "2", "--lambda", "1.0",
                "--g", "0.2", "--delta", "0.3", "--eps", "0.1", "--trunc-n", trunc_n,
            ],
        )
        assert code == expected

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
