import csv
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from smoothgreed import cli


def run_cli(args):
    return cli.main(args)


@pytest.fixture
def cap_descriptor(tmp_path):
    p = tmp_path / "cap.json"
    p.write_text(json.dumps({"kind": "cap", "params": {"scale": 1.0}}))
    return str(p)


class TestDesignCommand:
    def test_adwords_design(self, tmp_path, cap_descriptor):
        out = str(tmp_path / "design")
        rc = run_cli(["design", "--objective", cap_descriptor, "--horizon", "1.0",
                      "--grid", "500", "--plateau", "--out", out])
        assert rc == 0
        summary = json.loads(Path(out + ".json").read_text())
        assert summary["beta"] == pytest.approx(math.e / (math.e - 1), abs=2e-3)
        with open(out + ".csv") as fh:
            first = fh.readline()
            assert first.startswith("#")             # provenance comment
            header = fh.readline().strip().split(",")
            assert header == ["u", "y", "psi", "psiS", "beta_u"]
            rows = list(csv.reader(fh))
            assert len(rows) == 501

    def test_linear_design(self, tmp_path):
        p = tmp_path / "lin.json"
        p.write_text(json.dumps({"kind": "linear", "params": {"slope": 1.0}}))
        out = str(tmp_path / "lin_design")
        rc = run_cli(["design", "--objective", str(p), "--horizon", "2.0",
                      "--grid", "100", "--out", out])
        assert rc == 0
        assert json.loads(Path(out + ".json").read_text())["beta"] == pytest.approx(1.0, abs=1e-6)

    def test_bad_objective_file(self, tmp_path):
        rc = run_cli(["design", "--objective", str(tmp_path / "missing.json"),
                      "--horizon", "1.0", "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_BAD_INPUT

    def test_config_below_flags(self, tmp_path, cap_descriptor):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"horizon": 1.0, "grid": 300, "plateau": True}))
        out = str(tmp_path / "cfg_design")
        assert run_cli(["design", "--config", str(cfg), "--objective",
                        cap_descriptor, "--out", out]) == 0
        assert json.loads(Path(out + ".json").read_text())["d"] == 300
        out2 = str(tmp_path / "cfg_design2")
        assert run_cli(["design", "--config", str(cfg), "--objective",
                        cap_descriptor, "--grid", "150", "--out", out2]) == 0
        assert json.loads(Path(out2 + ".json").read_text())["d"] == 150


    def test_invalid_spec_exit_code(self, tmp_path, cap_descriptor, capsys):
        # rejected before any greedy pass, naming the field, with no output
        base = ["design", "--objective", cap_descriptor, "--horizon", "1.0",
                "--grid", "100", "--out", str(tmp_path / "x")]
        for extra, field in ((["--horizon", "inf"], "u_end"), (["--horizon", "nan"], "u_end"),
                             (["--c", "nan", "--variant", "seq"], "c"),
                             (["--beta-tol", "inf"], "beta_tol")):
            capsys.readouterr()
            assert run_cli(base + extra) == cli.EXIT_BAD_INPUT, extra
            captured = capsys.readouterr()
            assert captured.out == "" and field in captured.err, (extra, captured.err)
        # a fractional grid from a config file (argparse types only the flags)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": 100.5}))
        assert run_cli(["design", "--config", str(cfg), "--objective", cap_descriptor,
                        "--horizon", "1.0", "--out", str(tmp_path / "x")]) == cli.EXIT_BAD_INPUT
        assert capsys.readouterr().out == ""


    def test_usage_error_exit_code(self, tmp_path, cap_descriptor, capsys):
        # argparse's own exit code 2 is the breach code; usage errors are bad input
        argv = ["design", "--objective", cap_descriptor, "--horizon", "1.0",
                "--out", str(tmp_path / "x")]
        for extra in (["--grid", "abc"], ["--variant", "both"], ["--no-such-flag"]):
            capsys.readouterr()
            assert run_cli(argv + extra) == cli.EXIT_BAD_INPUT, extra
            assert capsys.readouterr().out == ""
        assert run_cli([]) == cli.EXIT_BAD_INPUT
        with pytest.raises(SystemExit) as exc:
            run_cli(["design", "--help"])
        assert exc.value.code == 0


class TestRunCertify:
    def test_adwords_run_and_certify(self, tmp_path):
        inst = str(tmp_path / "inst.json")
        assert run_cli(["gen", "--family", "adwords_triangular", "--n", "4",
                        "--phase-len", "2", "--out", inst]) == 0
        out = str(tmp_path / "run")
        assert run_cli(["certify", "--instance", inst, "--algo", "sim",
                        "--out", out]) == 0
        summary = json.loads(Path(out + ".json").read_text())
        assert summary["certificate_ok"] and summary["gap_ok"]
        assert summary["true_ratio"] == pytest.approx(0.5, abs=1e-12)
        lines = Path(out + ".jsonl").read_text().strip().splitlines()
        assert len(lines) == 8
        rec = json.loads(lines[0])
        assert set(rec) == {"t", "x", "sigma", "inner", "gain"}

    def test_smoothed_run_reaches_better_ratio(self, tmp_path):
        inst = str(tmp_path / "inst.json")
        run_cli(["gen", "--family", "adwords_triangular", "--n", "6",
                 "--phase-len", "4", "--out", inst])
        out = str(tmp_path / "smoothed")
        assert run_cli(["certify", "--instance", inst, "--algo", "sim",
                        "--smoothing", "closed_form", "--out", out]) == 0
        summary = json.loads(Path(out + ".json").read_text())
        assert summary["true_ratio"] >= 0.6

    def test_design_file_feeds_run(self, tmp_path, cap_descriptor):
        design_out = str(tmp_path / "d")
        run_cli(["design", "--objective", cap_descriptor, "--horizon", "1.0",
                 "--grid", "400", "--plateau", "--out", design_out])
        inst = str(tmp_path / "inst.json")
        run_cli(["gen", "--family", "adwords_triangular", "--n", "5",
                 "--phase-len", "3", "--out", inst])
        assert run_cli(["certify", "--instance", inst, "--algo", "sim",
                        "--smoothing", design_out + ".json"]) == 0

    def test_custom_objective_descriptor(self, tmp_path):
        inst = str(tmp_path / "inst.json")
        run_cli(["gen", "--family", "adwords_triangular", "--n", "3",
                 "--phase-len", "2", "--out", inst])
        coord = tmp_path / "log.json"
        coord.write_text(json.dumps({"kind": "log1p", "params": {}}))
        out = str(tmp_path / "custom")
        assert run_cli(["certify", "--instance", inst, "--algo", "sim",
                        "--objective", str(coord), "--out", out]) == 0
        assert json.loads(Path(out + ".json").read_text())["gap_ok"]

    def test_lp_and_logdet_families(self, tmp_path):
        lp = str(tmp_path / "lp.json")
        run_cli(["gen", "--family", "lp_random", "--n", "3", "--m", "10",
                 "--k", "2", "--seed", "1", "--out", lp])
        assert run_cli(["certify", "--instance", lp, "--algo", "sim"]) == 0
        ld = str(tmp_path / "ld.json")
        run_cli(["gen", "--family", "logdet_stream", "--n", "3", "--m", "8",
                 "--b", "2.0", "--seed", "1", "--out", ld])
        assert run_cli(["certify", "--instance", ld, "--algo", "sim",
                        "--smoothing", "nesterov"]) == 0

    def test_breach_exit_code(self, tmp_path, monkeypatch):
        # force a failing report through the certify path
        from smoothgreed.online import CertificateReport

        def fake_certify(trace, obj, steps, tol=1e-9):
            return CertificateReport(0.1, 0.5, 0.5, False, False, True, 1.0, 10.0, 0.0)

        monkeypatch.setattr(cli, "certify", fake_certify)
        inst = str(tmp_path / "inst.json")
        run_cli(["gen", "--family", "adwords_triangular", "--n", "2",
                 "--phase-len", "1", "--out", inst])
        assert run_cli(["certify", "--instance", inst]) == cli.EXIT_CERT_BREACH
        assert run_cli(["run", "--instance", inst]) == 0  # run only reports

    def test_bad_instance_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["certify", "--instance", str(bad)]) == cli.EXIT_BAD_INPUT
        # a NaN bid and a map shorter than the objective are rejected before
        # any computation, without printing a summary
        inst = tmp_path / "inst.json"
        run_cli(["gen", "--family", "adwords_triangular", "--n", "3",
                 "--phase-len", "2", "--out", str(inst)])
        for edit in (lambda a: a.__setitem__(0, math.nan), lambda a: a.pop()):
            d = json.loads(inst.read_text())
            edit(d["steps"][1]["A"]["a"])
            bad.write_text(json.dumps(d))
            capsys.readouterr()
            assert run_cli(["certify", "--instance", str(bad)]) == cli.EXIT_BAD_INPUT
            assert capsys.readouterr().out == ""
        # diagonal allocation steps in a packing instance: wrong map kind
        lp = tmp_path / "lp.json"
        run_cli(["gen", "--family", "lp_random", "--n", "3", "--out", str(lp)])
        d = json.loads(lp.read_text())
        d["steps"] = json.loads(inst.read_text())["steps"]
        bad.write_text(json.dumps(d))
        capsys.readouterr()
        assert run_cli(["certify", "--instance", str(bad)]) == cli.EXIT_BAD_INPUT
        assert capsys.readouterr().out == ""


    def test_nonfinite_objective_parameters_exit_code(self, tmp_path, capsys):
        # a NaN slope passes a plain comparison (nan <= l_floor is False), so the
        # fields are checked for finiteness by name, with or without smoothing
        ld, lp, bad = tmp_path / "ld.json", tmp_path / "lp.json", tmp_path / "bad.json"
        run_cli(["gen", "--family", "logdet_stream", "--n", "3", "--m", "8",
                 "--b", "2.0", "--seed", "1", "--out", str(ld)])
        run_cli(["gen", "--family", "lp_random", "--n", "3", "--m", "10", "--k", "1",
                 "--seed", "1", "--out", str(lp)])
        cases = ((ld, ("extras", "l"), math.nan, "l"), (ld, ("extras", "l"), math.inf, "l"),
                 (ld, ("params", "b"), math.nan, "b"), (ld, ("params", "b"), -1.0, "b"),
                 (lp, ("extras", "l"), math.nan, "l"), (lp, ("extras", "theta"), math.inf, "theta"),
                 (lp, ("extras", "theta"), 0.0, "theta"))
        for src, (part, key), value, field in cases:
            for smoothing in ([], ["--smoothing", "nesterov"]):
                d = json.loads(src.read_text())
                d[part][key] = value
                bad.write_text(json.dumps(d))
                capsys.readouterr()
                rc = run_cli(["certify", "--instance", str(bad), "--algo", "sim"] + smoothing)
                captured = capsys.readouterr()
                assert rc == cli.EXIT_BAD_INPUT, (key, value, smoothing)
                assert captured.out == "" and f"{field} must be finite" in captured.err
        d = json.loads(ld.read_text())
        d["extras"]["A0"][0][1] = math.nan
        bad.write_text(json.dumps(d))
        capsys.readouterr()
        assert run_cli(["certify", "--instance", str(bad)]) == cli.EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and "A0 entries must be finite" in captured.err

    def test_theta_must_match_steps(self, tmp_path, capsys):
        # theta sets the packing floor 1/(1 + l/theta): an edited file's theta
        # would report a false breach (too large) or a vacuous floor (too small)
        lp, bad = tmp_path / "lp.json", tmp_path / "bad.json"
        run_cli(["gen", "--family", "lp_random", "--n", "3", "--m", "10", "--k", "1",
                 "--seed", "1", "--out", str(lp)])
        assert run_cli(["certify", "--instance", str(lp), "--algo", "sim"]) == cli.EXIT_OK
        for theta in (1e6, 1e-6):
            d = json.loads(lp.read_text())
            d["extras"]["theta"] = theta
            bad.write_text(json.dumps(d))
            capsys.readouterr()
            rc = run_cli(["certify", "--instance", str(bad), "--algo", "sim"])
            captured = capsys.readouterr()
            assert rc == cli.EXIT_BAD_INPUT, theta
            assert captured.out == "" and "extras.theta" in captured.err

    def test_solver_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        # a rank-one update leaving the cone or a failed step LP is bad input,
        # reported without a traceback or a summary
        inst = str(tmp_path / "inst.json")
        run_cli(["gen", "--family", "adwords_triangular", "--n", "2",
                 "--phase-len", "1", "--out", inst])
        for error in (FloatingPointError("LogDetState: update would leave the PSD cone"),
                      RuntimeError("packing step LP failed: infeasible")):
            def failing_run(obj, steps, keep_records=True, error=error):
                raise error

            monkeypatch.setattr(cli, "run_simultaneous", failing_run)
            capsys.readouterr()
            assert run_cli(["certify", "--instance", inst]) == cli.EXIT_BAD_INPUT
            captured = capsys.readouterr()
            assert captured.out == "" and str(error) in captured.err


class TestSweep:
    def test_sweep_csv(self, tmp_path):
        out = str(tmp_path / "sweep.csv")
        os.environ["SMOOTHGREED_THREADS"] = "1"
        try:
            rc = run_cli(["sweep", "--n-list", "1,4", "--phase-list", "1,3",
                          "--out", out])
        finally:
            del os.environ["SMOOTHGREED_THREADS"]
        assert rc == 0
        lines = Path(out).read_text().strip().splitlines()
        assert lines[0].startswith("# smoothgreed")
        assert lines[1] == "n,phase_len,true_ratio,ratio_lb"
        rows = {tuple(map(int, ln.split(",")[:2])): float(ln.split(",")[2])
                for ln in lines[2:]}
        assert rows[(1, 1)] == pytest.approx(1.0)      # single budget: greedy exact
        assert rows[(4, 3)] == pytest.approx(0.5)

    def test_smoothed_sequential_trend(self, tmp_path):
        # the sequential engine approaches its limit from below as the
        # bid-to-budget ratio shrinks
        from smoothgreed.cli import _sweep_one
        ratios = [_sweep_one((12, p, "seq", True))[2] for p in (1, 4, 16)]
        assert ratios[0] <= ratios[1] <= ratios[2]
        assert ratios[2] >= 0.62


class TestFigures:
    def test_curves_monotone_and_bounded(self, tmp_path):
        out = str(tmp_path / "figs")
        for which, quick in (("1e", ["--points", "4", "--grid-h", "0.25"]),
                             ("2a", ["--points", "4", "--d-plateau", "300"])):
            rc = run_cli(["figures", "--which", which, "--out", out] + quick)
            assert rc == 0
            lines = Path(os.path.join(out, f"figure_{which}.csv")).read_text().strip().splitlines()
            ratios = [float(ln.split(",")[2]) for ln in lines[2:]]
            assert all(0.0 < r <= 1.0 for r in ratios)
            for a, b in zip(ratios, ratios[1:]):
                assert b <= a + 1e-4
