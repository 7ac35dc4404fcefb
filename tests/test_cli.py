import base64
import csv
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from smoothgreed import cli
from smoothgreed.instances import gen_logdet_stream
from smoothgreed.objectives import decode_array
from smoothgreed.online import StepRecord

from oracles import records_jsonl


def run_cli(args):
    return cli.main(args)


def _blob(a):
    """An array's v3 blob, written without encode_array's finiteness check."""
    a = np.asarray(a, dtype="<f8")
    return {"shape": list(a.shape), "f64": base64.b64encode(a.tobytes()).decode("ascii")}


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

    def test_beta_tol_below_float_spacing(self, tmp_path, cap_descriptor):
        out = str(tmp_path / "tight")
        rc = run_cli(["design", "--objective", cap_descriptor, "--horizon", "1", "--grid", "20",
                      "--plateau", "--beta-tol", "1e-300", "--out", out])
        assert rc == 0
        assert json.loads(Path(out + ".json").read_text())["certified"]

    def test_bad_objective_file(self, tmp_path):
        rc = run_cli(["design", "--objective", str(tmp_path / "missing.json"),
                      "--horizon", "1.0", "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_BAD_INPUT

    def test_bad_catalog_parameters_exit_code(self, tmp_path, capsys):
        # a JSON true is not a scale of 1, and NaN or inf pieces are no function
        inst, desc = str(tmp_path / "inst.json"), tmp_path / "f.json"
        run_cli(["gen", "--family", "adwords_triangular", "--n", "3", "--phase-len", "2",
                 "--out", inst])
        pl = lambda b, s: {"kind": "piecewise_linear", "params": {"breakpoints": b, "slopes": s}}
        cases = [({"kind": "cap", "params": {"scale": v}}, "cap: scale") for v in (True, math.nan)]
        cases += [({"kind": "linear", "params": {"slope": math.nan}}, "linear: slope"),
                  (pl([math.nan], [1.0, 0.5]), "piecewise_linear: breakpoints"),
                  (pl([0.5], [math.inf, 0.5]), "piecewise_linear: slopes"),
                  (pl([0.5], [True, 0.5]), "piecewise_linear: slopes")]
        for d, message in cases:
            desc.write_text(json.dumps(d))
            for argv in (["design", "--objective", str(desc), "--horizon", "1.0", "--grid", "50",
                          "--out", str(tmp_path / "d")],
                         ["certify", "--instance", inst, "--objective", str(desc)]):
                capsys.readouterr()
                assert run_cli(argv) == cli.EXIT_BAD_INPUT, (d, argv[0])
                captured = capsys.readouterr()
                assert captured.out == "" and message in captured.err, (d, argv[0])

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

    def test_no_true_ratio_under_another_objective(self, tmp_path, capsys):
        # the adversary's offline optimum n is the cap's; log1p has another
        inst = str(tmp_path / "inst.json")
        run_cli(["gen", "--family", "adwords_triangular", "--n", "10",
                 "--phase-len", "3", "--out", inst])
        coord = tmp_path / "log1p.json"
        coord.write_text(json.dumps({"kind": "log1p"}))
        out = str(tmp_path / "log1p_run")
        capsys.readouterr()
        assert run_cli(["certify", "--instance", inst, "--algo", "sim",
                        "--objective", str(coord), "--out", out]) == 0
        printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        summary = json.loads(Path(out + ".json").read_text())
        assert "true_ratio" not in printed and "true_ratio" not in summary
        assert printed["ratio_lb"] == summary["ratio_lb"] > 0.5

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

    @pytest.mark.parametrize("gen", [
        ["--family", "adwords_triangular", "--n", "4", "--phase-len", "3"],
        ["--family", "lp_random", "--n", "3", "--m", "10", "--k", "2", "--seed", "1"],
        ["--family", "logdet_stream", "--n", "3", "--m", "8", "--b", "2.0", "--seed", "1"],
    ], ids=lambda gen: gen[1])
    def test_closed_form_and_nesterov_are_one_smoothing(self, tmp_path, gen):
        inst = str(tmp_path / "inst.json")
        assert run_cli(["gen", *gen, "--out", inst]) == 0
        summaries = []
        for name in ("closed_form", "nesterov"):
            out = str(tmp_path / name)
            assert run_cli(["certify", "--instance", inst, "--algo", "sim",
                            "--smoothing", name, "--out", out]) == cli.EXIT_OK, name
            summaries.append(Path(out + ".json").read_bytes())
        assert summaries[0] == summaries[1]

    def test_design_file_on_packing_exit_code(self, tmp_path, cap_descriptor, capsys):
        lp, design = str(tmp_path / "lp.json"), str(tmp_path / "d")
        run_cli(["gen", "--family", "lp_random", "--n", "3", "--m", "10", "--k", "2",
                 "--seed", "1", "--out", lp])
        run_cli(["design", "--objective", cap_descriptor, "--horizon", "1.0", "--grid", "50",
                 "--plateau", "--out", design])
        capsys.readouterr()
        rc = run_cli(["certify", "--instance", lp, "--smoothing", design + ".json"])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_BAD_INPUT
        assert captured.out == "" and "closed_form" in captured.err, captured.err

    @pytest.mark.parametrize("exists", [True, False], ids=["file", "missing"])
    @pytest.mark.parametrize("gen", [
        ["--family", "lp_random", "--n", "3", "--m", "10", "--k", "2", "--seed", "1"],
        ["--family", "logdet_stream", "--n", "3", "--m", "8", "--b", "2.0", "--seed", "1"],
    ], ids=lambda gen: gen[1])
    def test_objective_on_packing_or_logdet_exit_code(self, tmp_path, cap_descriptor, capsys,
                                                      gen, exists):
        # an --objective replaces the allocation reward only: elsewhere it is
        # refused before the run, whether or not the file exists
        inst, runs = str(tmp_path / "inst.json"), tmp_path / "runs"
        assert run_cli(["gen", *gen, "--out", inst]) == 0
        runs.mkdir()
        objective = cap_descriptor if exists else str(tmp_path / "nonexistent.json")
        for command in ("run", "certify"):
            capsys.readouterr()
            rc = run_cli([command, "--instance", inst, "--objective", objective,
                          "--out", str(runs / command)])
            captured = capsys.readouterr()
            assert rc == cli.EXIT_BAD_INPUT, command
            assert captured.out == "" and "--objective" in captured.err, captured.err
        assert list(runs.iterdir()) == []

    def test_breach_exit_code(self, tmp_path, monkeypatch):
        # force a failing report through the certify path
        from smoothgreed.online import CertificateReport

        def fake_certify(trace, obj, steps):
            return CertificateReport(0.1, 0.5, 0.5, False, False)

        monkeypatch.setattr(cli, "certify", fake_certify)
        inst = str(tmp_path / "inst.json")
        run_cli(["gen", "--family", "adwords_triangular", "--n", "2",
                 "--phase-len", "1", "--out", inst])
        assert run_cli(["certify", "--instance", inst]) == cli.EXIT_CERT_BREACH
        assert run_cli(["run", "--instance", inst]) == 0  # run only reports

    def test_real_breach_names_the_floor(self, tmp_path, monkeypatch, capsys):
        # the unsmoothed log-det floor 0.5 is a placeholder that this run
        # misses while its identity holds; the nesterov smoothing passes both
        reports, certify = [], cli.certify

        def recorded(*args):
            reports.append(certify(*args))
            return reports[-1]

        monkeypatch.setattr(cli, "certify", recorded)
        ld = str(tmp_path / "ld.json")
        run_cli(["gen", "--family", "logdet_stream", "--n", "3", "--m", "8",
                 "--b", "2.0", "--seed", "1", "--out", ld])
        capsys.readouterr()
        for extra, rc, err in (
                ([], cli.EXIT_CERT_BREACH,
                 "certificate breach: floor: ratio_lb 0.2472 < floor 0.5 by 0.2528\n"),
                (["--smoothing", "nesterov"], cli.EXIT_OK, "")):
            assert run_cli(["certify", "--instance", ld, "--algo", "sim", *extra]) == rc, extra
            captured = capsys.readouterr()
            printed = json.loads(captured.out)
            assert printed["certificate_ok"] is (rc == cli.EXIT_OK) and captured.err == err, extra
            # gap_ok is certify's identity verdict
            assert printed["gap_ok"] is reports[-1].identity_ok is True, extra

    def test_bad_instance_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["certify", "--instance", str(bad)]) == cli.EXIT_BAD_INPUT
        # a NaN bid and a map shorter than the objective are rejected before
        # any computation, without printing a summary
        inst = tmp_path / "inst.json"
        run_cli(["gen", "--family", "adwords_triangular", "--n", "3",
                 "--phase-len", "2", "--out", str(inst)])
        # each written as a base64 blob and as a v2 decimal list
        nan_first = lambda a: np.where(np.arange(a.size) == 0, math.nan, a)
        for form in (_blob, lambda a: a.tolist()):
            for edit in (nan_first, lambda a: a[:-1]):
                d = json.loads(inst.read_text())
                d["steps"][1]["A"]["a"] = form(edit(decode_array(d["steps"][1]["A"]["a"])))
                bad.write_text(json.dumps(d))
                capsys.readouterr()
                assert run_cli(["certify", "--instance", str(bad)]) == cli.EXIT_BAD_INPUT
                captured = capsys.readouterr()
                assert captured.out == "" and "step 3" in captured.err, captured.err
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
                 (ld, ("params", "b"), True, "b"),     # a JSON true is not a budget of 1
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

    def test_design_beta_is_verified(self, tmp_path, cap_descriptor, capsys):
        # the design file's beta sets the floor 1/beta: it is re-verified on the
        # coordinate actually run, and a mismatch is bad input naming beta
        inst, design = str(tmp_path / "inst.json"), str(tmp_path / "d")
        run_cli(["gen", "--family", "adwords_triangular", "--n", "20", "--phase-len", "5",
                 "--out", inst])
        run_cli(["design", "--objective", cap_descriptor, "--horizon", "1.0", "--grid", "200",
                 "--plateau", "--out", design])
        good = json.loads(Path(design + ".json").read_text())
        assert good["beta"] == pytest.approx(1.5835, abs=1e-4)
        argv = ["certify", "--instance", inst, "--algo", "sim", "--smoothing"]
        assert run_cli(argv + [design + ".json"]) == cli.EXIT_OK
        assert run_cli(argv + [design + ".json", "--objective", cap_descriptor]) == cli.EXIT_OK
        bad = tmp_path / "bad.json"
        for beta in (1.0, 1e9, math.nan, math.inf, "x", good["beta"] * (1 + 1e-8)):
            bad.write_text(json.dumps(dict(good, beta=beta)))
            capsys.readouterr()
            assert run_cli(argv + [str(bad)]) == cli.EXIT_BAD_INPUT, beta
            captured = capsys.readouterr()
            assert captured.out == "" and "beta" in captured.err, (beta, captured.err)
        # a JSON true is not the lag c = 1
        bad.write_text(json.dumps(dict(good, c=True)))
        capsys.readouterr()
        assert run_cli(argv + [str(bad)]) == cli.EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and "c must be finite" in captured.err, captured.err
        # a design made for another base
        log = tmp_path / "log.json"
        log.write_text(json.dumps({"kind": "log1p", "params": {}}))
        capsys.readouterr()
        assert run_cli(argv + [design + ".json", "--objective", str(log)]) == cli.EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and "beta" in captured.err

    def test_design_file_tail_follows_last_sample(self, tmp_path, cap_descriptor, capsys):
        # the loader reads h, y, c and beta; a file without tail_mode certifies
        # exactly as the same file with it, for a plateau and a held tail
        inst = str(tmp_path / "inst.json")
        run_cli(["gen", "--family", "adwords_triangular", "--n", "20", "--phase-len", "5",
                 "--out", inst])
        log1p = tmp_path / "log1p.json"
        log1p.write_text(json.dumps({"kind": "log1p"}))
        for name, flags, objective in (("cap", ["--horizon", "1.0", "--plateau"], cap_descriptor),
                                       ("log1p", ["--horizon", "20"], str(log1p))):
            design = str(tmp_path / f"{name}_design")
            run_cli(["design", "--objective", objective, "--grid", "200", *flags, "--out", design])
            d = json.loads(Path(design + ".json").read_text())
            assert d["tail_mode"] == ("zero" if name == "cap" else "hold_last")
            bare = tmp_path / f"{name}_bare.json"
            bare.write_text(json.dumps({k: v for k, v in d.items() if k != "tail_mode"}))
            outs = []
            for path in (design + ".json", str(bare)):
                capsys.readouterr()
                assert run_cli(["certify", "--instance", inst, "--objective", objective,
                                "--smoothing", path]) == cli.EXIT_OK, (name, path)
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1] and outs[0], name

    def test_bad_repeat_exit_code(self, tmp_path, capsys):
        # a malformed run length is bad input, rejected before any computation
        inst, bad = tmp_path / "inst.json", tmp_path / "bad.json"
        run_cli(["gen", "--family", "adwords_triangular", "--n", "3", "--phase-len", "2",
                 "--out", str(inst)])
        for value in (0, 1.0, False):
            d = json.loads(inst.read_text())
            d["steps"][2]["repeat"] = value
            bad.write_text(json.dumps(d))
            capsys.readouterr()
            out = str(tmp_path / "run")
            assert run_cli(["certify", "--instance", str(bad), "--out", out]) == cli.EXIT_BAD_INPUT
            captured = capsys.readouterr()
            assert captured.out == "" and "repeat" in captured.err, (value, captured.err)
            assert not os.path.exists(out + ".json")

    @pytest.mark.parametrize("edit", [
        lambda a: a.update(f64="!" + a["f64"]),            # not a base64 character
        lambda a: a.update(f64=_blob(decode_array(a)[:-1])["f64"]),     # 8 bytes short
        lambda a: a.update(shape=[-1]), lambda a: a.update(shape=[True], f64=_blob([0.5])["f64"]),
        lambda a: a.update(shape=[2.0], f64=_blob([0.5, 0.5])["f64"]), lambda a: a.update(shape="3"),
        lambda a: a.pop("f64"), lambda a: a.update(f64=None),
    ])
    def test_bad_step_array_exit_code(self, tmp_path, capsys, edit):
        # a malformed blob names its step and is rejected before any computation
        inst, bad = tmp_path / "inst.json", tmp_path / "bad.json"
        run_cli(["gen", "--family", "adwords_triangular", "--n", "3", "--phase-len", "2",
                 "--out", str(inst)])
        d = json.loads(inst.read_text())
        edit(d["steps"][1]["A"]["a"])
        bad.write_text(json.dumps(d))
        capsys.readouterr()
        out = str(tmp_path / "run")
        assert run_cli(["certify", "--instance", str(bad), "--out", out]) == cli.EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and "steps[1]: " in captured.err, captured.err
        assert sorted(os.listdir(tmp_path)) == ["bad.json", "inst.json"]

    @pytest.mark.parametrize("family, key, edit", [
        ("adwords_triangular", "a", lambda a: ["0.5", *a[1:]]),
        ("adwords_triangular", "a", lambda a: [a[0], True, *a[2:]]),
        ("lp_random", "B", lambda B: [B[0], [B[1][0], False], *B[2:]]),
    ])
    def test_decimal_step_array_entries_exit_code(self, tmp_path, capsys, family, key, edit):
        # a v2 decimal list, nested or not, takes JSON numbers only
        inst, bad = tmp_path / "inst.json", tmp_path / "bad.json"
        gen = {"adwords_triangular": ["--n", "3", "--phase-len", "2"],
               "lp_random": ["--n", "3", "--m", "4", "--k", "2", "--seed", "1"]}[family]
        run_cli(["gen", "--family", family, *gen, "--out", str(inst)])
        d = json.loads(inst.read_text())
        d["version"] = "v2"
        A = d["steps"][1]["A"]
        A[key] = decode_array(A[key]).tolist()
        bad.write_text(json.dumps(d))
        assert run_cli(["certify", "--instance", str(bad)]) == cli.EXIT_OK
        A[key] = edit(A[key])
        bad.write_text(json.dumps(d))
        capsys.readouterr()
        assert run_cli(["certify", "--instance", str(bad)]) == cli.EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and "steps[1]: " in captured.err, captured.err

    def test_instance_fields_exit_code(self, tmp_path, capsys):
        # params.n sizes the objective and offline_opt divides the true ratio
        inst, bad = tmp_path / "inst.json", tmp_path / "bad.json"
        run_cli(["gen", "--family", "adwords_triangular", "--n", "3", "--phase-len", "2",
                 "--out", str(inst)])
        cases = [("params", "n", v) for v in ("x", 2.5, 0, True)]
        cases += [("extras", "offline_opt", v) for v in (0, "x", math.nan, -3.0, True)]
        for part, key, value in cases:
            d = json.loads(inst.read_text())
            d[part][key] = value
            bad.write_text(json.dumps(d))
            capsys.readouterr()
            assert run_cli(["certify", "--instance", str(bad)]) == cli.EXIT_BAD_INPUT, (key, value)
            captured = capsys.readouterr()
            assert captured.out == "" and key in captured.err, (key, value, captured.err)

    def test_nonfinite_summary_written_as_null(self, tmp_path, capsys):
        # with all bids zero or no steps D = 0 and ratio_lb is infinite
        inst, bad = tmp_path / "inst.json", tmp_path / "bad.json"
        run_cli(["gen", "--family", "adwords_triangular", "--n", "3", "--phase-len", "2",
                 "--out", str(inst)])

        def strict(token):
            raise ValueError(f"non-JSON constant {token}")

        for edit in (lambda d: [st["A"].__setitem__("a", [0.0] * 3) for st in d["steps"]],
                     lambda d: d.__setitem__("steps", [])):
            d = json.loads(inst.read_text())
            edit(d)
            bad.write_text(json.dumps(d))
            capsys.readouterr()
            out = str(tmp_path / "run")
            assert run_cli(["certify", "--instance", str(bad), "--out", out]) == cli.EXIT_OK
            printed = json.loads(capsys.readouterr().out, parse_constant=strict)
            summary = json.loads(Path(out + ".json").read_text(), parse_constant=strict)
            assert printed["ratio_lb"] is None and summary["ratio_lb"] is None

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


def _pl(breakpoints, slopes):
    return {"kind": "piecewise_linear", "params": {"breakpoints": breakpoints, "slopes": slopes}}


def _set_path(d, path, value):
    for key in path[:-1]:
        d = d[key]
    d[path[-1]] = value


def _ill_conditioned_instance(path):
    """A 400-node path-graph base (condition number about 6e6) and 600 random edges."""
    rng = np.random.Generator(np.random.Philox(key=2))
    stream = []
    while len(stream) < 600:
        i, j = (int(v) for v in rng.integers(0, 400, size=2))
        if i != j:
            stream.append((i, j))
    edges = {"base": [(i, i + 1) for i in range(399)], "stream": stream}
    gen_logdet_stream(400, 600, 60.0, source="graph_incidence", seed=1, edges=edges).save(path)


_DESIGN = {"h": 0.5, "y": [1.0, 0.5, 0.0], "tail_mode": "zero", "c": 0.0, "beta": 1.6}

# case -> (argv, words the message must hold, edit writing {bad}: (source, key path,
# value), or (None, (), value) for a whole file)
_BAD_INPUTS = {
    "A0 not square": ("certify --instance {bad}", "A0 must be square",
                      ("ld", ("extras", "A0"), [[2.0, 0.0]] * 3)),
    "A0 asymmetric": ("certify --instance {bad}", "A0 must be symmetric",
                      ("ld", ("extras", "A0", 0, 1), 0.5)),
    "A0 indefinite": ("certify --instance {bad}", "A0 must be positive definite",
                      ("ld", ("extras", "A0", 0, 0), -1.0)),
    "unknown family": ("certify --instance {bad}", "unknown family", ("ad", ("family",), "nope")),
    "unknown set kind": ("certify --instance {bad}", "unknown feasible set kind",
                         ("ad", ("steps", 0, "F", "kind"), "ball")),
    "unit_interval k=2": ("certify --instance {bad}", "unit_interval is one-dimensional",
                          ("ld", ("steps", 0, "F", "k"), 2)),
    "unknown map kind": ("certify --instance {bad}", "unknown step map kind",
                         ("ad", ("steps", 0, "A", "kind"), "dense")),
    "steps consume nothing": ("certify --instance {bad}", "no step consumes anything",
                              ("lp", ("steps", 0, "A", "B"), [[0.0], [0.0]])),
    "negative slope": ("certify --instance {ad} --objective {bad}", "slopes must be nonnegative",
                       (None, (), _pl([0.5], [1.0, -0.5]))),
    "unordered breakpoints": ("certify --instance {ad} --objective {bad}",
                              "breakpoints must be increasing",
                              (None, (), _pl([0.5, 0.2], [1.0, 0.5, 0.0]))),
    "mismatched lengths": ("certify --instance {ad} --objective {bad}",
                           "len(slopes) == len(breakpoints) + 1",
                           (None, (), _pl([0.5], [1.0, 0.5, 0.0]))),
    "closed form off cap": ("certify --instance {ad} --objective {log1p} --smoothing closed_form",
                            "applies to the capped reward", None),
    "design without horizon": ("design --objective {cap} --out {out}", "--horizon", None),
    "design beta_tol 0": ("design --objective {cap} --horizon 1 --beta-tol 0 --out {out}",
                          "beta_tol must be positive", None),
    "design horizon -1": ("design --objective {cap} --horizon -1 --out {out}",
                          "u_end must be positive", None),
    "design seq c -1": ("design --objective {cap} --horizon 1 --variant seq --c -1 --out {out}",
                        "c must be nonnegative", None),
    "design seq sqrt": ("design --objective {sqrt} --horizon 1 --variant seq --out {out}",
                        "finite slope at 0", None),
    "sweep family": ("sweep --family lp_random --out {out}", "adwords_triangular family", None),
    "design file one sample": ("certify --instance {ad} --smoothing {bad}",
                               "at least two derivative samples", ("design", ("y",), [1.0])),
    "design file non-finite": ("certify --instance {ad} --smoothing {bad}",
                               "must be finite, got y[0] = inf, y[2] = nan",
                               ("design", ("y",), [math.inf, 0.5, math.nan])),
    "design file boolean sample": ("certify --instance {ad} --smoothing {bad}",
                                   "y must be a list of numbers",
                                   ("design", ("y",), [True, False, False])),
    "design file increasing": ("certify --instance {ad} --smoothing {bad}", "non-increasing",
                               ("design", ("y",), [0.5, 1.0, 0.0])),
    "design file slope overflow": ("certify --instance {ad} --smoothing {bad}", "grid overflows",
                                   ("design", ("y",), [1e308, 0.5, 0.0])),
    "design file sum overflow": ("certify --instance {ad} --smoothing {bad}", "grid overflows",
                                 ("design", ("y",), [1.7e308, -1.7e308, -1.7e308])),
    "ill-conditioned base": ("certify --instance {g400}", "condition number", None),
}


class TestBadInput:
    """Each input check exits 4 with a message naming its cause and prints nothing."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")     # a check, not an overflow, rejects
    @pytest.mark.parametrize("case", list(_BAD_INPUTS))
    def test_exit_code_names_the_cause(self, case, tmp_path, capsys):
        argv, message, edit = _BAD_INPUTS[case]
        files = {k: str(tmp_path / f"{k}.json")
                 for k in ("ad", "lp", "ld", "cap", "sqrt", "log1p", "design", "bad", "g400")}
        files["out"] = str(tmp_path / "out")
        for name, gen in (("ad", "--family adwords_triangular --n 3 --phase-len 2"),
                          ("lp", "--family lp_random --n 2 --m 1 --k 1"),
                          ("ld", "--family logdet_stream --n 3 --m 6")):
            assert run_cli(["gen", *gen.split(), "--out", files[name]]) == cli.EXIT_OK
        for name, d in (("cap", {"kind": "cap", "params": {"scale": 1.0}}),
                        ("sqrt", {"kind": "sqrt"}), ("log1p", {"kind": "log1p"}),
                        ("design", _DESIGN)):
            Path(files[name]).write_text(json.dumps(d))
        if edit is not None:
            src, path, value = edit
            d = json.loads(Path(files[src]).read_text()) if src else None
            if path:
                _set_path(d, path, value)
            Path(files["bad"]).write_text(json.dumps(d if path else value))
        if "{g400}" in argv:
            _ill_conditioned_instance(files["g400"])
        capsys.readouterr()
        assert run_cli(argv.format(**files).split()) == cli.EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err, captured.err

    @pytest.mark.parametrize("family, flag, value", [
        ("logdet_stream", "b", "-1"), ("logdet_stream", "b", "nan"), ("logdet_stream", "b", "inf"),
        ("logdet_stream", "b", "0"), ("logdet_stream", "n", "0"), ("logdet_stream", "n", "-2"),
        ("logdet_stream", "m", "0"), ("lp_random", "n", "0"), ("lp_random", "m", "-3"),
        ("lp_random", "k", "0"), ("lp_random", "k", "-1"), ("adwords_triangular", "phase-len", "0")])
    def test_gen_names_the_bad_parameter(self, family, flag, value, tmp_path, capsys):
        out = tmp_path / "inst.json"
        rc = run_cli(["gen", "--family", family, f"--{flag}", value, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_BAD_INPUT
        assert captured.out == "" and f"{flag.replace('-', '_')} must be" in captured.err
        assert not out.exists()


# case -> (argv, the field the message names, the content of {bad}); each raised a
# TypeError or AttributeError, exit 1 with a traceback, before the structure was checked
# (an instance's extras given as a list was read as empty)
_DESIGN_ARGV = "design --objective {bad} --horizon 1 --out {out}"
_UNCHECKED_STRUCTURE = {
    "power without params": (_DESIGN_ARGV, "power: p is missing", {"kind": "power"}),
    "string parameter": (_DESIGN_ARGV, "power: p must be finite",
                         {"kind": "power", "params": {"p": "0.5"}}),
    "unknown parameter": (_DESIGN_ARGV, "power: q is not a parameter",
                          {"kind": "power", "params": {"p": 0.5, "q": 1}}),
    "descriptor params a list": (_DESIGN_ARGV, "params", {"kind": "cap", "params": [1.0]}),
    "kind a list": ("certify --instance {ad} --objective {bad}", "kind",
                    {"kind": ["cap"], "params": {}}),
    "objective a list": ("certify --instance {ad} --objective {bad}", "--objective",
                         [{"kind": "cap", "params": {}}]),
    "design file a list": ("certify --instance {ad} --smoothing {bad}", "--smoothing", [_DESIGN]),
    "config a list": ("design --config {bad} --objective {cap} --horizon 1 --out {out}",
                      "--config", [{"grid": 100}]),
    "steps not a list": ("certify --instance {bad}", "steps", ("steps", 3)),
    "instance params a list": ("certify --instance {bad}", "params", ("params", [])),
    "instance extras a list": ("certify --instance {bad}", "extras", ("extras", [])),
    "instance a list": ("certify --instance {bad}", "instance must be a JSON object", [{}]),
}


@pytest.mark.parametrize("case", list(_UNCHECKED_STRUCTURE))
def test_file_structure_exit_code(case, tmp_path, capsys):
    argv, field, content = _UNCHECKED_STRUCTURE[case]
    files = {k: str(tmp_path / f"{k}.json") for k in ("ad", "cap", "bad", "out")}
    assert run_cli(["gen", "--family", "adwords_triangular", "--n", "3", "--phase-len", "2",
                    "--out", files["ad"]]) == cli.EXIT_OK
    Path(files["cap"]).write_text(json.dumps({"kind": "cap", "params": {"scale": 1.0}}))
    if isinstance(content, tuple):      # one field of the adwords instance replaced
        key, value = content
        content = json.loads(Path(files["ad"]).read_text())
        content[key] = value
    Path(files["bad"]).write_text(json.dumps(content))
    capsys.readouterr()
    assert run_cli(argv.format(**files).split()) == cli.EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and field in captured.err, captured.err
    assert "Traceback" not in captured.err
    assert not any(Path(files["out"] + ext).exists() for ext in (".json", ".csv"))


class TestWithoutScipy:
    def test_every_family_runs_without_scipy(self, tmp_path):
        # a None entry in sys.modules makes every scipy import fail
        script = textwrap.dedent("""
            import sys
            sys.modules["scipy"] = None
            from smoothgreed import cli

            gens = {
                "ad": ["--family", "adwords_triangular", "--n", "4", "--phase-len", "3"],
                "lp": ["--family", "lp_random", "--n", "4", "--m", "20", "--k", "2", "--seed", "1"],
                "ld": ["--family", "logdet_stream", "--n", "3", "--m", "8", "--b", "2.0",
                       "--seed", "1"],
            }
            runs = [("ad", "sim", []), ("ad", "sim", ["--smoothing", "closed_form"]),
                    ("lp", "sim", []), ("lp", "sim", ["--smoothing", "nesterov"]),
                    ("ld", "seq", []), ("ld", "sim", ["--smoothing", "nesterov"])]
            for name, args in gens.items():
                assert cli.main(["gen", *args, "--out", name + ".json"]) == 0, name
            for name, algo, extra in runs:
                argv = ["certify", "--instance", name + ".json", "--algo", algo, *extra]
                assert cli.main(argv) == 0, argv
            loaded = [m for m, mod in sys.modules.items() if m.startswith("scipy") and mod]
            assert not loaded, loaded
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        res = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                             capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr


class TestRecordsJsonl:
    """The records writer against one strict json.dumps per record."""

    def test_adversary_jobs_match_oracle(self, tmp_path, monkeypatch):
        inst = str(tmp_path / "adv.json")
        run_cli(["gen", "--family", "adwords_triangular", "--n", "40", "--phase-len", "5",
                 "--out", inst])
        traces = []
        for name in ("run_simultaneous", "run_sequential"):
            def kept(obj, steps, run=getattr(cli, name)):
                traces.append(run(obj, steps))
                return traces[-1]

            monkeypatch.setattr(cli, name, kept)
        for algo in ("sim", "seq"):
            for smoothing in ([], ["--smoothing", "closed_form"]):
                out = str(tmp_path / "run")
                assert run_cli(["certify", "--instance", inst, "--algo", algo, "--out", out]
                               + smoothing) == cli.EXIT_OK
                want = records_jsonl(traces[-1].records)
                assert Path(out + ".jsonl").read_text() == want, (algo, smoothing)

    def test_signed_zeros_and_equal_arrays(self):
        x = np.array([0.0, 0.25, 0.75])
        records = [StepRecord(1, x, 0.5, 0.5, 0.5),
                   StepRecord(2, np.array([-0.0, 0.25, 0.75]), 0.0, -0.0, 0.0),
                   StepRecord(3, x.copy(), 0.5, 0.5, 0.0),
                   StepRecord(4, np.array([-0.0, 0.25, 0.75]), -0.0, 0.0, -0.0),
                   StepRecord(5, np.array([0.5]), 1.0, 0.5, np.float64(0.125))]
        text = "".join(cli._record_lines(records))
        assert text == records_jsonl(records)
        assert text.count("[-0.0, 0.25, 0.75]") == 2 and text.count("[0.0, 0.25, 0.75]") == 2

    def test_runs_longer_than_the_memo(self, monkeypatch):
        rng = np.random.default_rng(np.random.Philox(key=3))
        pool = [rng.uniform(0.0, 1.0, 4) for _ in range(7)]
        records = [StepRecord(t, pool[int(rng.integers(0, 7))].copy(), 1.0, 0.5, 0.25)
                   for t in range(1, 400)]
        records += [StepRecord(t, rng.uniform(0.0, 1.0, 4), 1.0, 0.5, 0.25)
                    for t in range(400, 400 + cli._X_MEMO + 50)]
        assert "".join(cli._record_lines(records)) == records_jsonl(records)
        monkeypatch.setattr(cli, "_X_MEMO", 3)
        assert "".join(cli._record_lines(records)) == records_jsonl(records)

    @settings(max_examples=40, deadline=None)
    @given(hs.sampled_from([(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (3, 7)]),
           hs.lists(hs.one_of(hs.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e308]),
                              hs.floats(allow_nan=False, allow_infinity=False)),
                    min_size=1, max_size=12),
           hs.integers(0, 2 ** 32 - 1))
    def test_chunks_match_oracle(self, chunks, pool, seed):
        # record counts at and around the chunk length; shared x objects,
        # distinct arrays of equal bytes, and np.float64 fields
        count = chunks[0] * cli._RECORD_CHUNK + chunks[1]
        rng = np.random.default_rng(seed)
        pick = lambda: (np.float64 if rng.random() < 0.3 else float)(pool[rng.integers(len(pool))])
        xs = [np.array([pick() for _ in range(rng.integers(1, 4))]) for _ in range(3)]
        records = []
        for t in range(1, count + 1):
            x = xs[rng.integers(len(xs))]
            records.append(StepRecord(t, x.copy() if rng.random() < 0.3 else x, pick(), pick(), pick()))
        assert "".join(cli._record_lines(records)) == records_jsonl(records)

    def test_memory_is_bounded_by_the_chunk(self):
        # without chunks the writer would hold the whole file (about 40 MB)
        # at once.  Each record has its own x array; 16 byte patterns keep
        # the x memo small and the encoding off the test's time.
        rng = np.random.default_rng(np.random.Philox(key=5))
        pool = rng.uniform(0.0, 1.0, (16, 100))
        records = [StepRecord(t, pool[t % 16].copy(), 1.0, 0.5, 0.25) for t in range(1, 20001)]
        size = biggest = 0
        tracemalloc.start()
        try:
            for chunk in cli._record_lines(records):
                size, biggest = size + len(chunk), max(biggest, len(chunk))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 30 * 2 ** 20 and peak < 4 * biggest < size / 8, (size, biggest, peak)

    def test_nonfinite_record_exit_code(self, tmp_path, monkeypatch, capsys):
        inst = str(tmp_path / "inst.json")
        run_cli(["gen", "--family", "adwords_triangular", "--n", "3", "--phase-len", "300",
                 "--out", inst])
        run = cli.run_simultaneous

        def edit_x(rec):
            rec.x = rec.x.copy()
            rec.x[1] = math.nan

        edits = [edit_x] + [lambda rec, f=f: setattr(rec, f, math.nan) for f in ("sigma", "inner")]
        edits.append(lambda rec: setattr(rec, "gain", -math.inf))
        # the third record, in the first chunk, and the last of 900, in the last chunk
        for at in (2, -1):
            for edit in edits:
                def broken(obj, steps, edit=edit):
                    tr = run(obj, steps)
                    edit(tr.records[at])
                    return tr

                monkeypatch.setattr(cli, "run_simultaneous", broken)
                capsys.readouterr()
                assert run_cli(["certify", "--instance", inst, "--out",
                                str(tmp_path / "run")]) == cli.EXIT_BAD_INPUT
                captured = capsys.readouterr()
                assert captured.out == "" and "not JSON compliant" in captured.err
                # neither file, nor a temporary, is left behind
                assert os.listdir(tmp_path) == ["inst.json"]


class TestSweep:
    def test_sweep_csv(self, tmp_path):
        out = str(tmp_path / "sweep.csv")
        assert run_cli(["sweep", "--n-list", "1,4", "--phase-list", "1,3", "--out", out]) == 0
        lines = Path(out).read_text().strip().splitlines()
        assert lines[0].startswith("# smoothgreed")
        assert lines[1] == "n,phase_len,true_ratio,ratio_lb"
        rows = {tuple(map(int, ln.split(",")[:2])): float(ln.split(",")[2])
                for ln in lines[2:]}
        assert rows[(1, 1)] == pytest.approx(1.0)      # single budget: greedy exact
        assert rows[(4, 3)] == pytest.approx(0.5)

    def test_pool_matches_serial(self, tmp_path, monkeypatch):
        rows = {}
        for workers in (1, 2):
            monkeypatch.setattr(cli, "_workers", lambda n=workers: n)
            out = str(tmp_path / f"sweep{workers}.csv")
            assert run_cli(["sweep", "--n-list", "2,4,6", "--phase-list", "1,2,3",
                            "--smoothed", "--out", out]) == 0
            rows[workers] = Path(out).read_text().splitlines()[1:]
        assert len(rows[1]) == 10 and rows[1] == rows[2]

    def test_import_leaves_process_pool_out(self):
        # only a sweep with workers imports concurrent.futures
        script = "import sys, smoothgreed.cli; print('concurrent.futures' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        res = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=120)
        assert res.returncode == 0 and res.stdout == "False\n", (res.stdout, res.stderr)

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
