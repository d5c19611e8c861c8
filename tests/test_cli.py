"""Command-line surface: subcommand behavior, config/flag precedence,
output formats, and exit codes (0 ok, 2 validation, 3 budget)."""

import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from plantedscan import (
    ExperimentConfig,
    Homogeneous,
    LrProblem,
    ScanConfig,
    bayes_risk,
    estimate_risk,
    run_sweep,
    scan_known,
    scan_unknown,
    threshold_scaling,
)
from plantedscan.cli import main
from plantedscan.model import model_to_json, read_edge_list, write_csv


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def model_cfg(tmp_path):
    return write_json(tmp_path / "model.json", model_to_json(Homogeneous(64, 0.1)))


def csv_text(row):
    buf = io.StringIO()
    write_csv(list(row), [list(row.values())], buf)
    return buf.getvalue()


def run_ok(capsys, argv):
    main(argv)
    return capsys.readouterr().out


def run_err(capsys, argv, code):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == code
    return capsys.readouterr().err


def run_module(argv, stdin=""):
    """python -m plantedscan argv, in a fresh process against src/."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "plantedscan", *argv], input=stdin,
                          capture_output=True, text=True, env=env, timeout=120)


class TestTable1:
    def test_default_csv(self, capsys):
        out = run_ok(capsys, ["table1"])
        lines = out.splitlines()
        assert lines[0] == "#schema=1"
        assert lines[1] == "distribution,rho_star,optimal_fraction"
        assert len(lines) == 6
        rows = {cells[0]: cells for cells in (l.split(",") for l in lines[2:])}
        assert float(rows["degenerate"][1]) == pytest.approx(3.31083040432213, rel=1e-10)
        assert float(rows["exponential"][1]) == pytest.approx(2.93932985575709, rel=1e-10)
        assert float(rows["bernoulli"][2]) == pytest.approx(0.5, rel=1e-10)

    def test_json_format(self, capsys):
        rows = json.loads(run_ok(capsys, ["table1", "--format", "json"]))
        assert [r["distribution"] for r in rows] == [
            "degenerate", "bernoulli", "uniform", "exponential"]

    def test_quarter_power_needs_n(self, capsys):
        err = run_err(capsys, ["table1", "--regime", "quarter_power"], 2)
        assert err.startswith("error:")

    def test_quarter_power_with_n(self, capsys):
        out = run_ok(capsys, ["table1", "--regime", "quarter_power",
                              "--n", "100000000"])
        rows = {c[0]: c for c in (l.split(",") for l in out.splitlines()[2:])}
        assert float(rows["degenerate"][1]) == pytest.approx(1.18724814590861, rel=1e-10)

    def test_console_script_is_installed(self):
        exe = shutil.which("plantedscan")
        assert exe, "console script not on PATH"
        proc = subprocess.run([exe, "table1"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "degenerate" in proc.stdout


    def test_module_entry_point(self):
        proc = run_module(["table1"])
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "degenerate" in proc.stdout


class TestSampleAndScan:
    def test_pipeline_matches_library_call(self, capsys, tmp_path, model_cfg):
        graph = tmp_path / "g.txt"
        out = run_ok(capsys, ["sample", "--config", model_cfg, "--seed", "5",
                              "--out", str(graph)])
        assert "wrote" in out and "n=64" in out
        scan_out = tmp_path / "scan.json"
        main(["scan", "--graph", str(graph), "--config", model_cfg,
              "--r", "4", "--out", str(scan_out)])
        got = json.loads(scan_out.read_text())
        direct = scan_known(Homogeneous(64, 0.1), read_edge_list(str(graph)),
                            ScanConfig(4, 0.2))
        assert got["statistic"] == direct.statistic
        assert got["reject"] == direct.reject
        assert got["threshold"] == pytest.approx(1.1)

    def test_blind_scan_needs_no_model(self, capsys, tmp_path, model_cfg):
        graph = tmp_path / "g.txt"
        main(["sample", "--config", model_cfg, "--seed", "1", "--out", str(graph)])
        capsys.readouterr()
        out = run_ok(capsys, ["scan", "--graph", str(graph), "--blind", "--r", "4"])
        payload = json.loads(out)
        assert payload["statistic"] >= 0.0
        assert payload["metadata"]["size_window"] == [2, 4]

    def test_scan_csv_format(self, capsys, tmp_path, model_cfg):
        graph = tmp_path / "g.txt"
        main(["sample", "--config", model_cfg, "--seed", "1", "--out", str(graph)])
        capsys.readouterr()
        out = run_ok(capsys, ["scan", "--graph", str(graph), "--config", model_cfg,
                              "--r", "3", "--format", "csv"])
        lines = out.splitlines()
        assert lines[0] == "#schema=1"
        assert lines[1].startswith("statistic,threshold,reject")
        assert len(lines) == 3

    @pytest.mark.parametrize("blind", [False, True])
    def test_scan_csv_is_the_outcome_row(self, capsys, tmp_path, model_cfg, blind):
        graph = tmp_path / "g.txt"
        main(["sample", "--config", model_cfg, "--seed", "2", "--out", str(graph)])
        capsys.readouterr()
        argv = ["scan", "--graph", str(graph), "--r", "3", "--format", "csv"]
        out = run_ok(capsys, argv + (["--blind"] if blind else ["--config", model_cfg]))
        sample, cfg = read_edge_list(str(graph)), ScanConfig(3, 0.2)
        outcome = (scan_unknown(sample, cfg) if blind
                   else scan_known(Homogeneous(64, 0.1), sample, cfg))
        assert out == csv_text(outcome.row())

    def test_planted_sample_lifts_community(self, capsys, tmp_path, model_cfg):
        graph = tmp_path / "g.txt"
        run_ok(capsys, ["sample", "--config", model_cfg, "--seed", "2",
                        "--community", "0,1,2,3,4,5", "--rho", "6",
                        "--out", str(graph)])
        g = read_edge_list(str(graph))
        # rho = 6 on p = 0.1 makes 9 of the 15 community pairs edges on
        # average; the null average is 1.5, so 5+ is a loud signal
        assert g.edges_within(range(6)) >= 5

    def test_sample_requires_out(self, capsys, model_cfg):
        err = run_err(capsys, ["sample", "--config", model_cfg], 2)
        assert "needs --out" in err

    def test_scan_budget_exhaustion_is_exit_3(self, capsys, tmp_path, model_cfg):
        graph = tmp_path / "g.txt"
        main(["sample", "--config", model_cfg, "--seed", "1", "--out", str(graph)])
        capsys.readouterr()
        err = run_err(capsys, ["scan", "--graph", str(graph), "--config", model_cfg,
                               "--r", "6", "--budget", "10"], 3)
        assert err.startswith("error:")

    def test_missing_config_model(self, capsys, tmp_path):
        graph = tmp_path / "g.txt"
        write_json(tmp_path / "m.json", model_to_json(Homogeneous(16, 0.2)))
        main(["sample", "--config", str(tmp_path / "m.json"), "--seed", "1",
              "--out", str(graph)])
        capsys.readouterr()
        err = run_err(capsys, ["scan", "--graph", str(graph), "--r", "3"], 2)
        assert "no model" in err


class TestMalformedValues:
    """A config value of the wrong type is a validation error (exit 2), not
    a traceback."""

    def test_model_descriptor_value(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "m.json", {"variant": "homogeneous", "n": "ten", "p": 0.1})
        err = run_err(capsys, ["sample", "--config", cfg, "--out", str(tmp_path / "g.txt")], 2)
        assert err.startswith("error:")

    @pytest.mark.parametrize("n, p", [(10.7, 0.1), (True, 0.1), (10, "0.1"), (10, True)])
    def test_model_descriptor_number_types(self, capsys, tmp_path, n, p):
        cfg = write_json(tmp_path / "m.json", {"variant": "homogeneous", "n": n, "p": p})
        err = run_err(capsys, ["sample", "--config", cfg, "--out", str(tmp_path / "g.txt")], 2)
        assert "must be" in err

    def test_model_matrix_file_missing(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "m.json",
                         {"variant": "general", "matrix_path": str(tmp_path / "none.npy")})
        err = run_err(capsys, ["boundary", "--config", cfg, "--community", "0,1"], 2)
        assert err.startswith("error:")

    def test_scan_config_r(self, capsys, tmp_path, model_cfg):
        graph = tmp_path / "g.txt"
        main(["sample", "--config", model_cfg, "--seed", "1", "--out", str(graph)])
        capsys.readouterr()
        cfg = write_json(tmp_path / "scan.json", {"r": "abc"})
        err = run_err(capsys, ["scan", "--graph", str(graph), "--blind", "--config", cfg], 2)
        assert err.startswith("error:")

    def test_risk_config_r(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "exp.json", {
            "model": model_to_json(Homogeneous(12, 0.3)), "test": "lr", "r": "3",
            "rho": 1.8, "communities": 1, "null_replications": 10, "alt_replications": 10,
        })
        err = run_err(capsys, ["risk", "--config", cfg], 2)
        assert err.startswith("error:")

    def test_risk_config_family_size(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "exp.json", {
            "model": model_to_json(Homogeneous(12, 0.3)), "test": "scan_known", "r": 3,
            "rho": 1.8, "communities": 1, "null_replications": 10, "alt_replications": 10,
            "family": {"kind": "exhaustive", "min_size": "x", "max_size": 3},
        })
        err = run_err(capsys, ["risk", "--config", cfg], 2)
        assert "min_size must be an integer" in err

    def test_lr_risk_config_rho(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "lr.json", {
            "model": model_to_json(Homogeneous(10, 0.3)), "r": 3, "rho": "high",
        })
        err = run_err(capsys, ["lr-risk", "--config", cfg], 2)
        assert err.startswith("error:")


class TestBoundaryCmd:
    def test_point_matches_library(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "m.json", model_to_json(Homogeneous(1000, 0.01)))
        out = run_ok(capsys, ["boundary", "--config", cfg,
                              "--community", ",".join(map(str, range(30)))])
        payload = json.loads(out)
        direct = threshold_scaling(Homogeneous(1000, 0.01), range(30))
        assert payload["rho_star"] == direct.rho_star
        assert payload["optimal_size"] == 30

    def test_csv_point(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "m.json", model_to_json(Homogeneous(512, 0.05)))
        out = run_ok(capsys, ["boundary", "--config", cfg, "--community", "0,1,2,3",
                              "--target", "0.5", "--format", "csv"])
        lines = out.splitlines()
        assert lines[1] == "rho_star,optimal_size,optimal_fraction,objective,feasible"
        assert len(lines) == 3

    def test_surface_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "surface.csv"
        run_ok(capsys, ["boundary", "--surface", "--weights", "0.65,0.1",
                        "--r", "10", "--n", "65536", "--out", str(out_path)])
        lines = out_path.read_text().splitlines()
        assert lines[0] == "#schema=1"
        assert lines[1] == "count_1,count_2,rho_star,optimal_size,regime"
        assert len(lines) == 13

    def test_surface_needs_weights(self, capsys):
        err = run_err(capsys, ["boundary", "--surface", "--r", "10", "--n", "4096"], 2)
        assert "--weights" in err


class TestRiskCmd:
    def experiment(self, tmp_path):
        return write_json(tmp_path / "exp.json", {
            "model": model_to_json(Homogeneous(12, 0.3)),
            "test": "lr",
            "r": 3,
            "rho": 1.8,
            "communities": [[0, 1, 2]],
            "null_replications": 10,
            "alt_replications": 10,
            "master_seed": 14,
        })

    def test_matches_library_estimate(self, capsys, tmp_path):
        cfg_path = self.experiment(tmp_path)
        payload = json.loads(run_ok(capsys, ["risk", "--config", cfg_path]))
        direct = estimate_risk(ExperimentConfig.from_dict(
            json.loads(Path(cfg_path).read_text())))
        assert payload["worst_case_risk"] == direct.worst_case_risk
        assert payload["type1"]["count"] == 10

    def test_flag_overrides(self, capsys, tmp_path):
        cfg_path = self.experiment(tmp_path)
        payload = json.loads(run_ok(capsys, ["risk", "--config", cfg_path,
                                             "--test", "scan_known",
                                             "--reps", "5", "--seed", "99"]))
        assert payload["metadata"]["test"] == "scan_known"
        assert payload["metadata"]["master_seed"] == 99
        assert payload["type1"]["count"] == 5

    def test_csv_format(self, capsys, tmp_path):
        cfg_path = self.experiment(tmp_path)
        out = run_ok(capsys, ["risk", "--config", cfg_path, "--format", "csv"])
        lines = out.splitlines()
        assert lines[1] == ("type1,type1_stderr,type2_max,type2_mean,"
                            "worst_case_risk,average_risk")
        assert len(lines) == 3

    def test_needs_config(self, capsys):
        err = run_err(capsys, ["risk"], 2)
        assert "needs --config" in err

    @pytest.mark.parametrize("communities", [[1, 2], True])
    def test_malformed_communities_exit_2(self, tmp_path, communities):
        cfg = json.loads(Path(self.experiment(tmp_path)).read_text())
        cfg_path = write_json(tmp_path / "bad.json", {**cfg, "communities": communities})
        proc = run_module(["risk", "--config", cfg_path])
        assert proc.returncode == 2, proc.stderr[-2000:]
        assert "a count or a list of vertex lists" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestLrRiskCmd:
    def test_matches_library_call(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "lr.json", {
            "model": model_to_json(Homogeneous(10, 0.3)),
            "r": 3,
            "rho": 1.6,
            "replications": 20,
            "master_seed": 6,
        })
        payload = json.loads(run_ok(capsys, ["lr-risk", "--config", cfg]))
        direct = bayes_risk(LrProblem(Homogeneous(10, 0.3), 3, 1.6,
                                      community_seed=6), 20, 6)
        assert payload["risk"] == direct.risk
        assert payload["mode"] == "exact"
        assert payload["M"] == 120

    def test_csv_is_the_result_row(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "lr.json", {
            "model": model_to_json(Homogeneous(10, 0.3)),
            "r": 3, "rho": 1.6, "replications": 20, "master_seed": 6,
        })
        out = run_ok(capsys, ["lr-risk", "--config", cfg, "--format", "csv"])
        direct = bayes_risk(LrProblem(Homogeneous(10, 0.3), 3, 1.6,
                                      community_seed=6), 20, 6)
        assert out == csv_text(direct.row())
        assert out.splitlines()[1] == ("risk,stderr,replications,mode,communities,"
                                       "mean_lr,mean_lr_stderr")

    def test_missing_rho(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "lr.json", {
            "model": model_to_json(Homogeneous(10, 0.3)), "r": 3,
        })
        err = run_err(capsys, ["lr-risk", "--config", cfg], 2)
        assert "'rho'" in err


class TestAuditCmd:
    def test_reports_and_gamma_requirement(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "m.json", model_to_json(Homogeneous(1024, 0.2)))
        payload = json.loads(run_ok(capsys, [
            "audit", "--config", cfg, "--community", ",".join(map(str, range(16))),
            "--gamma", "0.2", "--rho", "2.0"]))
        assert set(payload["reports"]) == {"assumption_1_1", "assumption_1_2",
                                           "assumption_2"}
        assert isinstance(payload["all_passed"], bool)
        # --gamma has no default: argparse itself rejects the call
        with pytest.raises(SystemExit) as excinfo:
            main(["audit", "--config", cfg, "--community", "0,1,2"])
        assert excinfo.value.code == 2

    def test_rank_one_adds_weight_spread_check(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "m.json", {
            "variant": "rank_one", "weights": [0.3] * 64,
        })
        payload = json.loads(run_ok(capsys, [
            "audit", "--config", cfg, "--community", "0,1,2,3,4,5,6,7",
            "--gamma", "0.2"]))
        assert "assumption_3" in payload["reports"]

    def test_csv_format(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "m.json", model_to_json(Homogeneous(1024, 0.2)))
        out = run_ok(capsys, [
            "audit", "--config", cfg, "--community", ",".join(map(str, range(16))),
            "--gamma", "0.2", "--format", "csv"])
        lines = out.splitlines()
        assert lines[1] == "assumption,check,lhs,rhs,margin,passed"
        assert len(lines) >= 5


class TestSweepCmd:
    def test_runs_and_reports_csv_path(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "sweep.json", {
            "base": {
                "model": model_to_json(Homogeneous(12, 0.3)),
                "test": "lr", "r": 3, "rho": 1.5,
                "communities": [[0, 1, 2]],
                "null_replications": 3, "alt_replications": 3,
                "master_seed": 4,
            },
            "grid": {"rho": [1.0, 1.5]},
        })
        out_dir = tmp_path / "out"
        out = run_ok(capsys, ["sweep", "--config", cfg, "--out", str(out_dir)])
        assert "sweep.csv" in out
        assert (out_dir / "point-0001.json").exists()
        assert (out_dir / "sweep.csv").read_text().startswith("#schema=1")

    def test_needs_grid_and_out(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "sweep.json", {"base": {}})
        err = run_err(capsys, ["sweep", "--config", cfg, "--out",
                               str(tmp_path / "o")], 2)
        assert "'grid'" in err
        cfg2 = write_json(tmp_path / "sweep2.json", {"base": {}, "grid": {}})
        err = run_err(capsys, ["sweep", "--config", cfg2], 2)
        assert "needs --out" in err

    @pytest.mark.parametrize("cfg, message", [
        ({"base": 5, "grid": {"rho": [1.0]}}, "sweep base must be an object, got int"),
        ({"base": {}, "grid": 5}, "sweep grid must be an object, got int"),
    ], ids=["base", "grid"])
    def test_base_and_grid_must_be_objects(self, capsys, tmp_path, cfg, message):
        path = write_json(tmp_path / "sweep.json", cfg)
        err = run_err(capsys, ["sweep", "--config", path, "--seed", "3",
                               "--out", str(tmp_path / "o")], 2)
        assert err == f"error: {message}\n"

    def test_bad_config_file(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.json")
        err = run_err(capsys, ["risk", "--config", missing], 2)
        assert "not found" in err
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        err = run_err(capsys, ["risk", "--config", str(broken)], 2)
        assert "not valid JSON" in err


class TestFileFaults:
    """A file that cannot be opened, read or written, or an edge list that
    is not ASCII text, is an argument error: exit 2 and one error line."""

    @pytest.fixture
    def files(self, tmp_path, model_cfg):
        header = tmp_path / "header.edges"
        header.write_bytes(b"4 \xe9\n0 1\n")
        body = tmp_path / "body.edges"
        lines = [f"{i} {j}\n" for i in range(200) for j in range(i + 1, 200, 7)]
        text = "".join(lines).encode("ascii")
        assert len(text) > 9000
        body.write_bytes(f"200 {len(lines)}\n".encode("ascii") + text[:9000]
                         + text[9000:].replace(b"\n", b"\xff\n", 1))
        return {"model": model_cfg, "dir": str(tmp_path), "header": str(header),
                "body": str(body), "nowhere": str(tmp_path / "no" / "such" / "dir")}

    @pytest.mark.parametrize("argv, message", [
        (["scan", "--graph", "{dir}/missing.edges", "--r", "3", "--blind"],
         "No such file or directory"),
        (["scan", "--config", "{dir}", "--graph", "{header}", "--r", "3"], "Is a directory"),
        (["sample", "--config", "{model}", "--out", "{nowhere}/g.edges"],
         "No such file or directory"),
        (["table1", "--out", "{nowhere}/t.csv"], "No such file or directory"),
        (["boundary", "--config", "{model}", "--community", "0,1,2",
          "--out", "{nowhere}/b.json"], "No such file or directory"),
        (["scan", "--graph", "{header}", "--r", "3", "--blind"], "is not ASCII text"),
        (["scan", "--graph", "{body}", "--r", "3", "--blind"], "is not ASCII text"),
    ], ids=["missing-graph", "config-directory", "sample-out", "table1-out",
            "boundary-out", "non-ascii-header", "non-ascii-body"])
    def test_exit_2(self, capsys, files, argv, message):
        err = run_err(capsys, [arg.format(**files) for arg in argv], 2)
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1


class TestInputFaults:
    """A JSON input that cannot be read, or does not hold what it should, is
    an argument error in a fresh process too: exit 2, one error line."""

    MODEL = model_to_json(Homogeneous(12, 0.3))

    def argv(self, tmp_path, case):
        boundary = ["boundary", "--community", "0,1,2", "--config"]
        if case == "config-not-utf8":
            (tmp_path / "latin1.json").write_bytes(b'{"variant": "caf\xe9"}')
            return boundary + [str(tmp_path / "latin1.json")]
        if case == "model-path-truncated":
            (tmp_path / "model.json").write_text(json.dumps(self.MODEL)[:-3])
            return boundary + [write_json(tmp_path / "c.json", {"model": str(tmp_path / "model.json")})]
        if case in ("model-list", "model-zero"):
            model = [1] if case == "model-list" else 0
            return boundary + [write_json(tmp_path / "c.json", {"model": model})]
        base = {"model": self.MODEL, "community": [0, 1, 2]}
        out = tmp_path / "out"
        if case == "point-stale-grid":
            run_sweep(base, {"target": [1.0, 2.0]}, out, kind="boundary")
        else:
            out.mkdir()
            point = {"point-truncated": '{"grid": {"target": 3.0}, "res', "point-empty": "{}"}
            (out / "point-0000.json").write_text(point[case])
        cfg = {"base": base, "grid": {"target": [3.0, 4.0]}, "kind": "boundary"}
        return ["sweep", "--config", write_json(tmp_path / "s.json", cfg), "--out", str(out)]

    @pytest.mark.parametrize("case, message", [
        ("config-not-utf8", "latin1.json is not valid JSON: 'utf-8' codec can't decode"),
        ("model-path-truncated", "model.json is not valid JSON"),
        ("model-list", "model descriptor must be an object or a path, got list"),
        ("model-zero", "model descriptor must be an object or a path, got int"),
        ("point-truncated", "point-0000.json is not valid JSON"),
        ("point-empty", "point-0000.json lacks a grid, result or error"),
        ("point-stale-grid", "point-0000.json is for grid {'target': 1.0}, not {'target': 3.0}"),
    ], ids=["config-not-utf8", "model-path-truncated", "model-list", "model-zero",
            "point-truncated", "point-empty", "point-stale-grid"])
    def test_exit_2(self, tmp_path, case, message):
        # a model on standard input: "model": 0 used to read it from there
        proc = run_module(self.argv(tmp_path, case), stdin=json.dumps(self.MODEL))
        assert proc.returncode == 2, proc.stderr[-2000:]
        assert proc.stderr.startswith("error: ") and message in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""


class TestJsonOutput:
    @pytest.mark.parametrize("argv", [
        ["table1", "--format", "json"],
        ["boundary", "--config", "{model}", "--community", "0,1,2"],
        ["scan", "--config", "{model}", "--graph", "{graph}", "--r", "3"],
        ["scan", "--graph", "{graph}", "--r", "3", "--blind"],
        ["audit", "--config", "{model}", "--community", "0,1,2", "--gamma", "0.2"],
        ["risk", "--config", "{experiment}", "--reps", "4"],
        ["lr-risk", "--config", "{experiment}", "--reps", "4"],
    ], ids=["table1", "boundary", "scan", "scan-blind", "audit", "risk", "lr-risk"])
    def test_out_file_holds_the_stdout_bytes(self, capsys, tmp_path, model_cfg, argv):
        graph = tmp_path / "g.txt"
        main(["sample", "--config", model_cfg, "--seed", "1", "--out", str(graph)])
        experiment = write_json(tmp_path / "exp.json", {
            "model": model_to_json(Homogeneous(12, 0.3)), "test": "lr", "r": 3, "rho": 1.8,
            "communities": [[0, 1, 2]], "master_seed": 14})
        capsys.readouterr()
        argv = [a.format(model=model_cfg, graph=graph, experiment=experiment) for a in argv]
        stdout = run_ok(capsys, argv).encode("utf-8")
        main(argv + ["--out", str(tmp_path / "out.json")])
        assert (tmp_path / "out.json").read_bytes() == stdout
        assert stdout.endswith(b"\n") and json.loads(stdout)


class TestRejectedArguments:
    """Seeds, communities, audit thresholds and sweep grids the library
    rejects: exit 2 with one error line."""

    def one_error_line(self, capsys, argv):
        err = run_err(capsys, argv, 2)
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return err

    def test_negative_sample_seed(self, capsys, tmp_path, model_cfg):
        out = str(tmp_path / "g.txt")
        err = self.one_error_line(capsys, ["sample", "--config", model_cfg, "--seed", "-1",
                                           "--out", out])
        assert err == "error: seed must be >= 0, got -1\n"
        cfg = write_json(tmp_path / "m.json", {**model_to_json(Homogeneous(8, 0.1)), "seed": -2})
        err = self.one_error_line(capsys, ["sample", "--config", cfg, "--out", out])
        assert err == "error: seed must be >= 0, got -2\n"
        assert not os.path.exists(out)

    def test_negative_sample_seed_in_a_fresh_process(self, tmp_path, model_cfg):
        proc = run_module(["sample", "--config", model_cfg, "--seed", "-1",
                           "--out", str(tmp_path / "g.txt")])
        assert proc.returncode == 2
        assert proc.stderr == "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("communities, message", [
        ([[0, 1, 2, 3], [3, 2, 1, 0]], "communities must be distinct vertex sets"),
        (16, "cannot draw 16 distinct communities of size r=4 from n=6 vertices"),
    ], ids=["repeated", "too-many"])
    def test_risk_communities(self, capsys, tmp_path, communities, message):
        cfg = write_json(tmp_path / "exp.json", {
            "model": model_to_json(Homogeneous(6, 0.3)), "test": "scan_known", "r": 4,
            "rho": 1.5, "communities": communities, "null_replications": 2,
            "alt_replications": 2, "master_seed": 1,
        })
        assert self.one_error_line(capsys, ["risk", "--config", cfg]) == f"error: {message}\n"

    @pytest.mark.parametrize("threshold", ["-1", "0", "nan", "inf"])
    def test_audit_threshold(self, capsys, tmp_path, threshold):
        cfg = write_json(tmp_path / "m.json", model_to_json(Homogeneous(1024, 0.2)))
        err = self.one_error_line(capsys, [
            "audit", "--config", cfg, "--community", ",".join(map(str, range(16))),
            "--gamma", "0.2", "--rho", "2.0", f"--threshold={threshold}"])
        assert "threshold must be finite and > 0" in err

    def test_audit_community_of_every_vertex(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "m.json", model_to_json(Homogeneous(8, 0.3)))
        err = self.one_error_line(capsys, [
            "audit", "--config", cfg, "--community", ",".join(map(str, range(8))),
            "--gamma", "0.2"])
        assert "community holds all n=8 vertices" in err

    @pytest.mark.parametrize("command", [["boundary"], ["audit", "--gamma", "0.2"]])
    @pytest.mark.parametrize("community, message", [
        (5, "subset must be an iterable of vertex ids, got 5"),
        ([[0, 1], 2], "subset vertex must be an integer, got [0, 1]"),
        ([0.5, 2], "subset vertex must be an integer, got 0.5"),
    ], ids=["int", "nested", "float"])
    def test_config_community_not_vertex_ids(self, capsys, tmp_path, command, community,
                                             message):
        cfg = write_json(tmp_path / "m.json", {**model_to_json(Homogeneous(10, 0.3)),
                                               "community": community})
        err = self.one_error_line(capsys, [command[0], "--config", cfg, *command[1:]])
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_table1_vertex_count(self, n):
        proc = run_module(["table1", "--regime", "quarter_power", "--n", n])
        assert proc.returncode == 2
        assert proc.stderr == f"error: n must be >= 1, got {n}\n"

    def test_surface_target_below_zero(self, capsys):
        err = self.one_error_line(capsys, ["boundary", "--surface", "--weights", "0.5,0.2",
                                           "--r", "4", "--n", "100", "--target", "-1"])
        assert err == "error: target must be finite and >= 0, got -1.0\n"

    def test_sweep_kind_not_a_name(self, capsys, tmp_path):
        cfg = write_json(tmp_path / "sweep.json", {
            "base": {"community": [0, 1, 2]}, "kind": ["boundary"],
            "grid": {"model": [model_to_json(Homogeneous(64, 0.05))]},
        })
        out_dir = tmp_path / "o"
        err = self.one_error_line(capsys, ["sweep", "--config", cfg, "--out", str(out_dir)])
        assert err == "error: kind must be one of ['boundary', 'risk'], got ['boundary']\n"
        assert not out_dir.exists()

    def test_sweep_grid_value_json_cannot_hold(self, capsys, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({
            "base": {"model": model_to_json(Homogeneous(64, 0.05)), "community": [0, 1, 2]},
            "kind": "boundary", "grid": {"target": [1.0, float("nan")]},
        }))
        out_dir = tmp_path / "o"
        err = self.one_error_line(capsys, ["sweep", "--config", str(path),
                                           "--out", str(out_dir)])
        assert "grid axis 'target' holds a value JSON cannot hold" in err
        assert not out_dir.exists()

    def test_fresh_and_resumed_sweep_csv_are_identical(self, capsys, tmp_path):
        # an object-valued axis: the point file stores its keys sorted
        cfg = write_json(tmp_path / "sweep.json", {
            "base": {"community": [0, 1, 2]}, "kind": "boundary",
            "grid": {"model": [{"variant": "homogeneous", "p": 0.05, "n": 64}]},
        })
        out_dir = tmp_path / "o"
        run_ok(capsys, ["sweep", "--config", cfg, "--out", str(out_dir)])
        fresh = (out_dir / "sweep.csv").read_bytes()
        (out_dir / "sweep.csv").unlink()
        run_ok(capsys, ["sweep", "--config", cfg, "--out", str(out_dir)])
        assert (out_dir / "sweep.csv").read_bytes() == fresh
        assert b"ValidationError" not in fresh


class TestIgnoredFlags:
    """Each subcommand takes only the flags it reads: any other is an
    argument error (exit 2), not a value silently dropped."""

    @pytest.fixture
    def argv(self, tmp_path, model_cfg):
        """A working command line per subcommand."""
        graph = tmp_path / "g.txt"
        main(["sample", "--config", model_cfg, "--seed", "1", "--out", str(graph)])
        experiment = write_json(tmp_path / "exp.json", {
            "model": model_to_json(Homogeneous(12, 0.3)), "test": "lr", "r": 3, "rho": 1.8,
            "communities": [[0, 1, 2]], "master_seed": 14, "replications": 4,
            "null_replications": 3, "alt_replications": 3})
        sweep = write_json(tmp_path / "sweep.json", {
            "base": {"community": [0, 1, 2]}, "kind": "boundary",
            "grid": {"model": [{"variant": "homogeneous", "p": 0.05, "n": 64}]}})
        return {
            "sample": ["sample", "--config", model_cfg, "--out", str(tmp_path / "h.txt")],
            "scan": ["scan", "--config", model_cfg, "--graph", str(graph), "--r", "3"],
            "boundary": ["boundary", "--config", model_cfg, "--community", "0,1,2"],
            "lr-risk": ["lr-risk", "--config", experiment],
            "audit": ["audit", "--config", model_cfg, "--community", "0,1,2", "--gamma", "0.2"],
            "table1": ["table1"],
            "sweep": ["sweep", "--config", sweep, "--out", str(tmp_path / "o")],
        }

    @pytest.mark.parametrize("command, flag, value", [
        ("sample", "--reps", "5"), ("sample", "--workers", "2"), ("sample", "--format", "json"),
        ("scan", "--seed", "3"), ("scan", "--reps", "5"), ("scan", "--workers", "2"),
        ("boundary", "--seed", "3"), ("boundary", "--reps", "5"), ("boundary", "--workers", "2"),
        ("lr-risk", "--workers", "4"),
        ("audit", "--seed", "3"), ("audit", "--reps", "5"), ("audit", "--workers", "2"),
        ("table1", "--config", "missing.json"), ("table1", "--seed", "3"),
        ("table1", "--reps", "5"), ("table1", "--workers", "2"),
        ("sweep", "--format", "csv"),
    ])
    def test_unread_common_flag_exits_2(self, capsys, argv, command, flag, value):
        capsys.readouterr()
        run_ok(capsys, argv[command])
        err = run_err(capsys, argv[command] + [flag, value], 2)
        assert f"unrecognized arguments: {flag} {value}" in err

    def test_sample_rho_needs_community(self, capsys, tmp_path, model_cfg):
        out = tmp_path / "g.txt"
        err = run_err(capsys, ["sample", "--config", model_cfg, "--rho", "3",
                               "--out", str(out)], 2)
        assert err == "error: --rho needs --community: a null sample has no lift\n"
        assert not out.exists()

    def test_table1_n_needs_quarter_power(self, capsys):
        err = run_err(capsys, ["table1", "--n", "100"], 2)
        assert err == "error: --n goes with --regime quarter_power only\n"

    @pytest.mark.parametrize("flags", [
        ["--weights", "0.5,0.2", "--n", "50"], ["--r", "10"], ["--denominator", "per_size"],
    ])
    def test_boundary_surface_flags_need_surface(self, capsys, model_cfg, flags):
        err = run_err(capsys, ["boundary", "--config", model_cfg, "--community", "0,1,2",
                               *flags], 2)
        named = ", ".join(f for f in flags if f.startswith("--"))
        assert err == f"error: --surface is needed for {named}\n"

    @pytest.mark.parametrize("flags", [["--community", "0,1,2"], ["--format", "json"]])
    def test_boundary_surface_takes_no_point_flags(self, capsys, tmp_path, flags):
        out = tmp_path / "s.csv"
        err = run_err(capsys, ["boundary", "--surface", "--weights", "0.65,0.1", "--r", "10",
                               "--n", "65536", "--out", str(out), *flags], 2)
        assert err == f"error: --surface takes no {flags[0]}\n"
        assert not out.exists()
