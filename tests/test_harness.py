"""Risk-estimation harness and sweep plumbing: deterministic seed streams,
worker-count invariance, resumable sweeps, byte-stable CSV output."""

import itertools
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from plantedscan import (
    ExperimentConfig,
    Homogeneous,
    LrProblem,
    PlantedAlternative,
    RankOne,
    ScanConfig,
    ValidationError,
    derive_seed,
    estimate_risk,
    likelihood_ratio_average,
    run_sweep,
    sample_alternative,
    sample_null,
    scan_known,
    scan_unknown,
    threshold_scaling,
)
from plantedscan import harness as harness_module
from plantedscan import scan as scan_module
from plantedscan import lr as lr_module
from plantedscan.harness import RateWithError
from plantedscan.model import model_to_json
from plantedscan.scan import Exhaustive, Explicit, SubsetFamily, WeightPrefix
from plantedscan.seeding import generator


def small_config(**overrides):
    base = dict(
        model=Homogeneous(16, 0.2),
        test="scan_known",
        r=3,
        rho=1.5,
        communities=((0, 1, 2),),
        null_replications=4,
        alt_replications=4,
        epsilon=0.2,
        master_seed=9,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_unknown_test_name(self):
        with pytest.raises(ValidationError, match="test must be one of"):
            small_config(test="wald")

    def test_r_and_rho_bounds(self):
        with pytest.raises(ValidationError, match="1 <= r < n"):
            small_config(r=16)
        with pytest.raises(ValidationError, match="rho must be finite"):
            small_config(rho=0.5)

    def test_replication_counts(self):
        with pytest.raises(ValidationError, match="replication counts"):
            small_config(null_replications=0)
        with pytest.raises(ValidationError, match="replication counts"):
            small_config(alt_replications=0)

    def test_communities_validation(self):
        with pytest.raises(ValidationError, match="non-empty"):
            small_config(communities=())
        with pytest.raises(ValidationError, match="community count"):
            small_config(communities=0)

    def test_communities_must_be_a_count_or_vertex_lists(self):
        # a flat list of vertices, and a bool taken for a count of 1
        for communities in ([1, 2], True, 2.0):
            with pytest.raises(ValidationError, match="a count or a list of vertex lists"):
                small_config(communities=communities)

    def test_negative_workers(self):
        with pytest.raises(ValidationError, match="workers"):
            small_config(workers=-1)

    def test_resolved_workers_env(self, monkeypatch):
        monkeypatch.setenv("SCAN_WORKERS", "3")
        assert small_config(workers=0).resolved_workers() == 3
        assert small_config(workers=2).resolved_workers() == 2
        monkeypatch.setenv("SCAN_WORKERS", "0")
        assert small_config(workers=0).resolved_workers() == 1
        for malformed in ("many", "two", " 2", "2 ", "-1", "1.5", "\u00b2"):
            monkeypatch.setenv("SCAN_WORKERS", malformed)
            with pytest.raises(ValidationError, match="SCAN_WORKERS"):
                small_config(workers=0).resolved_workers()
        monkeypatch.delenv("SCAN_WORKERS")
        assert small_config(workers=0).resolved_workers() == 1

    def test_uniform_community_draw_is_part_of_the_seed(self):
        a = small_config(communities=3, master_seed=5).resolved_communities()
        b = small_config(communities=3, master_seed=5).resolved_communities()
        c = small_config(communities=3, master_seed=6).resolved_communities()
        assert a == b
        assert a != c
        for comm in a:
            assert len(comm) == 3
            assert list(comm) == sorted(comm)
            assert all(0 <= v < 16 for v in comm)

    def test_explicit_communities_pass_through(self):
        cfg = small_config(communities=((4, 5, 6), (1, 2, 3)))
        assert cfg.resolved_communities() == ((4, 5, 6), (1, 2, 3))

    def test_dict_round_trip(self):
        cfg = small_config(family=Exhaustive(1, 3))
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_from_dict_rejects_unknown_keys(self):
        raw = small_config().to_dict()
        raw["alpha"] = 0.05
        with pytest.raises(ValidationError, match="unknown config keys"):
            ExperimentConfig.from_dict(raw)

    def test_from_dict_needs_model(self):
        raw = small_config().to_dict()
        del raw["model"]
        with pytest.raises(ValidationError, match="'model'"):
            ExperimentConfig.from_dict(raw)

    def test_family_serialization(self):
        for family in (Exhaustive(2, 5), WeightPrefix(1, 4),
                       Explicit(((0, 1), (2, 3, 4)))):
            again = SubsetFamily.from_dict(family.to_dict())
            assert type(again) is type(family)
            assert again.to_dict() == family.to_dict()
        with pytest.raises(ValidationError, match="unknown family kind"):
            SubsetFamily.from_dict({"kind": "spectral"})


class TestEstimateRisk:
    def test_never_rejecting_test_has_risk_exactly_one(self):
        # epsilon = inf pushes the scan threshold to infinity
        est = estimate_risk(small_config(epsilon=math.inf))
        assert est.type1.rate == 0.0
        assert est.worst_case_risk == 1.0
        assert est.average_risk == 1.0

    def test_rho_one_risk_is_one_for_calibrated_tests(self):
        # hypotheses coincide at rho = 1; on nine vertices neither scan can
        # clear its threshold and the ratio test sits at L = 1, so every
        # decision is "accept" and the risk lands on 1 exactly
        model = Homogeneous(9, 0.3)
        for test in ("scan_known", "scan_unknown", "lr"):
            est = estimate_risk(ExperimentConfig(
                model=model, test=test, r=3, rho=1.0, communities=2,
                null_replications=30, alt_replications=30, master_seed=3,
            ))
            assert 1.0 - 4.0 * est.type1.stderr <= est.worst_case_risk <= 1.0

    def test_test_argument_overrides_config(self):
        est = estimate_risk(small_config(), test="scan_unknown")
        assert est.metadata["test"] == "scan_unknown"

    def test_worst_dominates_average(self):
        model = Homogeneous(16, 0.3)
        cfg = ExperimentConfig(
            model=model, test="lr", r=3, rho=2.0,
            communities=((0, 1, 2), (5, 6, 7), (9, 12, 15)),
            null_replications=40, alt_replications=40, master_seed=1,
        )
        est = estimate_risk(cfg)
        assert est.worst_case_risk >= est.average_risk
        for rate in [est.type1] + list(est.type2.values()):
            assert 0.0 <= rate.rate <= 1.0
            assert rate.stderr == pytest.approx(
                math.sqrt(rate.rate * (1.0 - rate.rate) / rate.count))

    def test_null_stream_matches_manual_recount(self):
        # replication i of the null stream uses (master_seed, "null", i);
        # the lr decider rejects when the averaged ratio exceeds 1
        model = Homogeneous(12, 0.3)
        cfg = ExperimentConfig(
            model=model, test="lr", r=3, rho=1.8, communities=((0, 1, 2),),
            null_replications=25, alt_replications=2, master_seed=14,
        )
        est = estimate_risk(cfg)
        problem = LrProblem(model, 3, 1.8, community_seed=14)
        manual = sum(
            likelihood_ratio_average(
                problem, sample_null(model, derive_seed(14, "null", i))
            ).value > 1.0
            for i in range(25)
        )
        assert est.type1.successes == manual

    def test_worker_count_does_not_change_results(self):
        # with 2 alternative replications, the third worker's slice of each
        # alternative stream is empty
        for test in ("lr", "scan_known"):
            for alt_replications in (12, 2):
                base = dict(
                    model=Homogeneous(14, 0.3), test=test, r=3, rho=1.7,
                    communities=((0, 1, 2), (3, 4, 5)),
                    null_replications=12, alt_replications=alt_replications, master_seed=8,
                )
                serial = estimate_risk(ExperimentConfig(**base, workers=1))
                for workers in (2, 3):
                    pooled = estimate_risk(ExperimentConfig(**base, workers=workers))
                    assert serial.type1 == pooled.type1
                    assert serial.type2 == pooled.type2

    def test_lr_tables_are_built_once_per_estimate(self, monkeypatch):
        calls = []
        build = lr_module._log_tables

        def counting(*args):
            calls.append(args[1].shape)
            return build(*args)

        monkeypatch.setattr(lr_module, "_log_tables", counting)
        estimate_risk(small_config(test="lr", communities=4, workers=1))
        assert calls == [(math.comb(16, 3), 3)]

    def test_community_size_must_match_r(self):
        cfg = small_config(communities=((0, 1),))
        with pytest.raises(ValidationError, match="size r"):
            estimate_risk(cfg)

    def test_infeasible_lift_rejected_before_sampling(self):
        cfg = small_config(model=Homogeneous(16, 0.6), rho=2.0)
        with pytest.raises(ValidationError, match="exceeds 1"):
            estimate_risk(cfg)

    def test_metadata_records_resolved_communities(self):
        est = estimate_risk(small_config(communities=2))
        assert len(est.metadata["communities"]) == 2
        assert est.metadata["master_seed"] == 9

    @pytest.mark.parametrize("test", ["scan_known", "scan_unknown"])
    def test_deciding_scans_give_the_full_scans_bytes(self, test, monkeypatch):
        # the decider scans with decide=True; a plant both scans detect on
        # some graphs (rho = 8 on 32 of 256 vertices), against full scans
        n, r = 256, 32
        rng = np.random.default_rng(0)
        communities = (tuple(range(r)), tuple(range(40, 40 + r)))
        subsets = [c[:k] for c in communities for k in range(4, r + 1)]
        subsets += [tuple(int(v) for v in rng.choice(n, size=int(rng.integers(4, r + 1)),
                                                     replace=False)) for _ in range(40)]
        cfg = small_config(model=Homogeneous(n, 0.05), test=test, r=r, rho=8.0, epsilon=0.5,
                           communities=communities, family=Explicit(tuple(subsets)),
                           null_replications=10, alt_replications=10, workers=1)
        decided = estimate_risk(cfg)
        flags = []
        for name in ("scan_known", "scan_unknown"):
            def full_scan(*args, decide, _scan=getattr(harness_module, name), **kwargs):
                flags.append(decide)
                return _scan(*args, **kwargs)

            monkeypatch.setattr(harness_module, name, full_scan)
        full = estimate_risk(cfg)
        assert len(flags) == 30 and all(flags)
        assert min(rate.rate for rate in decided.type2.values()) < 1.0
        assert json.dumps(decided.to_json()) == json.dumps(full.to_json())

    @pytest.mark.parametrize("test", ["scan_known", "scan_unknown"])
    def test_batches_change_no_byte(self, test, monkeypatch):
        # a job decides its graphs a batch scope at a time; RankOne(20) at
        # r = 4 has 6,195 subsets, so a cap of three graphs' tables, packed
        # triangles (24 bytes), best rows (16 bytes per size) and adjacency
        # rows cuts the 15 graphs of one job into five batches, two of which
        # span streams
        model = RankOne(np.linspace(0.45, 0.05, 20))
        communities = ((12, 13, 14, 15), (16, 17, 18, 19))
        base = dict(model=model, test=test, r=4, rho=25.0, epsilon=0.5, communities=communities,
                    null_replications=7, alt_replications=4, master_seed=3)
        serial = estimate_risk(ExperimentConfig(**base, workers=1))
        pooled = estimate_risk(ExperimentConfig(**base, workers=2))
        assert json.dumps(serial.to_json()) == json.dumps(pooled.to_json())
        batches = []

        def record(samples, _batch=harness_module._batch):
            batches.append([g.planted_community for g in samples])
            return _batch(samples)

        monkeypatch.setattr(harness_module, "_batch", record)
        monkeypatch.setattr(scan_module, "_BATCH_BYTES", 3 * (6_195 + 24 + 4 * 16 + 8 * 20))
        capped = estimate_risk(ExperimentConfig(**base, workers=1))
        assert [len(b) for b in batches] == [3] * 5
        assert sum(len(set(b)) > 1 for b in batches) == 2
        assert json.dumps(capped.to_json()) == json.dumps(serial.to_json())
        # and every decision is the full scan's on its own graph
        scan_cfg = ScanConfig(4, 0.5)
        rejections = []
        for label, community, count in [("null", None, 7), ("alt-0", communities[0], 4),
                                         ("alt-1", communities[1], 4)]:
            alt = None if community is None else PlantedAlternative(community, 25.0, model)
            graphs = [sample_null(model, derive_seed(3, label, i)) if alt is None
                      else sample_alternative(model, alt, derive_seed(3, label, i))
                      for i in range(count)]
            rejections.append(sum((scan_known(model, g, scan_cfg) if test == "scan_known"
                                   else scan_unknown(g, scan_cfg)).reject for g in graphs))
        assert rejections == [serial.type1.successes] + [
            4 - rate.successes for rate in serial.type2.values()]
        assert 0 < sum(rejections) < 15 or test == "scan_unknown"

    def test_json_shape(self):
        est = estimate_risk(small_config())
        out = est.to_json()
        assert set(out) == {"type1", "type2", "worst_case_risk",
                            "average_risk", "metadata"}
        assert "0,1,2" in out["type2"]


def risk_base():
    return {
        "model": model_to_json(Homogeneous(16, 0.2)),
        "test": "lr",
        "r": 3,
        "rho": 1.5,
        "communities": [[0, 1, 2]],
        "null_replications": 4,
        "alt_replications": 4,
        "master_seed": 9,
    }


class TestSweep:
    def test_single_point_equals_direct_estimate(self, tmp_path):
        csv_path = run_sweep(risk_base(), {"rho": [1.5]}, tmp_path / "s")
        with open(csv_path, encoding="ascii") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "#schema=1"
        assert lines[1] == ("rho,type1,type1_stderr,type2_max,type2_mean,"
                            "worst_case_risk,average_risk,error")
        est = estimate_risk(ExperimentConfig.from_dict(risk_base()))
        cells = lines[2].split(",")
        assert cells[0] == "1.5"
        assert float(cells[5]) == pytest.approx(est.worst_case_risk, rel=1e-10)

    def test_rerun_is_byte_identical(self, tmp_path):
        grid = {"rho": [1.0, 1.6]}
        first = run_sweep(risk_base(), grid, tmp_path / "a")
        second = run_sweep(risk_base(), grid, tmp_path / "b")
        assert Path(first).read_bytes() == Path(second).read_bytes()

    def test_finished_points_are_skipped_on_resume(self, tmp_path):
        out = tmp_path / "s"
        run_sweep(risk_base(), {"rho": [1.5]}, out)
        point = out / "point-0000.json"
        record = json.loads(point.read_text())
        record["result"]["type1"] = 0.77  # sentinel no estimate would produce
        point.write_text(json.dumps(record))
        (out / "sweep.csv").unlink()
        csv_path = run_sweep(risk_base(), {"rho": [1.5]}, out)
        assert "0.77" in Path(csv_path).read_text(encoding="ascii")

    def test_failed_points_are_recorded_and_skipped_over(self, tmp_path):
        out = tmp_path / "s"
        csv_path = run_sweep(risk_base(), {"rho": [1.5, 0.5]}, out)
        bad = json.loads((out / "point-0001.json").read_text())
        assert bad["error_type"] == "ValidationError"
        assert "rho" in bad["error"]
        lines = Path(csv_path).read_text(encoding="ascii").splitlines()
        assert lines[3].endswith("ValidationError")
        meta = json.loads((out / "sweep-meta.json").read_text())
        assert meta["points"] == 2
        assert meta["failures"] == 1

    def test_null_grid_value_is_an_empty_cell(self, tmp_path):
        csv_path = run_sweep(risk_base(), {"lr_sample_size": [None, 4096]}, tmp_path / "s")
        lines = Path(csv_path).read_text(encoding="ascii").splitlines()
        first, second = (line.split(",") for line in lines[2:])
        assert first[0] == "" and second[0] == "4096"
        # C(16, 3) communities fit the exact budget, so the fallback size is moot
        assert first[1:] == second[1:]
        assert first[-1] == ""

    def test_empty_grid_gives_header_only_csv(self, tmp_path):
        csv_path = run_sweep(risk_base(), {"rho": []}, tmp_path / "s")
        lines = Path(csv_path).read_text(encoding="ascii").splitlines()
        assert len(lines) == 2
        assert lines[0] == "#schema=1"

    def test_boundary_kind_matches_direct_call(self, tmp_path):
        model = Homogeneous(512, 0.05)
        base = {"model": model_to_json(model), "community": list(range(8))}
        csv_path = run_sweep(base, {"target": [0.5, 1.0]}, tmp_path / "s",
                             kind="boundary")
        lines = Path(csv_path).read_text(encoding="ascii").splitlines()
        assert lines[1] == "target,rho_star,optimal_size,optimal_fraction,feasible,error"
        for line, target in zip(lines[2:], (0.5, 1.0)):
            cells = line.split(",")
            want = threshold_scaling(model, range(8), target=target)
            assert float(cells[1]) == pytest.approx(want.rho_star, rel=1e-10)
            assert cells[4] == ("true" if want.feasible else "false")

    def test_boundary_point_without_community_is_recorded(self, tmp_path):
        base = {"model": model_to_json(Homogeneous(64, 0.05))}
        out = tmp_path / "s"
        csv_path = run_sweep(base, {"target": [1.0]}, out, kind="boundary")
        record = json.loads((out / "point-0000.json").read_text())
        assert record["error_type"] == "ValidationError"
        assert record["error"] == "boundary point needs a 'community' entry"
        lines = Path(csv_path).read_text(encoding="ascii").splitlines()
        assert lines[2] == "1,,,,,ValidationError"
        assert json.loads((out / "sweep-meta.json").read_text())["failures"] == 1

    def test_grid_axis_must_be_a_list(self, tmp_path):
        with pytest.raises(ValidationError, match="grid axis"):
            run_sweep(risk_base(), {"rho": 1.5}, tmp_path / "s")

    @pytest.mark.parametrize("base, grid, message", [
        (5, {"rho": [1.5]}, "sweep base must be an object, got int"),
        ([("rho", 1.5)], {}, "sweep base must be an object, got list"),
        (risk_base(), 5, "sweep grid must be an object, got int"),
        (risk_base(), [["rho", [1.5]]], "sweep grid must be an object, got list"),
    ], ids=["base-int", "base-list", "grid-int", "grid-list"])
    def test_base_and_grid_must_be_objects(self, tmp_path, base, grid, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            run_sweep(base, grid, tmp_path / "s")
        assert not (tmp_path / "s").exists()

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ValidationError, match="kind must be one of"):
            run_sweep(risk_base(), {"rho": [1.5]}, tmp_path / "s", kind="power")

    @pytest.mark.parametrize("kind", [["risk"], {"risk": 1}, 3, None])
    def test_kind_must_be_a_name(self, tmp_path, kind):
        with pytest.raises(ValidationError, match="kind must be one of"):
            run_sweep(risk_base(), {"rho": [1.5]}, tmp_path / "s", kind=kind)
        assert not (tmp_path / "s").exists()

    def test_point_and_meta_files_are_whole_json_lines(self, tmp_path):
        out = tmp_path / "s"
        run_sweep(risk_base(), {"rho": [1.5, 0.5]}, out)
        names = sorted(p.name for p in out.iterdir())
        assert names == ["point-0000.json", "point-0001.json", "sweep-meta.json", "sweep.csv"]
        for name in names[:3]:
            text = (out / name).read_text()
            assert text.endswith("}\n")
            assert text == json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n"

    def test_point_files_from_tuple_grid_values_are_reused(self, tmp_path):
        # a point file reads tuples back as lists; that is still its grid point
        base = {"model": model_to_json(Homogeneous(64, 0.05))}
        grid = {"community": [(0, 1, 2), (3, 4, 5, 6)]}
        first = Path(run_sweep(base, grid, tmp_path / "s", kind="boundary")).read_bytes()
        points = {p.name: p.read_bytes() for p in (tmp_path / "s").glob("point-*")}
        run_sweep(base, grid, tmp_path / "s", kind="boundary")
        assert {p.name: p.read_bytes() for p in (tmp_path / "s").glob("point-*")} == points
        assert first.count(b"\n") == 4

    @pytest.mark.parametrize("text, message", [
        ('{"grid": {"rho": 1.5}, "res', "point-0000.json is not valid JSON"),
        ("[]", "point-0000.json must hold a JSON object"),
        ("{}", "point-0000.json lacks a grid, result or error"),
        ('{"grid": {"rho": 1.5}}', "point-0000.json lacks a grid, result or error"),
        ('{"grid": {"rho": 1.5}, "result": {"type1": 0.5}}',
         "point-0000.json lacks a grid, result or error"),
        ('{"grid": {"rho": 1.5}, "result": [0.5]}', "point-0000.json lacks a grid, result or error"),
        ('{"grid": {"rho": 1.0}, "error": "e", "error_type": "ValidationError"}',
         r"point-0000.json is for grid \{'rho': 1.0\}, not \{'rho': 1.5\}"),
        ('{"grid": {"target": 1.5}, "error": "e", "error_type": "ValidationError"}',
         r"point-0000.json is for grid \{'target': 1.5\}, not \{'rho': 1.5\}"),
    ], ids=["truncated", "list", "empty-object", "no-outcome", "missing-column",
            "result-list", "stale-value", "stale-key"])
    def test_foreign_point_files_are_rejected(self, tmp_path, text, message):
        out = tmp_path / "s"
        out.mkdir()
        (out / "point-0000.json").write_text(text)
        with pytest.raises(ValidationError, match=message):
            run_sweep(risk_base(), {"rho": [1.5]}, out)
        assert not (out / "sweep.csv").exists()

    def test_stale_boundary_sweep_is_rejected(self, tmp_path):
        # a re-run over another grid into the same directory must not collect
        # the old points' rows
        base = {"model": model_to_json(Homogeneous(64, 0.05)), "community": [0, 1, 2]}
        run_sweep(base, {"target": [1.0, 2.0]}, tmp_path / "s", kind="boundary")
        with pytest.raises(ValidationError, match=r"is for grid \{'target': 1.0\}, "
                                                  r"not \{'target': 3.0\}"):
            run_sweep(base, {"target": [3.0, 4.0]}, tmp_path / "s", kind="boundary")


class TestDistinctCommunities:
    """Each community of a risk estimate keeps its own stream and rate."""

    def config(self, communities, **overrides):
        return ExperimentConfig(model=Homogeneous(6, 0.3), test="scan_known", r=4, rho=1.5,
                                communities=communities, null_replications=2,
                                alt_replications=2, master_seed=1, **overrides)

    @staticmethod
    def draw(j):
        rng = generator(derive_seed(1, "community-draw", j))
        return tuple(int(v) for v in np.sort(rng.choice(6, size=4, replace=False)))

    def test_drawn_count_gives_that_many_distinct_communities(self):
        assert len({self.draw(j) for j in range(8)}) == 7  # one repeat in the first 8 draws
        distinct = list(dict.fromkeys(self.draw(j) for j in range(20)))
        config = self.config(8)
        assert config.resolved_communities() == tuple(distinct[:8])
        est = estimate_risk(config)
        assert len(est.type2) == 8
        assert [list(c) for c in est.type2] == est.metadata["communities"]

    def test_draws_without_a_repeat_are_unchanged(self):
        assert self.config(2).resolved_communities() == (self.draw(0), self.draw(1))

    def test_every_community_can_be_drawn(self):
        # C(6, 4) = 15
        assert sorted(self.config(15).resolved_communities()) == list(
            itertools.combinations(range(6), 4))
        with pytest.raises(ValidationError, match="cannot draw 16 distinct communities"):
            self.config(16)

    @pytest.mark.parametrize("communities", [
        ((0, 1, 2, 3), (0, 1, 2, 3)),
        ((0, 1, 2, 3), (2, 4, 3, 5), (3, 2, 1, 0)),
    ], ids=["equal", "reordered"])
    def test_repeated_explicit_communities_are_rejected(self, communities):
        with pytest.raises(ValidationError, match="distinct vertex sets"):
            self.config(communities)


class TestSweepGridValues:
    """Grid values enter a sweep in the form its point files read back."""

    @pytest.mark.parametrize("grid", [
        {"community": [(0, 1, 2)]},
        {"model": [{"variant": "homogeneous", "p": 0.05, "n": 64}]},
    ], ids=["tuple", "object"])
    def test_fresh_and_resumed_csv_are_identical(self, tmp_path, grid):
        base = {"model": model_to_json(Homogeneous(64, 0.05)), "community": [0, 1, 2]}
        out = tmp_path / "s"
        fresh = Path(run_sweep(base, grid, out, kind="boundary")).read_bytes()
        (out / "sweep.csv").unlink()
        resumed = Path(run_sweep(base, grid, out, kind="boundary")).read_bytes()
        assert fresh == resumed
        assert b"ValidationError" not in fresh

    def test_tuple_value_is_written_as_a_list(self, tmp_path):
        base = {"model": model_to_json(Homogeneous(64, 0.05))}
        csv_path = run_sweep(base, {"community": [(0, 1, 2)]}, tmp_path / "s", kind="boundary")
        assert Path(csv_path).read_text(encoding="ascii").splitlines()[2].startswith(
            '"[0, 1, 2]",')

    @pytest.mark.parametrize("value", [np.int64(2), float("nan"), math.inf, {1, 2}],
                             ids=["numpy-int", "nan", "inf", "set"])
    def test_value_json_cannot_hold_is_rejected_before_any_point(self, tmp_path, value):
        grid = {"rho": [1.5], "r": [3, value]}
        with pytest.raises(ValidationError, match="grid axis 'r' holds a value JSON cannot hold"):
            run_sweep(risk_base(), grid, tmp_path / "s")
        assert not (tmp_path / "s").exists()
