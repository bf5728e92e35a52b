"""Tests for the campaign layer (repro.campaign): spec expansion
determinism, skip-completed semantics against the result cache,
re-runs after injected faults, the shared job planner, the simulation
guard and its warm-path guarantee, and the CLI's exit-code conventions.

Everything runs at TINY scale with REPRO_JOBS=1 (inline supervised
execution) so the whole file stays fast; the zero-simulation
assertions read ``repro.core.simulator.stats``, which only counts runs
in this process — exactly what inline execution gives us.
"""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.campaign import CampaignDriver, CampaignSpec, load_spec
from repro.campaign.spec import apply_overrides, parse_toml
from repro.config import ndp_config
from repro.core import simulator
from repro.errors import ConfigError, SimulationDenied
from repro.guard import deny_simulation, simulation_denied
from repro.trace.generator import TraceScale


@pytest.fixture(autouse=True)
def _serial_and_clean(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "1")
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULTS_STATE", raising=False)
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    simulator.stats["runs"] = 0


def small_spec(
    name="t", workloads=("BP",), policies=("baseline", "ctrl+bmap"), exclude=()
):
    return CampaignSpec.from_dict(
        {
            "name": name,
            "workloads": list(workloads),
            "policies": list(policies),
            "scales": ["TINY"],
            "seeds": [0],
            "exclude": list(exclude),
        }
    )


SAMPLE_TOML = """
name = "sample"

[axes]
workloads = ["BP", "BFS"]
policies = ["baseline", "ctrl+tmap"]
scales = ["TINY"]
seeds = [0, 1]

[[configs]]
name = "default"

[[configs]]
name = "halfbw"
[configs.overrides]
"links.cross_stack_gbps" = 20.0

[[exclude]]
workload = "BFS"
policy = "ctrl+tmap"

[pin]
seed = 0
"""


class TestSpec:
    def test_expansion_is_deterministic(self):
        spec = CampaignSpec.from_dict(parse_toml(SAMPLE_TOML))
        first = spec.expand()
        second = CampaignSpec.from_dict(parse_toml(SAMPLE_TOML)).expand()
        assert [p.point_id for p in first] == [p.point_id for p in second]
        assert spec.fingerprint() == CampaignSpec.from_dict(
            parse_toml(SAMPLE_TOML)
        ).fingerprint()

    def test_pin_and_exclude(self):
        points = CampaignSpec.from_dict(parse_toml(SAMPLE_TOML)).expand()
        assert all(p.seed == 0 for p in points)  # [pin] seed = 0
        assert not any(
            p.workload == "BFS" and p.policy == "ctrl+tmap" for p in points
        )
        # 2 configs x 1 scale x 1 pinned seed x (2x2 product - 1 excluded)
        assert len(points) == 6
        assert {p.config for p in points} == {"default", "halfbw"}

    def test_point_ids_distinguish_configs_not_code(self):
        spec = CampaignSpec.from_dict(parse_toml(SAMPLE_TOML))
        by_config = {}
        for point in spec.expand():
            by_config.setdefault(point.config, set()).add(point.point_id)
        assert by_config["default"].isdisjoint(by_config["halfbw"])

    def test_suite_shorthand(self):
        spec = CampaignSpec.from_dict(
            {"name": "all", "workloads": "suite", "policies": ["baseline"]}
        )
        assert len(spec.workloads) == 10

    @pytest.mark.parametrize(
        "patch",
        [
            {"workloads": ["NOPE"]},
            {"policies": ["warp-drive"]},
            {"axes": {"scales": ["HUGE"]}},
            {"pin": {"planet": "mars"}},
            {"exclude": [{"planet": "mars"}]},
        ],
    )
    def test_validation_rejects_unknowns(self, patch):
        data = {
            "name": "bad",
            "workloads": ["BP"],
            "policies": ["baseline"],
            "scales": ["TINY"],
        }
        axes = patch.pop("axes", None)
        data.update(patch)
        if axes:
            data.update(axes)
        with pytest.raises(ConfigError):
            CampaignSpec.from_dict(data)

    def test_bad_override_rejected(self):
        with pytest.raises(ConfigError, match="no field"):
            CampaignSpec.from_dict(
                {
                    "name": "bad",
                    "workloads": ["BP"],
                    "policies": ["baseline"],
                    "configs": [
                        {"name": "x", "overrides": {"links.warp_speed": 9}}
                    ],
                }
            )

    def test_duplicate_config_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            CampaignSpec.from_dict(
                {
                    "name": "dup",
                    "workloads": ["BP"],
                    "policies": ["baseline"],
                    "configs": [{"name": "a"}, {"name": "a"}],
                }
            )

    def test_empty_expansion_rejected(self):
        spec = CampaignSpec.from_dict(
            {
                "name": "empty",
                "workloads": ["BP"],
                "policies": ["baseline"],
                "exclude": [{"workload": "BP"}],
            }
        )
        with pytest.raises(ConfigError, match="zero points"):
            spec.expand()

    def test_apply_overrides(self):
        assert ndp_config().links.cross_stack_gbps != 20.0
        config = apply_overrides(
            ndp_config(), {"links.cross_stack_gbps": 20.0}
        )
        assert config.links.cross_stack_gbps == 20.0
        # untouched fields survive
        assert config.stacks.n_stacks == ndp_config().stacks.n_stacks


class TestTomlLoading:
    def test_parses_sample(self):
        data = parse_toml(SAMPLE_TOML, "sample")
        assert data["name"] == "sample"
        assert data["axes"]["seeds"] == [0, 1]
        assert data["configs"][1]["overrides"]["links.cross_stack_gbps"] == 20.0
        assert data["exclude"][0]["workload"] == "BFS"
        assert data["pin"]["seed"] == 0

    @pytest.mark.parametrize(
        "text",
        [
            "key",  # no assignment
            'a = "unterminated',
            "a = [1, 2",  # unclosed array
            "[table",  # unclosed header
            "a = what",  # unparseable value
        ],
    )
    def test_malformed_toml_raises_config_error(self, text):
        with pytest.raises(ConfigError, match="bad TOML in bad"):
            parse_toml(text, "bad")

    def test_load_spec_toml_and_json(self, tmp_path):
        toml_path = tmp_path / "c.toml"
        toml_path.write_text(SAMPLE_TOML)
        from_toml = load_spec(toml_path)
        json_path = tmp_path / "c.json"
        json_path.write_text(
            json.dumps(
                {
                    "name": "sample",
                    "axes": {
                        "workloads": ["BP", "BFS"],
                        "policies": ["baseline", "ctrl+tmap"],
                        "scales": ["TINY"],
                        "seeds": [0, 1],
                    },
                    "configs": [
                        {"name": "default"},
                        {
                            "name": "halfbw",
                            "overrides": {"links.cross_stack_gbps": 20.0},
                        },
                    ],
                    "exclude": [{"workload": "BFS", "policy": "ctrl+tmap"}],
                    "pin": {"seed": 0},
                }
            )
        )
        assert from_toml.fingerprint() == load_spec(json_path).fingerprint()

    def test_load_spec_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_spec(tmp_path / "missing.toml")


class TestGuard:
    def test_denies_trace_build(self):
        spec = small_spec()
        with deny_simulation():
            assert simulation_denied()
            with pytest.raises(SimulationDenied):
                CampaignDriver(spec).run()
        assert not simulation_denied()

    def test_reentrant(self):
        with deny_simulation():
            with deny_simulation():
                assert simulation_denied()
            assert simulation_denied()

    def test_simulator_counts_runs(self):
        CampaignDriver(small_spec(policies=("baseline",))).run()
        assert simulator.stats["runs"] == 1

    def test_warm_queries_pass_the_guard(self):
        """Once a campaign has answered its points, fresh runners read
        them back under the guard: equal results, nothing raised and
        no simulation. Fails if a guard check moves ahead of the
        persistent-cache probe in ``run`` or ``run_grid``."""
        from repro.core.experiment import WorkloadRunner
        from repro.core.policies import POLICIES_BY_LABEL

        spec = small_spec(policies=("baseline", "ctrl+bmap", "ctrl+tmap"))
        report = CampaignDriver(spec).run()
        assert report.ok
        cold = {p.policy: report.result_for(p) for p in spec.expand()}
        policies = [POLICIES_BY_LABEL[label] for label in cold]

        simulator.stats["runs"] = 0
        with deny_simulation():
            scalar = {
                p.label: WorkloadRunner("BP", scale=TraceScale.TINY).run(p)
                for p in policies
            }
            grid = WorkloadRunner("BP", scale=TraceScale.TINY).run_grid(policies)
        assert scalar == cold
        assert grid == cold
        assert simulator.stats["runs"] == 0


class TestDriver:
    def test_completed_campaign_reruns_zero_simulations(self):
        spec = small_spec(workloads=("BP", "BFS"))
        first = CampaignDriver(spec).run()
        assert first.ok and first.executed == 4 and first.cache_hits == 0
        assert simulator.stats["runs"] > 0

        simulator.stats["runs"] = 0
        second = CampaignDriver(spec).run()
        assert second.ok
        assert second.cache_hits == second.planned == 4
        assert second.executed == 0
        assert simulator.stats["runs"] == 0  # the acceptance criterion
        assert set(second.results) == {p.point_id for p in spec.expand()}

    def test_pre_seeded_cache_skips_simulation(self):
        # Seed the cache through the ordinary runner, then verify the
        # campaign recognizes those points as already answered.
        from repro.core.experiment import WorkloadRunner
        from repro.core.policies import POLICIES_BY_LABEL

        runner = WorkloadRunner("BP", scale=TraceScale.TINY, seed=0)
        runner.run(POLICIES_BY_LABEL["baseline"])
        runner.run(POLICIES_BY_LABEL["ctrl+bmap"])
        simulator.stats["runs"] = 0
        report = CampaignDriver(small_spec()).run()
        assert report.ok and report.cache_hits == 2 and report.executed == 0
        assert simulator.stats["runs"] == 0

    def test_no_cache_pass_simulates_again(self, monkeypatch):
        """With the cache off nothing records completion, by design:
        every pass simulates every point."""
        spec = small_spec()
        assert CampaignDriver(spec).run().ok
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        simulator.stats["runs"] = 0
        report = CampaignDriver(spec).run()
        assert report.ok and report.cache_hits == 0 and report.executed == 2
        assert simulator.stats["runs"] == 2

    def test_status_classification(self, monkeypatch):
        spec = small_spec(workloads=("BP", "BFS"))
        driver = CampaignDriver(spec)
        before = driver.status()
        assert before.pending == before.total == 4 and not before.done
        driver.run()
        after = CampaignDriver(spec).status()
        assert after.done and after.cached == 4 and after.pending == 0
        # With the cache off nothing is recorded as done.
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        uncached = CampaignDriver(spec).status()
        assert uncached.pending == 4 and not uncached.done

    def test_fault_then_resume(self, monkeypatch):
        """BP's job raises (injected); BFS's one point completes. The
        next pass — faults cleared, cache on — simulates exactly BP's
        points (the exclusion keeps BFS/ctrl+bmap out of every pass) and
        answers equal a clean run with the cache off."""
        spec = small_spec(
            workloads=("BP", "BFS"),
            exclude=[{"workload": "BFS", "policy": "ctrl+bmap"}],
        )
        monkeypatch.setenv("REPRO_MAX_RETRIES", "0")
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        clean = CampaignDriver(spec).run()
        monkeypatch.delenv("REPRO_NO_CACHE")
        assert clean.ok and clean.planned == 3

        monkeypatch.setenv("REPRO_FAULTS", "raise@job/BP")
        failed = CampaignDriver(spec).run()
        assert not failed.ok
        assert [f.workload for f in failed.failures] == ["BP"]
        assert {p.workload for p in failed.failed_points} == {"BP"}
        assert len(failed.results) == 1  # BFS's baseline answered

        status = CampaignDriver(spec).status()
        assert status.cached == 1 and status.pending == 2 and not status.done
        assert {p.workload for p in status.pending_points} == {"BP"}

        monkeypatch.delenv("REPRO_FAULTS")
        simulator.stats["runs"] = 0
        recovered = CampaignDriver(spec).run()
        assert recovered.ok
        assert [o.job.workload for o in recovered.outcomes] == ["BP"]
        assert recovered.cache_hits == 1 and recovered.executed == 2
        assert simulator.stats["runs"] == 2  # only BP's two points
        assert recovered.results == clean.results

    def test_report_summary_renders(self):
        from repro.analysis.reporting import render_grid_summary

        spec = small_spec()
        report = CampaignDriver(spec).run()
        text = render_grid_summary(spec.name, report.grids())
        assert "BP" in text and "ctrl+bmap" in text
        assert "speedup over baseline" in text
        # A baseline-only grid renders its IPC instead of an empty table.
        only = small_spec(policies=("baseline",))
        text = render_grid_summary(only.name, CampaignDriver(only).run().grids())
        assert "baseline" in text and "note: IPC" in text

    def test_identically_resolving_configs_keep_their_names(self):
        # Two *named* configs that resolve to the same SystemConfig share
        # one variant of one job. Each must still get its own grid in the
        # roll-up, or the summary silently drops one table.
        from repro.analysis.reporting import render_grid_summary
        from repro.campaign.spec import CampaignConfig

        spec = CampaignSpec.from_dict(
            {
                "name": "twin",
                "workloads": ["BP"],
                "policies": ["baseline", "ctrl+bmap"],
                "scales": ["TINY"],
                "seeds": [0],
            }
        )
        twin = CampaignSpec(
            **{
                **{f: getattr(spec, f) for f in spec.__dataclass_fields__},
                "configs": (
                    CampaignConfig(name="default"),
                    CampaignConfig(name="alias"),  # resolves identically
                ),
            }
        )
        report = CampaignDriver(twin).run()
        assert report.ok and len(report.results) == 4
        (outcome,) = report.outcomes
        assert len(outcome.job.variants) == 1
        assert sorted(config for config, _, _ in report.grids()) == ["alias", "default"]
        text = render_grid_summary(twin.name, report.grids())
        assert "config=default" in text and "config=alias" in text

    def test_trace_sharing_configs_ride_one_variant_job(self):
        # Named configs that differ only in fields the trace ignores
        # (here: cross-stack bandwidth) become one job carrying both as
        # variants: one trace build and the baseline simulated once.
        from repro.core.experiment import WorkloadRunner
        from repro.core.policies import BASELINE, NDP_CTRL_TMAP

        spec = CampaignSpec.from_dict(
            {
                "name": "sweep",
                "workloads": ["BP"],
                "policies": ["baseline", "ctrl+tmap"],
                "scales": ["TINY"],
                "seeds": [0],
                "configs": [
                    {"name": "default"},
                    {
                        "name": "halfbw",
                        "overrides": {"links.cross_stack_gbps": 20.0},
                    },
                ],
            }
        )
        report = CampaignDriver(spec).run()
        assert report.ok and report.executed == 4
        (outcome,) = report.outcomes
        assert len(outcome.job.variants) == 2
        assert simulator.stats["runs"] == 3  # baseline deduplicated
        configs = {c.name: c.resolve() for c in spec.configs}
        for point in report.points:
            runner = WorkloadRunner(
                "BP",
                scale=TraceScale.TINY,
                ndp_configuration=configs[point.config],
            )
            expected = [runner.run(p, cache=False) for p in (BASELINE, NDP_CTRL_TMAP)]
            assert report.result_for(point) == expected[point.policy != "baseline"]

        simulator.stats["runs"] = 0
        again = CampaignDriver(spec).run()
        assert again.cache_hits == 4 and simulator.stats["runs"] == 0

    def test_plans_the_same_jobs_as_the_suite(self, monkeypatch):
        """One planner: for a rectangular product the campaign hands
        ``run_supervised`` exactly the job list the suite does."""
        from repro.core import experiment
        from repro.core.policies import NDP_CTRL_TMAP

        dispatched = []
        monkeypatch.setattr(
            experiment, "run_supervised", lambda jobs, **_: dispatched.append(jobs) or []
        )
        spec = CampaignSpec.from_dict(
            {
                "name": "rect",
                "workloads": ["BP", "BFS"],
                "policies": ["baseline", "ctrl+tmap"],
                "scales": ["TINY"],
                "seeds": [0],
                "configs": [
                    {"name": "default"},
                    {
                        "name": "halfbw",
                        "overrides": {"links.cross_stack_gbps": 20.0},
                    },
                ],
            }
        )
        CampaignDriver(spec).run()
        experiment.run_suite_supervised(
            (NDP_CTRL_TMAP,),
            scale=TraceScale.TINY,
            workloads=["BP", "BFS"],
            variants=[c.resolve() for c in spec.configs],
        )
        campaign_jobs, suite_jobs = dispatched
        assert [job.workload for job in suite_jobs] == ["BP", "BFS"]
        assert all(len(job.variants) == 2 for job in suite_jobs)
        assert campaign_jobs == suite_jobs


class TestCli:
    def _write_spec(self, tmp_path, name="clic"):
        path = tmp_path / "c.toml"
        path.write_text(
            f'name = "{name}"\n'
            'workloads = ["BP"]\n'
            'policies = ["baseline", "ctrl+bmap"]\n'
            'scales = ["TINY"]\n'
            "seeds = [0]\n"
        )
        return path

    def test_run_then_status_exit_codes(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path)
        assert cli.main(["campaign", "status", str(spec)]) == 3  # pending
        assert cli.main(["campaign", "run", str(spec)]) == 0
        assert cli.main(["campaign", "status", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "cache hits" in out or "simulated" in out
        assert "clic: config=default scale=TINY seed=0" in out  # roll-up

    def test_partial_run_exits_3(self, tmp_path, monkeypatch, capsys):
        spec = self._write_spec(tmp_path, name="flaky")
        monkeypatch.setenv("REPRO_FAULTS", "raise@job/BP")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "0")
        assert cli.main(["campaign", "run", str(spec)]) == 3
        capsys.readouterr()

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.toml"
        path.write_text('name = "x"\nworkloads = ["NOPE"]\npolicies = ["baseline"]\n')
        assert cli.main(["campaign", "run", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_figure_choices_match_registry(self):
        from repro.analysis.figures import FIGURE_BUILDERS

        assert set(cli._FIGURES) == set(FIGURE_BUILDERS)
