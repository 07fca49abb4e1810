"""Command-line front end: configs, outputs, determinism, verify suites."""

import json
import multiprocessing
import os
import re
import subprocess
import sys
import tarfile
from pathlib import Path

import numpy as np
import pytest

from tthjb.cli import main, parse_run_config, ConfigError, _potential_floor_check
from tthjb.integrate import SolverConfig
from tthjb.sample import SamplerConfig
from tthjb.operators import BUILTINS, PotentialSpec, PotentialTerm, build_potential_tt
from tthjb.basis import PolySpace

ROOT = Path(__file__).resolve().parents[1]


def gaussian_config(tmp_path, d=2, T=1.5, seed=7, out="run"):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0, 1, (d, d))
    q = a.T @ a + 0.1 * np.eye(d)
    cfg = {
        "space": {"dims": d, "intervals": [[-5.0, 5.0]] * d, "degrees": [2] * d},
        "potential": {"builtins": [
            {"name": "gaussian", "coords": list(range(d)), "params": {"Q": q.tolist()}}]},
        "solver": {"T": T, "tau_max": 0.1, "rho": 0.2, "seed": 11},
        "sampler": {"lambda": 0.0, "n_particles": 64, "seed": 5},
        "output_dir": str(tmp_path / out),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=1))
    return path, cfg


def readme_config():
    """The README's d=6 mixed example config."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("Example config:", 1)[1].split("```json\n", 1)[1]
    return json.loads(block.split("```", 1)[0])


class TestConfigParsing:
    def test_valid_config(self, tmp_path):
        path, raw = gaussian_config(tmp_path)
        space, pot, solver, sampler, out = parse_run_config(json.loads(path.read_text()))
        assert space.d == 2
        assert solver.T == 1.5
        assert sampler.n_particles == 64

    def test_missing_field_names_the_path(self):
        with pytest.raises(ConfigError, match="solver.T"):
            parse_run_config({"space": {"dims": 1, "intervals": [[-1, 1]],
                                        "degrees": [2]},
                              "potential": {"terms": []},
                              "solver": {"tau_max": 0.1},
                              "output_dir": "x"})

    def test_bad_interval_named(self):
        with pytest.raises(ConfigError, match=r"space.intervals\[0\]"):
            parse_run_config({"space": {"dims": 1, "intervals": [[1, -1]],
                                        "degrees": [2]},
                              "potential": {"terms": []},
                              "solver": {"T": 1, "tau_max": 0.1},
                              "output_dir": "x"})

    def test_negative_degree_rejected(self):
        with pytest.raises(ConfigError, match="degrees"):
            parse_run_config({"space": {"dims": 1, "intervals": [[-1, 1]],
                                        "degrees": [-1]},
                              "potential": {"terms": []},
                              "solver": {"T": 1, "tau_max": 0.1},
                              "output_dir": "x"})

    @pytest.mark.parametrize("space,path", [
        ({"dims": None}, "space.dims"),
        ({"degrees": [None]}, r"space.degrees\[0\]"),
        ({"intervals": [5]}, r"space.intervals\[0\]"),
        ({"intervals": [[-5, "a"]]}, r"space.intervals\[0\]"),
    ], ids=["dims-null", "degree-null", "interval-scalar", "interval-string"])
    def test_malformed_space_exits_1(self, tmp_path, capsys, space, path):
        cfg_path, cfg = gaussian_config(tmp_path, d=1)
        cfg["space"].update(space)
        cfg_path.write_text(json.dumps(cfg))
        assert main(["solve", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert re.match(f"config error at {path}:", err) and err.count("\n") == 1

    @pytest.mark.parametrize("section,key", [
        ("solver", "power_max_iter"), ("solver", "power_stability_window"),
        ("solver", "power_perturb"), ("space", "dim"), ("potential", "builtin"),
        ("sampler", "n_particle"), ("sampler", "lam"), ("$", "outputdir"),
    ], ids=["power_max_iter", "power_stability_window", "power_perturb", "space",
            "potential", "sampler", "sampler-field-name", "top-level"])
    def test_unknown_solver_key_exits_1(self, tmp_path, capsys, section, key):
        cfg_path, cfg = gaussian_config(tmp_path, d=1)
        (cfg if section == "$" else cfg[section])[key] = 6
        cfg_path.write_text(json.dumps(cfg))
        assert main(["solve", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"config error at {section}.{key}: unknown key\n"

    @pytest.mark.parametrize("edit,path,message", [
        (lambda b: b.update(param=b.pop("params")), "builtins[0].param", "unknown key"),
        (lambda b: b["params"].update(sigmaa=b["params"].pop("sigma")),
         "builtins[0].params.sigmaa", "unknown key"),
        (lambda b: b["params"].pop("sigma"), "builtins[0].params.sigma",
         "missing required field"),
        (lambda b: b.pop("params"), "builtins[0].params.sigma", "missing required field"),
        (lambda b: b.pop("coords"), "builtins[0].coords", "missing required field"),
        (lambda b: b.update(name="bananas"), "builtins[0].name",
         "unknown builtin potential 'bananas'"),
    ], ids=["param", "sigmaa", "no-sigma", "no-params", "no-coords", "unknown-name"])
    def test_bad_builtin_key_exits_1(self, tmp_path, capsys, edit, path, message):
        cfg = readme_config()
        edit(cfg["potential"]["builtins"][0])
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["solve", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"config error at potential.{path}: {message}\n"

    @pytest.mark.parametrize("name,params,key", [
        ("gaussian", {"Q": [[1.0]], "sigma": [[1.0]]}, "sigma"),
        ("doublewell", {"Q": [[1.0]]}, "Q"),
        ("sextic", {"scale": 1.0}, "scale"),
        ("iso_tail", {"a": 1}, "a"),
    ])
    def test_builtin_params_are_checked_per_name(self, tmp_path, name, params, key):
        _, cfg = gaussian_config(tmp_path, d=1)
        cfg["potential"] = {"builtins": [{"name": name, "coords": [0], "params": params}]}
        with pytest.raises(ConfigError, match=re.escape(
                f"potential.builtins[0].params.{key}: unknown key")):
            parse_run_config(cfg)

    @pytest.mark.parametrize("term,path,message", [
        ({"coords": [0], "poly": [{"exps": [2], "coef": 1.0, "coeff": 2.0}]},
         "terms[0].poly[0].coeff", "unknown key"),
        ({"coords": [0], "poly": [{"exps": [2]}]}, "terms[0].poly[0].coef",
         "missing required field"),
        ({"coords": [0], "poly": [{"exps": [2], "coef": 1.0}], "weight": 2},
         "terms[0].weight", "unknown key"),
        ({"poly": []}, "terms[0].coords", "missing required field"),
        ({"coords": [0], "poly": {"exps": [2], "coef": 1.0}}, "terms[0].poly",
         "expected <class 'list'>"),
        ([0, 1], "terms[0]", "expected an object"),
    ], ids=["coeff", "no-coef", "weight", "no-coords", "poly-object", "term-list"])
    def test_bad_term_key_is_a_config_error(self, tmp_path, term, path, message):
        _, cfg = gaussian_config(tmp_path, d=1)
        cfg["potential"] = {"terms": [term]}
        with pytest.raises(ConfigError, match=re.escape(f"potential.{path}: {message}")):
            parse_run_config(cfg)

    @pytest.mark.parametrize("edit,path", [
        (lambda c: c["sampler"].update(langevin_steps=0.9), "sampler.langevin_steps"),
        (lambda c: c["sampler"].update(n_particles=1999.5), "sampler.n_particles"),
        (lambda c: c["solver"].update(p_digits=True), "solver.p_digits"),
        (lambda c: c["space"].update(degrees=[4.7, 2, 4, 4, 6, 6]), "space.degrees[0]"),
        (lambda c: c["solver"].update(power_max_iters=float("inf")),
         "solver.power_max_iters"),
        (lambda c: c["solver"].update(T=float("nan")), "solver.T"),
        (lambda c: c["potential"].update(terms=[
            {"coords": [0.7], "poly": [{"exps": [2.5], "coef": 1.0}]}]),
         "potential.terms[0].coords[0]"),
        (lambda c: c["potential"].update(terms=[
            {"coords": [0], "poly": [{"exps": [2.5], "coef": 1.0}]}]),
         "potential.terms[0].poly[0].exps[0]"),
        (lambda c: c["potential"].update(terms=[
            {"coords": [0], "poly": [{"exps": [-1], "coef": 1.0}]}]),
         "potential.terms[0].poly[0].exps[0]"),
        (lambda c: c["potential"].update(terms=[
            {"coords": [0, 0], "poly": [{"exps": [2, 1], "coef": 1.0}]}]),
         "potential.terms[0].coords"),
        (lambda c: c["potential"]["builtins"][0].update(coords=[0, 0]),
         "potential.builtins[0].coords"),
        (lambda c: c["potential"]["builtins"][0].update(coords=[0, 1, 2]),
         "potential.builtins[0].coords"),
        (lambda c: c["potential"]["builtins"][0]["params"].update(sigma=[[1]]),
         "potential.builtins[0].params.sigma"),
        (lambda c: c["potential"]["builtins"][0]["params"].update(
            sigma=np.eye(3).tolist()), "potential.builtins[0].params.sigma"),
        (lambda c: c["potential"]["builtins"].append(
            {"name": "gaussian", "coords": [4, 5], "params": {"Q": [[1.0]]}}),
         "potential.builtins[3].params.Q"),
        (lambda c: c["solver"].update(rho="0.5"), "solver.rho"),
        (lambda c: c["solver"].update(rho=[[False, 0.5]]), "solver.rho[0]"),
        (lambda c: c["solver"].update(rho=[[0, 0.2], [float("nan"), 0.9]]),
         "solver.rho[1]"),
    ], ids=["langevin_steps-fraction", "n_particles-fraction", "p_digits-bool",
            "degree-fraction", "power_max_iters-inf", "T-nan", "coord-fraction",
            "exp-fraction", "exp-negative", "term-coords-repeat", "banana-coords-repeat",
            "banana-3-coords", "sigma-1x1", "sigma-3x3", "Q-1x1-on-2-coords",
            "rho-string", "rho-bool-breakpoint", "rho-nan-breakpoint"])
    def test_bad_value_exits_1(self, tmp_path, capsys, edit, path):
        cfg = readme_config()
        edit(cfg)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["solve", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error at {path}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_each_builtin_parses_and_builds(self, tmp_path, name):
        shapes, count, _ = BUILTINS[name]
        n = count or 2
        params = {key: np.eye(*(n if s == "n" else s for s in shape)).tolist()
                  for key, shape in shapes.items()}
        builtin = {"name": name, "coords": list(range(n)), "params": params}
        _, cfg = gaussian_config(tmp_path, d=n)
        cfg["space"]["degrees"] = [6] * n
        cfg["potential"] = {"builtins": [builtin]}
        space, spec, *_ = parse_run_config(cfg)
        assert spec.builtins == [dict(builtin, coords=tuple(range(n)))]
        phi = build_potential_tt(spec, space)
        _potential_floor_check(phi)
        assert phi.mode_sizes == space.mode_sizes

    def test_potential_json_round_trip(self, tmp_path):
        _, cfg = gaussian_config(tmp_path, d=3)
        cfg["potential"] = {"terms": [{"coords": [0, 2], "poly": [
            {"exps": [2, 0], "coef": 1.0}, {"exps": [1, 1], "coef": -0.5}]}],
            "builtins": [{"name": "iso_tail", "coords": [1], "params": {}}]}
        spec = parse_run_config(cfg)[1]
        assert spec.terms[0].coords == (0, 2)
        assert spec.builtins[0]["name"] == "iso_tail"
        x = np.array([1.0, 2.0, 3.0])
        # x0^2 - 0.5 x0 x2 + x1^2
        assert spec.evaluate(x) == pytest.approx(1 - 1.5 + 4)

    def test_benchmark_configs_pass_the_key_checks(self, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        import workloads
        for name in ("mixed6-solve", "gauss10-solve"):
            parse_run_config(workloads.WORKLOADS[name].config())
        with tarfile.open(workloads.TRAJECTORY) as tar:
            member = next(m for m in tar if m.name.endswith("manifest.json"))
            parse_run_config(json.load(tar.extractfile(member))["config"])

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_bool_field_takes_only_json_bools(self, tmp_path, capsys, value):
        cfg_path, cfg = gaussian_config(tmp_path, d=1)
        cfg["sampler"]["clamp_to_domain"] = value
        cfg_path.write_text(json.dumps(cfg))
        assert main(["solve", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error at sampler.clamp_to_domain:")
        assert err.count("\n") == 1
        for flag in (False, True):
            cfg["sampler"]["clamp_to_domain"] = flag
            assert parse_run_config(cfg)[3].clamp_to_domain is flag

    def test_defaults_come_from_the_dataclasses(self, tmp_path):
        _, cfg = gaussian_config(tmp_path)
        del cfg["sampler"]
        cfg["solver"] = {"T": 2, "tau_max": 0.1, "seed": 3}
        _, _, solver, sampler, _ = parse_run_config(cfg)
        assert solver == SolverConfig(T=2.0, tau_max=0.1, seed=3)
        assert sampler == SamplerConfig(seed=3)
        cfg["sampler"] = {"lambda": 0.5, "seed": 4}
        assert parse_run_config(cfg)[3] == SamplerConfig(lam=0.5, seed=4)

    def test_readme_example_config_parses(self):
        space, _, solver, sampler, out = parse_run_config(readme_config())
        assert space.d == 6 and solver.T == 10.0 and sampler.n_particles == 2000

    def test_floor_check_rejects_constant(self):
        space = PolySpace([(-1, 1)] * 2, [2, 2])
        spec = PotentialSpec(terms=[PotentialTerm((), {(): 1.0})])
        phi = build_potential_tt(spec, space)
        with pytest.raises(ConfigError, match="quadratic"):
            _potential_floor_check(phi)

    def test_floor_check_rejects_missing_dimension(self):
        space = PolySpace([(-1, 1)] * 2, [2, 2])
        spec = PotentialSpec(terms=[PotentialTerm((0,), {(2,): 1.0})])
        phi = build_potential_tt(spec, space)
        with pytest.raises(ConfigError, match="dimension 1"):
            _potential_floor_check(phi)

    def test_floor_check_accepts_mixed_signs(self):
        # negative quadratic coefficients with quartic confinement are fine
        space = PolySpace([(-2, 2)] * 2, [4, 4])
        spec = PotentialSpec(builtins=[{"name": "doublewell", "coords": (0, 1),
                                        "params": {}}])
        _potential_floor_check(build_potential_tt(spec, space))


class TestSolveCommand:
    def test_solve_writes_outputs(self, tmp_path):
        path, raw = gaussian_config(tmp_path)
        assert main(["solve", str(path)]) == 0
        out = tmp_path / "run"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"] is None
        assert manifest["final_time"] == 1.5
        assert (out / "diagnostics.jsonl").exists()
        assert len(manifest["files"]) == len(manifest["times"])
        rec = json.loads((out / "diagnostics.jsonl").read_text().splitlines()[0])
        assert set(rec) == {"step", "t", "tau", "tau_lambda", "tau_proj",
                            "lambda_bar", "power_iters", "power_converged",
                            "binding", "ranks", "degrees", "cov_err", "wall_ms"}
        assert rec["wall_ms"] is None  # determinism default

    def test_solve_rerun_byte_identical(self, tmp_path):
        path, _ = gaussian_config(tmp_path, out="run1")
        assert main(["solve", str(path)]) == 0
        d1 = (tmp_path / "run1" / "diagnostics.jsonl").read_bytes()
        snaps1 = sorted((tmp_path / "run1").glob("snapshot_*.ttck"))
        blobs1 = [p.read_bytes() for p in snaps1]

        path2, _ = gaussian_config(tmp_path, out="run1")  # same config, same dir
        assert main(["solve", str(path2)]) == 0
        d2 = (tmp_path / "run1" / "diagnostics.jsonl").read_bytes()
        snaps2 = sorted((tmp_path / "run1").glob("snapshot_*.ttck"))
        assert d1 == d2
        assert blobs1 == [p.read_bytes() for p in snaps2]

    def test_config_hash_tracks_bytes(self, tmp_path):
        path, raw = gaussian_config(tmp_path, out="runa")
        main(["solve", str(path)])
        h1 = json.loads((tmp_path / "runa" / "manifest.json").read_text())["config_hash"]
        path.write_text(path.read_text() + "\n")
        main(["solve", str(path)])
        h2 = json.loads((tmp_path / "runa" / "manifest.json").read_text())["config_hash"]
        assert h1 != h2

    def test_zero_potential_rejected(self, tmp_path):
        cfg = {"space": {"dims": 2, "intervals": [[-1, 1]] * 2, "degrees": [2, 2]},
               "potential": {"terms": []},
               "solver": {"T": 1, "tau_max": 0.1},
               "output_dir": str(tmp_path / "o")}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["solve", str(path)]) == 1

    def test_json_syntax_error_is_line_precise(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n "space": }')
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_stride_thins_snapshots(self, tmp_path):
        path, _ = gaussian_config(tmp_path, out="runs")
        assert main(["solve", str(path), "--stride", "5"]) == 0
        manifest = json.loads((tmp_path / "runs" / "manifest.json").read_text())
        assert len(manifest["files"]) < len(manifest["times"])

    @pytest.mark.parametrize("stride", ["0", "-3"])
    def test_stride_below_one_exits_1(self, tmp_path, capsys, stride):
        path, _ = gaussian_config(tmp_path, out="runs")
        assert main(["solve", str(path), "--stride", stride]) == 1
        err = capsys.readouterr().err
        assert err == f"invalid solve option: --stride: expected an integer >= 1, got {stride}\n"
        assert not (tmp_path / "runs").exists()

    def test_non_finite_state_exits_2(self, tmp_path, poisoned_degree_truncate, capsys):
        path, _ = gaussian_config(tmp_path, out="runnan")
        assert main(["solve", str(path)]) == 2
        assert "core 1 contains non-finite entries" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "runnan" / "manifest.json").read_text())
        assert manifest["error"] == "ValueError: core 1 contains non-finite entries"

    def test_long_horizon_manifest_reaches_stationarity(self, tmp_path):
        path, _ = gaussian_config(tmp_path, T=12.0, out="runl")
        assert main(["solve", str(path), "--stride", "10"]) == 0
        manifest = json.loads((tmp_path / "runl" / "manifest.json").read_text())
        assert manifest["final_time"] == 12.0
        assert manifest["final_ranks"] == [1, 2, 1]
        assert manifest["final_cov_err"] <= 1e-9


class TestSampleCommand:
    @pytest.fixture()
    def solved(self, tmp_path):
        path, _ = gaussian_config(tmp_path, T=2.0)
        assert main(["solve", str(path)]) == 0
        return tmp_path / "run" / "manifest.json"

    def test_sample_writes_csv_and_metadata(self, solved):
        assert main(["sample", str(solved)]) == 0
        out = solved.parent
        lines = (out / "samples.csv").read_text().splitlines()
        assert lines[0] == "x1,x2,flags"
        assert len(lines) == 65
        meta = json.loads((out / "sample_metadata.json").read_text())
        assert meta["normal_transform"] == "ziggurat"

    def test_zero_particles_header_only(self, solved):
        assert main(["sample", str(solved), "--particles", "0"]) == 0
        lines = (solved.parent / "samples.csv").read_text().splitlines()
        assert lines == ["x1,x2,flags"]

    def test_flow_ode_rerun_identical(self, solved):
        assert main(["sample", str(solved), "--lambda", "1.0", "--seed", "3"]) == 0
        c1 = (solved.parent / "samples.csv").read_bytes()
        assert main(["sample", str(solved), "--lambda", "1.0", "--seed", "3"]) == 0
        assert c1 == (solved.parent / "samples.csv").read_bytes()

    @pytest.mark.parametrize("damage", ["truncate", "append"])
    def test_damaged_snapshot_exits_1(self, solved, damage, capsys):
        snap = solved.parent / "snapshot_3.ttck"
        raw = snap.read_bytes()
        snap.write_bytes(raw[:-5] if damage == "truncate" else raw + b"\x00" * 3)
        assert main(["sample", str(solved)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cannot load snapshot:") and err.count("\n") == 1
        assert not (solved.parent / "samples.csv").exists()

    def test_swapped_snapshots_exit_1(self, solved, capsys):
        first, second = solved.parent / "snapshot_2.ttck", solved.parent / "snapshot_5.ttck"
        raw = first.read_bytes()
        first.write_bytes(second.read_bytes())
        second.write_bytes(raw)
        assert main(["sample", str(solved)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cannot load snapshot: snapshot_2.ttck holds t=")
        assert err.count("\n") == 1
        assert not (solved.parent / "samples.csv").exists()

    def test_manifest_without_files_exits_1(self, solved, capsys):
        manifest = json.loads(solved.read_text())
        del manifest["files"]
        solved.write_text(json.dumps(manifest))
        assert main(["sample", str(solved)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cannot load manifest:") and err.count("\n") == 1

    def test_snapshots_short_of_horizon_exit_1(self, solved, capsys):
        manifest = json.loads(solved.read_text())
        files = manifest["files"]
        del files[max(files, key=files.get)]
        solved.write_text(json.dumps(manifest))
        assert main(["sample", str(solved)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cannot sample:") and "horizon" in err
        assert err.count("\n") == 1
        assert not (solved.parent / "samples.csv").exists()

    def test_overrides_recorded(self, solved):
        assert main(["sample", str(solved), "--particles", "16",
                     "--langevin-steps", "2", "--langevin-tau", "0.01"]) == 0
        meta = json.loads((solved.parent / "sample_metadata.json").read_text())
        assert meta["n_particles"] == 16
        assert meta["langevin_steps"] == 2

    def test_per_step_diagnostics(self, tmp_path):
        """On a box narrow enough for particles to leave it, the per-step
        lists cover every reverse step, the out-of-domain counts sum to the
        total, the frozen count never decreases, and reruns are
        byte-identical."""
        path, cfg = gaussian_config(tmp_path, T=1.0)
        cfg["space"]["intervals"] = [[-1.5, 1.5]] * 2
        path.write_text(json.dumps(cfg))
        assert main(["solve", str(path)]) == 0
        manifest = tmp_path / "run" / "manifest.json"
        args = ["sample", str(manifest), "--langevin-steps", "1"]
        assert main(args) == 0
        raw = (manifest.parent / "sample_metadata.json").read_bytes()
        meta = json.loads(raw)
        steps = len(meta["grid"]) - 1
        frozen = meta["frozen_per_step"]
        oob = meta["out_of_domain_per_step"]
        norms = meta["max_score_norm_per_step"]
        assert len(frozen) == len(oob) == len(norms) == steps
        assert sum(oob) == meta["out_of_domain_total"] > 0
        assert all(a <= b for a, b in zip(frozen, frozen[1:]))
        assert frozen[-1] == meta["aborted"]
        assert all(np.isfinite(norms)) and min(norms) > 0
        assert main(args) == 0
        assert (manifest.parent / "sample_metadata.json").read_bytes() == raw

    @pytest.mark.parametrize("args,message", [
        (["--particles", "-1"], "n_particles"),
        (["--langevin-steps", "2", "--langevin-tau", "0"], "langevin_tau"),
        (["--lambda", "2"], "lambda"),
        (["--langevin-steps", "2", "--langevin-tau", "nan"],
         "--langevin-tau: expected a finite number, got nan"),
        (["--langevin-steps", "2", "--langevin-tau", "inf"],
         "--langevin-tau: expected a finite number, got inf"),
        (["--lambda", "nan"], "--lambda: expected a finite number, got nan"),
    ], ids=["particles", "langevin-tau", "lambda", "langevin-tau-nan",
            "langevin-tau-inf", "lambda-nan"])
    def test_invalid_override_exits_1(self, solved, capsys, args, message):
        assert main(["sample", str(solved)] + args) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid sampler option:") and message in err
        assert err.count("\n") == 1
        assert not (solved.parent / "samples.csv").exists()

    def test_divergence_exits_1(self, solved, capsys):
        assert main(["sample", str(solved), "--langevin-steps", "1",
                     "--langevin-tau", "1e300"]) == 1
        err = capsys.readouterr().err
        assert err == "cannot sample: 64 of 64 particles diverged (> 10%)\n"
        assert not (solved.parent / "samples.csv").exists()

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_divergence_prints_one_line(self, solved, blocks):
        """In a fresh interpreter, where numpy's warnings reach stderr, the
        overflowing particles print nothing beside the message, in this
        process or in a forked block."""
        script = ("import sys; from tthjb import sample; from tthjb.cli import main; "
                  f"sample.MIN_BLOCK = 1; sample._usable_cpus = lambda: {blocks}; "
                  "sys.exit(main(sys.argv[1:]))")
        out = subprocess.run(
            [sys.executable, "-c", script, "sample", str(solved),
             "--langevin-steps", "1", "--langevin-tau", "1e300"],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True)
        assert out.returncode == 1
        assert out.stderr == "cannot sample: 64 of 64 particles diverged (> 10%)\n"

    def test_failed_worker_exits_1(self, solved, capsys, monkeypatch):
        import tthjb.sample as sample
        real_rows = sample._reverse_rows

        def rows(grad_fn, times, d, scfg, start, stop):
            if start:
                raise ValueError(f"no score for particles {start}-{stop - 1}")
            return real_rows(grad_fn, times, d, scfg, start, stop)

        monkeypatch.setattr(sample, "MIN_BLOCK", 1)
        monkeypatch.setattr(sample, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(sample, "_reverse_rows", rows)
        assert main(["sample", str(solved)]) == 1
        err = capsys.readouterr().err
        assert err == ("cannot sample: sampling worker for particles 32-63 failed: "
                       "ValueError: no score for particles 32-63\n")
        assert not (solved.parent / "samples.csv").exists()
        assert multiprocessing.active_children() == []


class TestVerifyCommand:
    def test_unknown_suite(self, capsys):
        assert main(["verify", "bogus"]) == 1
        assert "unknown suite" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["eigen", "operators", "quadrature"])
    def test_fast_suites_pass(self, suite, capsys):
        assert main(["verify", suite]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_perturbed_derivative_matrix_fails_linear_rows(self, monkeypatch, capsys):
        import tthjb.basis
        import tthjb.operators

        real = tthjb.basis.derivative_matrix

        def perturbed(basis):
            return real(basis) * (1.0 + 1e-6)

        for module in (tthjb.basis, tthjb.operators):
            monkeypatch.setattr(module, "derivative_matrix", perturbed)
        tthjb.basis.ou_generator_matrix.cache_clear()  # rebuild from the perturbed D
        try:
            assert main(["verify", "operators"]) == 1
        finally:
            tthjb.basis.ou_generator_matrix.cache_clear()
        rows = capsys.readouterr().out.splitlines()
        for kind in ("linear operator", "nonlinear operator"):
            hits = [r for r in rows if r.startswith(kind)]
            assert len(hits) == 3 and all(r.endswith("FAIL") for r in hits)

    @pytest.mark.slow
    def test_gaussian_suite_passes(self, capsys):
        assert main(["verify", "gaussian"]) == 0
        assert "FAIL" not in capsys.readouterr().out


def test_console_entry_point_help():
    out = subprocess.run([sys.executable, "-m", "tthjb.cli", "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "solve" in out.stdout and "sample" in out.stdout
