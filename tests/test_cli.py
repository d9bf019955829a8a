import csv
import hashlib
import io
import json
import math
import os
import stat
from pathlib import Path

import pytest

from hybridopt import cli, config, errors, rng
from hybridopt.dynamics import simulate_paths


@pytest.fixture
def demo_files(tmp_path):
    model = tmp_path / "model.json"
    control = tmp_path / "control.json"
    cli.write_demo_config(model, control)
    return model, control


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture
def mean_reverting_model(tmp_path):
    return write_json(
        tmp_path / "ou.json",
        {
            "state_dim": 1,
            "regime_count": 1,
            "horizon": 1.0,
            "action_set": {"lower": [0.0], "upper": [1.0]},
            "truncation": {"lower": [-6.0], "upper": [6.0]},
            "drift": [["-x1"]],
            "diffusion": [[["1"]]],
            "rates": [[None]],
            "rate_bound": 0.0,
            "running_cost": "0",
            "terminal_cost": "0",
            "constants": {"lipschitz_drift_diffusion": 1.5, "lipschitz_rates": 1.0, "growth": 1.0},
            "starts": [{"x": [1.0], "i": 1}],
        },
    )


class TestValidate:
    def test_mean_reverting_passes(self, mean_reverting_model, capsys):
        code = cli.main(["validate", "--model", str(mean_reverting_model), "--samples", "300"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] is True

    def test_quadratic_drift_fails(self, tmp_path):
        model = write_json(
            tmp_path / "bad.json",
            {
                "state_dim": 1,
                "regime_count": 1,
                "horizon": 1.0,
                "action_set": {"lower": [0.0], "upper": [1.0]},
                "truncation": {"lower": [-10.0], "upper": [10.0]},
                "drift": [["x1*x1"]],
                "diffusion": [[["0"]]],
                "rates": [[None]],
                "rate_bound": 0.0,
                "running_cost": "0",
                "terminal_cost": "0",
                "constants": {"lipschitz_drift_diffusion": 1.0},
            },
        )
        assert cli.main(["validate", "--model", str(model), "--samples", "500"]) == 3

    def test_malformed_json_exits_2(self, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert cli.main(["validate", "--model", str(broken)]) == 2

    def test_bad_expression_exits_2(self, tmp_path):
        model = write_json(
            tmp_path / "expr.json",
            {
                "state_dim": 1,
                "regime_count": 1,
                "horizon": 1.0,
                "action_set": {"lower": [0.0], "upper": [1.0]},
                "truncation": {"lower": [-1.0], "upper": [1.0]},
                "drift": [["x1 +"]],
                "diffusion": [[["0"]]],
                "rates": [[None]],
                "rate_bound": 0.0,
                "running_cost": "0",
                "terminal_cost": "0",
            },
        )
        assert cli.main(["validate", "--model", str(model)]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert cli.main(["validate", "--model", str(tmp_path / "nope.json")]) == 2

    def test_understated_growth_exits_3(self, mean_reverting_model, tmp_path, capsys):
        # |b| + |sigma| = |x| + 1 on the OU model: growth 1 holds, 0.9 does not
        payload = json.loads(mean_reverting_model.read_text())
        payload["constants"]["growth"] = 0.9
        model = write_json(tmp_path / "ou_growth.json", payload)
        assert cli.main(["validate", "--model", str(model), "--samples", "300"]) == 3
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert not checks["growth_bound"]["pass"]
        assert checks["growth_bound"]["observed"] == pytest.approx(1.0, abs=1e-9)
        assert all(c["pass"] for name, c in checks.items() if name != "growth_bound")


class TestSimulate:
    def test_constant_model_constant_columns(self, demo_files, tmp_path):
        model, control = demo_files
        out = tmp_path / "paths.csv"
        code = cli.main(
            ["simulate", "--model", str(model), "--control", str(control),
             "--out", str(out), "--paths", "3", "--dt", "0.25", "--seed", "1"]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        header = lines[1].split(",")
        assert header[:4] == ["path", "t", "x1", "regime"]
        # frozen dynamics under the zero-rate control: x stays 0, regime stays 1
        for row in lines[2:]:
            cells = row.split(",")
            assert cells[2] == "0.0"
            assert cells[3] == "1"

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"])
    def test_output_mode_follows_umask(self, demo_files, tmp_path, umask, mode):
        model, control = demo_files
        out = tmp_path / "paths.csv"
        old = os.umask(umask)
        try:
            assert cli.main(
                ["simulate", "--model", str(model), "--control", str(control),
                 "--out", str(out), "--paths", "2", "--dt", "0.25", "--seed", "1"]
            ) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(out.stat().st_mode) == mode

    def test_seed_repeat_byte_identical(self, demo_files, tmp_path):
        model, control = demo_files
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert cli.main(
                ["simulate", "--model", str(model), "--control", str(control),
                 "--out", str(out), "--paths", "8", "--dt", "0.05", "--seed", "7"]
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_switching_visible_in_regime_column(self, tmp_path):
        model = write_json(
            tmp_path / "switchy.json",
            {
                "state_dim": 1,
                "regime_count": 2,
                "horizon": 1.0,
                "action_set": {"lower": [0.0], "upper": [1.0]},
                "truncation": {"lower": [-1.0], "upper": [1.0]},
                "drift": [["0"], ["0"]],
                "diffusion": [[["0"]], [["0"]]],
                "rates": [[None, "1"], ["0", None]],
                "rate_bound": 1.0,
                "running_cost": "i",
                "terminal_cost": "0",
                "starts": [{"x": [0.0], "i": 1}],
            },
        )
        control = write_json(
            tmp_path / "ctl.json",
            {"kind": "constant", "mu": {"atoms": [[0.5]], "weights": [1.0]},
             "nu": {"atoms": [[0.5]], "weights": [1.0]}},
        )
        out = tmp_path / "sw.csv"
        assert cli.main(
            ["simulate", "--model", str(model), "--control", str(control),
             "--out", str(out), "--paths", "200", "--dt", "0.01", "--seed", "3"]
        ) == 0
        regimes = [int(r.split(",")[3]) for r in out.read_text().splitlines()[2:]]
        switched = sum(r == 2 for r in regimes[100::101])  # terminal rows
        p = 1 - math.exp(-1)
        se = math.sqrt(p * (1 - p) / 200)
        assert abs(switched / 200 - p) <= 3 * se

    def test_json_output(self, demo_files, tmp_path):
        model, control = demo_files
        out = tmp_path / "paths.json"
        assert cli.main(
            ["simulate", "--model", str(model), "--control", str(control),
             "--out", str(out), "--paths", "2", "--dt", "0.25", "--seed", "1"]
        ) == 0
        doc = json.loads(out.read_text())
        assert len(doc["paths"]) == 2
        assert "config_hash" in doc


def reference_csv(batch, hash_line: str) -> str:
    """The per-row csv.writer loop the block writer replaced, kept as its byte reference."""
    out = io.StringIO()
    out.write(f"# config_hash={hash_line}\n")
    writer = csv.writer(out, lineterminator="\n")
    d = batch.states.shape[2]
    writer.writerow(["path", "t"] + [f"x{c + 1}" for c in range(d)] + ["regime", "mu", "nu"])
    mu_json = [config.canonical_json(m.to_dict()) for m in batch.mu_pool]
    nu_json = [config.canonical_json(m.to_dict()) for m in batch.nu_pool]
    n_steps = batch.states.shape[1] - 1
    for row, p in enumerate(batch.path_indices):
        for k in range(n_steps + 1):
            rec = [int(p), repr(float(batch.times[k]))]
            rec += [repr(float(v)) for v in batch.states[row, k]]
            rec.append(int(batch.regimes[row, k]))
            if k < n_steps:
                rec.append(mu_json[batch.mu_idx[row, k]])
                rec.append(nu_json[batch.nu_idx[row, k]])
            else:
                rec += ["", ""]
            writer.writerow(rec)
    return out.getvalue()


def block_csv(batch, hash_line: str) -> str:
    out = io.StringIO()
    cli._paths_to_csv(batch, hash_line, out)
    return out.getvalue()


MULTI_ATOM_MODEL = {
    "state_dim": 2,
    "regime_count": 2,
    "horizon": 1.0,
    "action_set": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]},
    "truncation": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
    "drift": [["-x1 + mu_m(1,0)", "-x2 + mu_m(1,1)"], ["-x1", "0.5 - x2"]],
    "diffusion": [[["0.3", "0"], ["0", "0.2 + 0.1*mu_m(1,1)"]], [["0.4", "0"], ["0.1", "0.3"]]],
    "rates": [[None, "0.5*(1 + nu_m(1,0))"], ["0.8", None]],
    "rate_bound": 1.0,
    "running_cost": "0",
    "terminal_cost": "0",
    "starts": [{"x": [0.0, 0.0], "i": 1}],
}
MULTI_ATOM_CONTROL = {
    "kind": "markov",
    "mu": {
        "candidates": [
            {"atoms": [[0.0, 1.0], [0.5, 0.25]], "weights": [0.25, 0.75]},
            {"atoms": [[1.0, 0.0]], "weights": [1.0]},
            {"atoms": [[0.2, 0.3], [0.4, 0.5], [0.9, 0.1]], "weights": [0.2, 0.3, 0.5]},
        ],
        "index_expr": "min(max(4*x2, 0), 1) + i - 1",
    },
    "nu": {
        "candidates": [
            {"atoms": [[0.0, 0.0], [1.0, 1.0]], "weights": [0.5, 0.5]},
            {"atoms": [[0.3, 0.7]], "weights": [1.0]},
        ],
        "per_regime": [0, 1],
    },
}


class TestCsvWriter:
    """The block writer against the per-row reference, byte for byte."""

    def batch(self, paths, first_path_index=0):
        model, _ = config.load_model(MULTI_ATOM_MODEL)
        control, _ = config.load_control(MULTI_ATOM_CONTROL, model)
        return simulate_paths(
            model, control, 0.0, [0.0, 0.0], 1, 1.0, 0.05, 11, paths, first_path_index=first_path_index
        )

    def test_multi_atom_cells_need_quoting(self):
        batch = self.batch(6)
        text = block_csv(batch, "abc")
        assert text == reference_csv(batch, "abc")
        # every candidate shows up, and the JSON cells hold both , and "
        assert set(batch.mu_idx.ravel().tolist()) == {0, 1, 2}
        assert set(batch.regimes.ravel().tolist()) == {1, 2}
        assert '"{""atoms"":[[0.0,1.0],[0.5,0.25]],""weights"":[0.25,0.75]}"' in text
        rows = list(csv.reader(io.StringIO(text.split("\n", 1)[1])))
        assert json.loads(rows[1][5]) == batch.mu_pool[batch.mu_idx[0, 0]].to_dict()
        assert rows[21][5:] == ["", ""]

    def test_first_path_index_offset(self):
        batch = self.batch(3, first_path_index=1000)
        text = block_csv(batch, "h")
        assert text == reference_csv(batch, "h")
        assert text.splitlines()[2].startswith("1000,0.0,")

    def test_partial_last_block(self):
        batch = self.batch(cli.CSV_BLOCK_PATHS + 3)
        assert block_csv(batch, "h") == reference_csv(batch, "h")

    def test_single_path(self):
        batch = self.batch(1)
        text = block_csv(batch, "h")
        assert text == reference_csv(batch, "h")
        assert len(text.splitlines()) == 2 + 21

    def test_demo_csv_bytes_pinned(self, demo_files, tmp_path):
        # SHA-256 of the demo CSV on the block-keyed streams, whose layout the
        # config_hash line covers; the per-row writer gives the same bytes
        model, control = demo_files
        out = tmp_path / "paths.csv"
        assert cli.main(
            ["simulate", "--model", str(model), "--control", str(control),
             "--out", str(out), "--paths", "8", "--dt", "0.05", "--seed", "7"]
        ) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "f34cfb08e7c79b0f588f55460e191b28b8097087fac51dc85e64e5795aef8031"
        )

    def test_error_mid_stream_leaves_no_partial_file(self, demo_files, tmp_path, monkeypatch):
        model, control = demo_files
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "paths.csv"
        out.write_text("earlier run\n")
        written = []

        class FailingSecondBlock:
            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                self.fh.write(text)

            def writelines(self, lines):
                if written:
                    raise RuntimeError("formatting failed")
                self.fh.writelines(lines)
                self.fh.flush()
                written.extend(p.stat().st_size for p in out_dir.iterdir() if p != out)

        real = cli._paths_to_csv
        monkeypatch.setattr(cli, "_paths_to_csv", lambda batch, h, fh: real(batch, h, FailingSecondBlock(fh)))
        with pytest.raises(RuntimeError, match="formatting failed"):
            cli.main(
                ["simulate", "--model", str(model), "--control", str(control), "--out", str(out),
                 "--paths", str(cli.CSV_BLOCK_PATHS + 3), "--dt", "0.25", "--seed", "1", "--workers", "1"]
            )
        # the first block reached a temp file, which the failure removed
        assert len(written) == 1 and written[0] > 0
        assert list(out_dir.iterdir()) == [out]
        assert out.read_text() == "earlier run\n"


class TestEstimate:
    def test_regime_cost_estimate(self, demo_files, tmp_path, capsys):
        model, control = demo_files
        code = cli.main(
            ["estimate", "--model", str(model), "--control", str(control),
             "--paths", "64", "--dt", "0.05", "--seed", "2"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        # the demo control suppresses switching: cost is exactly 1
        assert doc["mean"] == pytest.approx(1.0, abs=1e-12)
        assert doc["paths"] == 64


class TestRunHash:
    def estimate_hash(self, model, control, tmp_path, *extra):
        out = tmp_path / "estimate.json"
        assert cli.main(
            ["estimate", "--model", str(model), "--control", str(control),
             "--paths", "16", "--dt", "0.05", "--seed", "3", "--out", str(out), *extra]
        ) == 0
        return json.loads(out.read_text())["config_hash"]

    def test_hash_covers_control_and_not_workers(self, demo_files, tmp_path):
        model, control = demo_files
        other = write_json(
            tmp_path / "other.json",
            {**json.loads(control.read_text()), "nu": {"atoms": [[1.0]], "weights": [1.0]}},
        )
        base = self.estimate_hash(model, control, tmp_path, "--workers", "1")
        assert self.estimate_hash(model, control, tmp_path, "--workers", "2") == base
        assert self.estimate_hash(model, other, tmp_path, "--workers", "1") != base
        assert self.estimate_hash(model, control, tmp_path, "--workers", "1", "--antithetic") != base

    def test_demo_hashes_pinned(self, demo_files, tmp_path):
        # values of the run-spec hash since it names the stream layout
        # (rng.STREAM_LAYOUT); reading the control spec once must not move them
        model, control = demo_files
        out = tmp_path / "paths.csv"
        assert cli.main(
            ["simulate", "--model", str(model), "--control", str(control), "--out", str(out),
             "--paths", "4", "--dt", "0.05", "--seed", "9", "--workers", "1"]
        ) == 0
        assert out.read_text().splitlines()[0] == (
            "# config_hash=1269eb76b4b433bb4a08e6acf899d45ec598a1c255694e096a8f98570fede691"
        )
        estimate = self.estimate_hash(model, control, tmp_path, "--paths", "100", "--seed", "9", "--workers", "1")
        assert estimate == "d525d37e6cb3ffd06489f44b27598b5309fd3e58d453fa6ef50b338ba990d168"

    def test_hash_covers_stream_layout(self, demo_files, tmp_path, monkeypatch):
        # the same argv on another stream layout draws other numbers, so it
        # must not carry the same hash
        model, control = demo_files
        base = self.estimate_hash(model, control, tmp_path, "--workers", "1")
        monkeypatch.setattr(rng, "STREAM_LAYOUT", "philox-path")
        assert self.estimate_hash(model, control, tmp_path, "--workers", "1") != base

    def test_simulate_hash_covers_start(self, demo_files, tmp_path):
        model, control = demo_files
        headers = []
        for x0 in ("0.0", "0.5"):
            out = tmp_path / f"paths_{x0}.csv"
            assert cli.main(
                ["simulate", "--model", str(model), "--control", str(control), "--out", str(out),
                 "--paths", "2", "--dt", "0.25", "--seed", "1", "--x0", x0]
            ) == 0
            headers.append(out.read_text().splitlines()[0])
        assert headers[0] != headers[1]


class TestSolve:
    def solve_args(self, model, out):
        return [
            "solve", "--model", str(model), "--out", str(out),
            "--grid-nt", "4", "--grid-nx", "9", "--quad-order", "3",
            "--mu-atoms", "1", "--mu-levels", "1", "--nu-atoms", "2", "--nu-levels", "1",
        ]

    def test_constant_terminal_value(self, tmp_path, capsys):
        model = write_json(
            tmp_path / "const.json",
            {
                "state_dim": 1,
                "regime_count": 1,
                "horizon": 1.0,
                "action_set": {"lower": [0.0], "upper": [1.0]},
                "truncation": {"lower": [-1.0], "upper": [1.0]},
                "drift": [["0"]],
                "diffusion": [[["1"]]],
                "rates": [[None]],
                "rate_bound": 0.0,
                "running_cost": "0",
                "terminal_cost": "2.5",
                "starts": [{"x": [0.0], "i": 1}],
            },
        )
        out = tmp_path / "vg.json"
        assert cli.main(self.solve_args(model, out)) == 0
        doc = json.loads(out.read_text())
        assert doc["start_values"][0]["value"] == pytest.approx(2.5, abs=1e-12)

    def test_regime_cost_value_and_hash_stability(self, demo_files, tmp_path):
        model, _ = demo_files
        a, b = tmp_path / "vg_a.json", tmp_path / "vg_b.json"
        for out in (a, b):
            assert cli.main(self.solve_args(model, out)) == 0
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        assert doc["start_values"][0]["value"] == pytest.approx(1.0, abs=1e-9)
        assert doc["schema_version"] == 1

    def test_demo_artifact_bytes_pinned(self, demo_files, tmp_path):
        # SHA-256 of the demo value grid as json.dumps(indent=1) wrote it
        model, _ = demo_files
        out = tmp_path / "vg.json"
        assert cli.main(self.solve_args(model, out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "8428424b6d4c57f7b3ef8b2563e99cd63ac69ca87eed6a78d89f2ed2679cc8df"
        )

    def test_capacity_exit(self, demo_files, tmp_path):
        model, _ = demo_files
        code = cli.main(
            ["solve", "--model", str(model), "--out", str(tmp_path / "x.json"),
             "--grid-nt", "4", "--grid-nx", "9",
             "--mu-atoms", "100", "--mu-levels", "100"]
        )
        assert code == 5

    def test_step_above_rate_cap_exits_2(self, demo_files, tmp_path, capsys):
        # rate bound 0.4 over 3 slices of the unit horizon: dt * M = 0.133 > 0.1
        model, _ = demo_files
        args = self.solve_args(model, tmp_path / "vg.json")
        args[args.index("--grid-nt") + 1] = "3"
        assert cli.main(args) == 2
        assert "exceeds the cap" in capsys.readouterr().err

    def test_seed_is_a_usage_error(self, demo_files, tmp_path, capsys):
        # the solver draws nothing at random, so it takes no --seed
        model, _ = demo_files
        assert cli.main(self.solve_args(model, tmp_path / "vg.json") + ["--seed", "1"]) == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_table_control_usable_for_simulation(self, demo_files, tmp_path):
        model, _ = demo_files
        artifact = tmp_path / "vg.json"
        assert cli.main(self.solve_args(model, artifact)) == 0
        table_control = write_json(
            tmp_path / "table.json", {"kind": "table", "artifact": str(artifact)}
        )
        out = tmp_path / "table_paths.csv"
        assert cli.main(
            ["simulate", "--model", str(model), "--control", str(table_control),
             "--out", str(out), "--paths", "4", "--dt", "0.25", "--seed", "5"]
        ) == 0
        regimes = [int(r.split(",")[3]) for r in out.read_text().splitlines()[2:]]
        assert set(regimes) == {1}  # optimal policy suppresses switching

    def test_table_control_hash_follows_artifact_contents(self, demo_files, tmp_path):
        model, _ = demo_files
        artifact = tmp_path / "vg.json"
        table_control = write_json(
            tmp_path / "table.json", {"kind": "table", "artifact": str(artifact)}
        )
        hashes = []
        for nt in ("4", "5"):
            args = self.solve_args(model, artifact)
            args[args.index("--grid-nt") + 1] = nt
            assert cli.main(args) == 0
            out = tmp_path / "table_paths.csv"
            assert cli.main(
                ["simulate", "--model", str(model), "--control", str(table_control),
                 "--out", str(out), "--paths", "1", "--dt", "0.25", "--seed", "5"]
            ) == 0
            hashes.append(out.read_text().splitlines()[0])
        assert hashes[0] != hashes[1]


class TestVerify:
    def test_subset_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(["verify", "--check", "solver_oracle", "intervals", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["pass"] is True
        assert {c["name"] for c in doc["checks"]} == {"solver_oracle", "intervals"}
        for c in doc["checks"]:
            assert set(c) >= {"name", "pass", "margin", "tolerance"}

    def test_tampered_tolerance_fails(self):
        code = cli.main(["verify", "--check", "solver_oracle", "--tolerance-scale", "0"])
        assert code == 6

    def test_empty_check_list_warns(self, capsys):
        assert cli.main(["verify", "--check"]) == 0
        assert "warning" in capsys.readouterr().err

    def test_unknown_check_exits_2(self):
        assert cli.main(["verify", "--check", "bogus"]) == 2

    def test_list(self, capsys):
        assert cli.main(["verify", "--list"]) == 0
        names = capsys.readouterr().out.split()
        assert "w1_metric" in names and "determinism" in names


class TestWorkersEnv:
    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("HYBRIDOPT_WORKERS", "3")
        assert cli._default_workers() == 3
        monkeypatch.setenv("HYBRIDOPT_WORKERS", "junk")
        assert cli._default_workers() >= 1


class TestPathDependentControlConfig:
    def test_load_and_simulate(self, tmp_path):
        model_path = write_json(
            tmp_path / "m.json",
            {
                "state_dim": 1,
                "regime_count": 1,
                "horizon": 1.0,
                "action_set": {"lower": [0.0], "upper": [1.0]},
                "truncation": {"lower": [-8.0], "upper": [8.0]},
                "drift": [["2*mu_m(1,0) - 1"]],
                "diffusion": [[["0"]]],
                "rates": [[None]],
                "rate_bound": 0.0,
                "running_cost": "0",
                "terminal_cost": "0",
                "starts": [{"x": [0.0], "i": 1}],
            },
        )
        control_path = write_json(
            tmp_path / "c.json",
            {
                "kind": "path_dependent",
                "window": 4,
                "statistic": "max",
                "coordinate": 0,
                "buckets": [0.45],
                "mu": {"candidates": [{"atoms": [[1.0]], "weights": [1.0]},
                                      {"atoms": [[0.0]], "weights": [1.0]}],
                       "map": [0, 1]},
                "nu": {"candidates": [{"atoms": [[0.5]], "weights": [1.0]}],
                       "map": [0, 0]},
            },
        )
        out = tmp_path / "pd.csv"
        code = cli.main(
            ["simulate", "--model", str(model_path), "--control", str(control_path),
             "--out", str(out), "--paths", "1", "--dt", "0.05", "--seed", "0"]
        )
        assert code == 0
        xs = [float(r.split(",")[2]) for r in out.read_text().splitlines()[2:]]
        # drift +1 until the running max crosses 0.45, then -1: x oscillates
        # around the threshold instead of growing
        assert max(xs) <= 0.55
        assert xs[1] > xs[0]


class TestEstimateAntithetic:
    def test_flag_round_trip(self, demo_files, capsys):
        model, control = demo_files
        code = cli.main(
            ["estimate", "--model", str(model), "--control", str(control),
             "--paths", "64", "--dt", "0.05", "--seed", "4", "--antithetic"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mean"] == pytest.approx(1.0, abs=1e-12)


class TestSimulateHorizonFlag:
    def test_partial_horizon(self, demo_files, tmp_path):
        model, control = demo_files
        out = tmp_path / "short.csv"
        assert cli.main(
            ["simulate", "--model", str(model), "--control", str(control),
             "--out", str(out), "--paths", "1", "--dt", "0.05", "--horizon", "0.25"]
        ) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 2 + 6  # comment + header + six grid times


class TestExitCodes:
    @pytest.mark.parametrize(
        "error, code",
        [
            (json.JSONDecodeError("bad", "{", 0), 2),
            (FileNotFoundError("model.json"), 2),
            (errors.ExprError("bad"), 2),
            (errors.ValidationError("bad"), 2),
            (errors.UsageError("bad"), 2),
            (errors.StepSizeError("bad"), 2),
            (errors.DomainError("bad"), 2),
            (errors.CapacityError("bad"), 5),
            (errors.ModelError("bad"), 3),
            (errors.BoundViolationError("bad"), 3),
            (errors.SimulationError("bad"), 4),
            (errors.NumericalError("bad"), 4),
        ],
    )
    def test_error_kind_sets_exit_code(self, error, code, monkeypatch, capsys):
        def fail(args):
            raise error

        monkeypatch.setitem(cli._COMMANDS, "verify", fail)
        assert cli.main(["verify"]) == code
        assert capsys.readouterr().err.startswith("error: ")
