import csv
import hashlib
import io
import json
import math
import os
import stat
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridopt import GridSpec, cli, config, dirac, dynamics, errors, rng, solve
from hybridopt.dynamics import PathBatch, simulate_chunks
from hybridopt.measure_space import ActionSet, DiscreteMeasure


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

    def test_hash_names_the_run(self, mean_reverting_model, capsys):
        # the report's hash covers the model, the sample count and the seed
        def run_hash(samples, seed):
            argv = ["validate", "--model", str(mean_reverting_model), "--samples", samples, "--seed", seed]
            assert cli.main(argv) == 0
            return json.loads(capsys.readouterr().out)["config_hash"]

        base = run_hash("100", "1")
        assert run_hash("100", "1") == base
        assert run_hash("100", "2") != base
        assert run_hash("200", "1") != base

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

    @pytest.mark.parametrize(
        "case, paths, dt, workers, digest",
        [
            ("demo", 3, "0.25", 1, "f9755fa2a1e3b207221c8291a5f51d899c0a4cd622c9f2ee5243626ea1c06509"),
            ("demo", rng.BLOCK_PATHS + 5, "0.25", 1, "168e37cde1cc6bc7467886a187f377ed5b4a0b78fc861671bfa4b69a8ce63809"),
            ("demo", rng.BLOCK_PATHS + 5, "0.25", 2, "168e37cde1cc6bc7467886a187f377ed5b4a0b78fc861671bfa4b69a8ce63809"),
            ("multi_atom", 50, "0.05", 1, "79b12ab3a5c4dc7169e75c68d408b551054d16d0128dd2105896bab4f423f296"),
        ],
        ids=["demo-3", "demo-2chunks-w1", "demo-2chunks-w2", "multi-atom-50"],
    )
    def test_json_bytes_pinned(self, demo_files, tmp_path, case, paths, dt, workers, digest):
        # SHA-256 of simulate --out *.json: the demo over one and two chunks
        # (a process pool at --workers 2), and a two-regime model with drift
        # and diffusion under a Markov control with a two-atom mu candidate
        if case == "demo":
            model, control = demo_files
        else:
            model = write_json(tmp_path / "m.json", MULTI_ATOM_MODEL)
            control = write_json(tmp_path / "c.json", MULTI_ATOM_CONTROL)
        out = tmp_path / "paths.json"
        assert cli.main(
            ["simulate", "--model", str(model), "--control", str(control), "--out", str(out),
             "--paths", str(paths), "--dt", dt, "--seed", "5", "--workers", str(workers)]
        ) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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
    out.write(cli._csv_header(hash_line, batch.states.shape[2]))
    cli._paths_to_csv(batch, out)
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

    def batch(self, paths, chunk=0):
        """Chunk ``chunk`` of a batch of ``paths`` paths."""
        model, _ = config.load_model(MULTI_ATOM_MODEL)
        control, _ = config.load_control(MULTI_ATOM_CONTROL, model)
        return list(dynamics.simulate_chunks(model, control, 0.0, [0.0, 0.0], 1, 1.0, 0.05, 11, paths))[chunk]

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
        # the second chunk starts at path BLOCK_PATHS
        batch = self.batch(rng.BLOCK_PATHS + 3, chunk=1)
        text = block_csv(batch, "h")
        assert text == reference_csv(batch, "h")
        assert text.splitlines()[2].startswith(f"{rng.BLOCK_PATHS},0.0,")

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
            """Fails on the second write that carries data rows (lines that
            start with a path index), whichever method the writer calls."""

            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                if not any(line[:1].isdigit() for line in text.splitlines()):
                    return self.fh.write(text)
                if written:
                    raise RuntimeError("formatting failed")
                self.fh.write(text)
                self.fh.flush()
                written.extend(p.stat().st_size for p in out_dir.iterdir() if p != out)

            def writelines(self, lines):
                self.write("".join(lines))

        real = cli._paths_to_csv
        monkeypatch.setattr(
            cli, "_paths_to_csv", lambda batch, fh: real(batch, FailingSecondBlock(fh))
        )
        with pytest.raises(RuntimeError, match="formatting failed"):
            cli.main(
                ["simulate", "--model", str(model), "--control", str(control), "--out", str(out),
                 "--paths", str(cli.CSV_BLOCK_PATHS + 3), "--dt", "0.25", "--seed", "1", "--workers", "1"]
            )
        # the first block reached a temp file, which the failure removed
        assert len(written) == 1 and written[0] > 0
        assert list(out_dir.iterdir()) == [out]
        assert out.read_text() == "earlier run\n"

    def test_error_in_second_chunk_leaves_no_partial_file(self, demo_files, tmp_path, monkeypatch):
        # the first chunk is on disk before the second is simulated; the
        # second chunk's failure removes it and keeps the earlier file
        model, control = demo_files
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "paths.csv"
        out.write_text("earlier run\n")
        written = []
        real = dynamics._simulate_block

        def fail_second_chunk(*args, **kwargs):
            if args[8] >= 1:  # the chunk's stream block
                written.extend(p.stat().st_size for p in out_dir.iterdir() if p != out)
                raise errors.SimulationError("second chunk failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(dynamics, "_simulate_block", fail_second_chunk)
        code = cli.main(
            ["simulate", "--model", str(model), "--control", str(control), "--out", str(out),
             "--paths", str(rng.BLOCK_PATHS + 1), "--dt", "0.25", "--seed", "1", "--workers", "1"]
        )
        assert code == 4
        assert len(written) == 1 and written[0] > 0
        assert list(out_dir.iterdir()) == [out]
        assert out.read_text() == "earlier run\n"

    @pytest.mark.parametrize(
        "paths, workers",
        [(1, 1), (rng.BLOCK_PATHS + 1, 1), (2 * rng.BLOCK_PATHS + 3, 1), (2 * rng.BLOCK_PATHS + 3, 2)],
        ids=["1chunk", "2chunks", "3chunks", "3chunks-w2"],
    )
    def test_streamed_chunks_match_one_batch(self, tmp_path, paths, workers):
        # the CSV written chunk by chunk equals the per-row reference of each
        # chunk in turn, under one header, at any chunk and worker count
        model_path = write_json(tmp_path / "m.json", MULTI_ATOM_MODEL)
        control_path = write_json(tmp_path / "c.json", MULTI_ATOM_CONTROL)
        out = tmp_path / "paths.csv"
        assert cli.main(
            ["simulate", "--model", str(model_path), "--control", str(control_path), "--out", str(out),
             "--paths", str(paths), "--dt", "0.05", "--horizon", "0.1", "--seed", "11",
             "--workers", str(workers)]
        ) == 0
        model, _ = config.load_model(MULTI_ATOM_MODEL)
        control, _ = config.load_control(MULTI_ATOM_CONTROL, model)
        text = out.read_text()
        hash_line = text[len("# config_hash="):].split("\n", 1)[0]
        # (comment, column names, rows) of each chunk's reference
        pieces = [reference_csv(batch, hash_line).split("\n", 2)
                  for batch in simulate_chunks(model, control, 0.0, [0.0, 0.0], 1, 0.1, 0.05, 11, paths)]
        assert len(pieces) == -(-paths // rng.BLOCK_PATHS)
        assert text == "\n".join(pieces[0][:2]) + "\n" + "".join(rows for _, _, rows in pieces)


# floats whose repr is easy to get wrong, and clamp bounds of the models above
SPECIAL_FLOATS = [-0.0, 0.0, 1e-05, 1e16, 5e-324, 0.30000000000000004, -1.0, 1.0, -6.0, 6.0]
# weight vectors that sum to 1 exactly, by atom count
WEIGHTS = {1: [1.0], 2: [0.25, 0.75], 3: [0.1, 0.2, 0.7]}


@st.composite
def path_batches(draw):
    """A hand-built PathBatch: d in 1..3, up to 3 regimes, pools of up to 5
    measures of up to 3 atoms, path counts around the writer's blocks."""
    d = draw(st.integers(1, 3))
    regime_count = draw(st.integers(1, 3))
    box = ActionSet([-1.0] * d, [1.0] * d)
    coords = st.sampled_from([v for v in SPECIAL_FLOATS if abs(v) <= 1.0])

    def measure(k):
        atoms = draw(st.lists(st.lists(coords, min_size=d, max_size=d), min_size=k, max_size=k))
        return DiscreteMeasure(box, atoms, WEIGHTS[k])

    pools = [[measure(draw(st.integers(1, 3))) for _ in range(draw(st.integers(1, 5)))] for _ in range(2)]
    b = cli.CSV_BLOCK_PATHS
    n_paths = draw(st.sampled_from([1, b - 1, b + 1, 2 * b + 3]))
    first = draw(st.sampled_from([0, rng.BLOCK_PATHS - 2]))
    n_steps = draw(st.integers(1, 3))
    values = np.array(draw(st.lists(
        st.sampled_from(SPECIAL_FLOATS) | st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12
    )))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return PathBatch(
        gen.choice(values, n_steps + 1),
        gen.choice(values, (n_paths, n_steps + 1, d)),
        gen.integers(1, regime_count + 1, (n_paths, n_steps + 1)),
        pools[0],
        pools[1],
        gen.integers(0, len(pools[0]), (n_paths, n_steps)),
        gen.integers(0, len(pools[1]), (n_paths, n_steps)),
        np.arange(first, first + n_paths),
        0,
    )


@settings(max_examples=60, deadline=None)
@given(batch=path_batches())
def test_csv_writer_matches_reference(batch):
    assert block_csv(batch, "h") == reference_csv(batch, "h")


def never_simulate(*args, **kwargs):
    raise AssertionError("simulated before the output was checked")


class TestOutputTargets:
    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    def test_directory_out_fails_before_simulating(self, command, demo_files, tmp_path, monkeypatch, capsys):
        model, control = demo_files
        target = tmp_path / "outdir"
        target.mkdir()
        monkeypatch.setattr(dynamics, "_simulate_block", never_simulate)
        assert cli.main(
            [command, "--model", str(model), "--control", str(control), "--out", str(target),
             "--paths", "2", "--dt", "0.25", "--workers", "1"]
        ) == 2
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{target}'\n"
        assert list(target.iterdir()) == []

    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    def test_valid_out_reaches_the_patched_engine(self, command, demo_files, tmp_path, monkeypatch):
        # the patch above guards something only if the command calls this engine
        model, control = demo_files
        monkeypatch.setattr(dynamics, "_simulate_block", never_simulate)
        with pytest.raises(AssertionError, match="simulated before the output was checked"):
            cli.main(
                [command, "--model", str(model), "--control", str(control), "--out", str(tmp_path / "out"),
                 "--paths", "2", "--dt", "0.25", "--workers", "1"]
            )

    def test_missing_out_directory_exits_2(self, demo_files, tmp_path, monkeypatch, capsys):
        model, control = demo_files
        monkeypatch.setattr(dynamics, "_simulate_block", never_simulate)
        assert cli.main(
            ["simulate", "--model", str(model), "--control", str(control),
             "--out", str(tmp_path / "nodir" / "p.csv"), "--paths", "2", "--dt", "0.25"]
        ) == 2
        assert capsys.readouterr().err == f"error: [Errno 2] no such directory: '{tmp_path / 'nodir'}'\n"

    def test_directory_model_exits_2(self, tmp_path, capsys):
        assert cli.main(["validate", "--model", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    def test_directory_at_default_out_fails_before_simulating(self, demo_files, tmp_path, monkeypatch, capsys):
        model, control = demo_files
        (tmp_path / "paths.csv").mkdir()
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(dynamics, "_simulate_block", never_simulate)
        assert cli.main(
            ["simulate", "--model", str(model), "--control", str(control), "--paths", "2", "--dt", "0.25"]
        ) == 2
        assert capsys.readouterr().err == "error: [Errno 21] Is a directory: 'paths.csv'\n"

    def test_atomic_open_writes_utf8_and_newlines(self, tmp_path):
        out = tmp_path / "t.txt"
        with config.atomic_open(out) as fh:
            assert fh.encoding == "utf-8"
            fh.write("\u03bc\nb\n")
        assert out.read_bytes() == "\u03bc\nb\n".encode("utf-8")


@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_simulate_memory_does_not_grow_with_paths(demo_files, tmp_path, suffix):
    # chunks are written and dropped one by one, in either format: 8 blocks
    # of paths peak at about what 2 do, where holding every chunk would take
    # 4 times as much, and 2 blocks at about what 1 does, where holding two
    # chunks would not
    model, control = demo_files
    peaks = {}
    for blocks in (1, 2, 8):
        tracemalloc.start()
        try:
            assert cli.main(
                ["simulate", "--model", str(model), "--control", str(control),
                 "--out", str(tmp_path / f"p{suffix}"), "--paths", str(blocks * rng.BLOCK_PATHS),
                 "--dt", "0.05", "--horizon", "0.25", "--seed", "1", "--workers", "1"]
            ) == 0
            peaks[blocks] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[8] < 2 * peaks[2]
    assert peaks[2] < 1.2 * peaks[1]


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

    def test_chunk_over_the_memory_cap_exits_5_at_once(self, demo_files, tmp_path, monkeypatch):
        # 4 096 paths x 10^6 steps would draw about 65 GB, so the engine must not run
        model, control = demo_files
        monkeypatch.setattr(dynamics, "_simulate_block", never_simulate)
        start = time.perf_counter()
        code = cli.main(
            ["estimate", "--model", str(model), "--control", str(control), "--out", str(tmp_path / "est.json"),
             "--paths", "4096", "--dt", "1e-6", "--seed", "2", "--workers", "1"]
        )
        assert code == 5
        assert time.perf_counter() - start < 1.0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["control.json", "model.json"]


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

    @pytest.mark.parametrize("coefficient", ["drift", "diffusion"])
    def test_non_finite_coefficient_exits_4_and_writes_nothing(self, tmp_path, capsys, coefficient):
        # exp(800 * x1) overflows at the box's upper node x1 = 1
        blowup = {"drift": [["exp(800*x1)"]] * 2, "diffusion": [[["exp(800*x1)"]]] * 2}[coefficient]
        model = write_json(tmp_path / "blowup.json", dict(cli.DEMO_MODEL, **{coefficient: blowup}))
        out = tmp_path / "vg.json"
        code = cli.main(["solve", "--model", str(model), "--out", str(out), "--grid-nx", "5", "--grid-nt", "4"])
        assert code == 4
        assert f"{coefficient} of regime 1 is not finite at node [1.0]" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [model]

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
        outs = [tmp_path / "report.json", tmp_path / "again.json"]
        for out in outs:
            assert cli.main(["verify", "--check", "solver_oracle", "intervals", "--out", str(out)]) == 0
        # the report holds no timing, so a rerun repeats it byte for byte
        text = outs[0].read_text()
        assert outs[1].read_text() == text
        assert "elapsed_seconds" not in text
        doc = json.loads(text)
        # the same top-level keys as the report of an empty check list
        assert set(doc) == {"pass", "checks"}
        assert doc["pass"] is True
        assert {c["name"] for c in doc["checks"]} == {"solver_oracle", "intervals"}
        for c in doc["checks"]:
            assert set(c) >= {"name", "pass", "margin", "tolerance"}

    def test_tampered_tolerance_fails(self, monkeypatch, tmp_path):
        from hybridopt import oracle_verify

        # refinement lowers V at continuity's probe, so a negative tolerance fails it
        monkeypatch.setattr(oracle_verify, "tol_disc", lambda model, vg: -1.0)
        out = tmp_path / "report.json"
        assert cli.main(["verify", "--check", "continuity", "--out", str(out)]) == 6
        doc = json.loads(out.read_text())
        assert doc["pass"] is False
        assert doc["checks"][0]["details"]["failed"] == ["upward_within_tol"]

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

    @pytest.mark.parametrize("workers", ["0", "-2", "two"])
    def test_bad_count_exits_2(self, workers, demo_files, monkeypatch, capsys):
        # a count below 1, or not an int, is refused at parse time, naming the
        # flag, before any work
        monkeypatch.setattr(dynamics, "_simulate_block", never_simulate)
        model, control = demo_files
        assert cli.main(["estimate", "--model", str(model), "--control", str(control), "--workers", workers]) == 2
        assert "argument --workers: " in capsys.readouterr().err


class TestNonFiniteTimes:
    # a NaN passes every "<= 0" test and an inf overflows the step count: both
    # are config errors (exit 2) that name the value, raised before any work
    @pytest.mark.parametrize(
        "command, flag, value, named",
        [("estimate", "--dt", "nan", "s = 0.0, t_end = 1.0, dt = nan"),
         ("simulate", "--dt", "inf", "s = 0.0, t_end = 1.0, dt = inf"),
         ("simulate", "--t0", "nan", "s = nan, t_end = 1.0, dt = 0.01"),
         ("simulate", "--horizon", "nan", "s = 0.0, t_end = nan, dt = 0.01"),
         ("simulate", "--horizon", "inf", "s = 0.0, t_end = inf, dt = 0.01")],
        ids=["estimate-dt-nan", "simulate-dt-inf", "simulate-t0-nan", "simulate-horizon-nan", "simulate-horizon-inf"],
    )
    def test_flag_exits_2(self, command, flag, value, named, demo_files, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(dynamics, "_simulate_block", never_simulate)
        model, control = demo_files
        out = tmp_path / "out"
        assert cli.main([command, "--model", str(model), "--control", str(control), "--out", str(out),
                         "--workers", "1", flag, value]) == 2
        assert capsys.readouterr().err == f"error: times must be finite, got {named}\n"
        assert not out.exists()

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("command", ["estimate", "solve"])
    def test_model_horizon_exits_2(self, command, horizon, demo_files, tmp_path, capsys):
        model, control = demo_files
        payload = json.loads(model.read_text())
        payload["horizon"] = horizon
        write_json(model, payload)
        argv = [command, "--model", str(model), "--out", str(tmp_path / "out"), "--workers", "1"]
        assert cli.main(argv + (["--control", str(control)] if command == "estimate" else [])) == 2
        assert capsys.readouterr().err == f"error: horizon must be positive and finite, got {horizon!r}\n"


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


_DIRAC = {"atoms": [[0.5]], "weights": [1.0]}
_CONSTANT = {"kind": "constant", "mu": _DIRAC, "nu": _DIRAC}
_POOL = {"candidates": [_DIRAC], "map": [0, 0]}
_WINDOW_MAX = {"kind": "path_dependent", "window": 2, "statistic": "max", "buckets": [0.5], "mu": _POOL, "nu": _POOL}
_THREE_REGIMES = {
    "regime_count": 3,
    "drift": [["0"]] * 3,
    "diffusion": [[["0"]]] * 3,
    "rates": [[None, "0.4*nu_m(1,0)", "0"], ["0", None, "0"], ["0", "0", None]],
}
_TWO_DIMS = {
    "state_dim": 2,
    "drift": [["0", "0"]] * 2,
    "diffusion": [[["0", "0"], ["0", "0"]]] * 2,
    "truncation": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
    "starts": [{"x": [0.0, 0.0], "i": 1}],
}


def _artifact_text(name: str) -> str:
    """The value-grid artifact a table control case names: "NO_GRID" lacks
    its "grid" entry, "DEMO" is the demo model solved on a 5-slice, 3-node
    lattice, "VALUES_CUT" is that one with its values a slice short,
    "NU_INDEX_5" has every nu index 5 against its 2 candidates,
    "MU_INDEX_NEG" has its last mu index -1 against its 1 candidate, and
    "NU_INDEX_FLOAT" / "NU_INDEX_BOOL" have a nu index of 1.7 / true, and
    "NU_CANDIDATE_NO_WEIGHTS" has no weights in its second nu candidate."""
    if name == "NO_GRID":
        return json.dumps({"schema_version": 1})
    model, _ = config.load_model(cli.DEMO_MODEL)
    u = model.action_set
    doc = solve(model, GridSpec(5, [3], 1), [dirac(u, [0.5])], [dirac(u, [0.0]), dirac(u, [1.0])]).to_dict()
    if name == "VALUES_CUT":
        doc["values"] = doc["values"][:-1]
    if name == "NU_INDEX_5":
        doc["policy_nu"][:] = 5
    if name == "MU_INDEX_NEG":
        doc["policy_mu"][-1, -1, -1] = -1
    if name in ("NU_INDEX_FLOAT", "NU_INDEX_BOOL"):
        doc["policy_nu"] = doc["policy_nu"].tolist()
        doc["policy_nu"][0][0][0] = 1.7 if name == "NU_INDEX_FLOAT" else True
    if name == "NU_CANDIDATE_NO_WEIGHTS":
        del doc["nu_candidates"][1]["weights"]
    return config.artifact_json(doc)


# (command, changes to the demo model, control spec, extra flags); a table
# control's artifact names one of ``_artifact_text``'s
MALFORMED_INPUTS = {
    "control_without_mu": ("simulate", {}, {"kind": "constant", "nu": _DIRAC}, []),
    "markov_map_without_candidates": (
        "simulate", {}, {"kind": "markov", "mu": {"per_regime": [0, 0]}, "nu": dict(_POOL, per_regime=[0, 0])}, []
    ),
    "path_dependent_without_window": (
        "simulate", {}, {"kind": "path_dependent", "statistic": "max", "buckets": [0.5], "mu": _POOL, "nu": _POOL}, []
    ),
    "table_artifact_without_grid": ("simulate", {}, {"kind": "table", "artifact": "NO_GRID"}, []),
    "table_artifact_values_cut": ("simulate", {}, {"kind": "table", "artifact": "VALUES_CUT"}, []),
    "table_artifact_two_regimes_on_three": ("simulate", _THREE_REGIMES, {"kind": "table", "artifact": "DEMO"}, []),
    "table_artifact_1d_on_2d": ("simulate", _TWO_DIMS, {"kind": "table", "artifact": "DEMO"}, []),
    "table_artifact_nu_index_past_candidates": ("simulate", {}, {"kind": "table", "artifact": "NU_INDEX_5"}, []),
    "table_artifact_mu_index_negative": ("simulate", {}, {"kind": "table", "artifact": "MU_INDEX_NEG"}, []),
    "table_artifact_nu_index_a_float": ("simulate", {}, {"kind": "table", "artifact": "NU_INDEX_FLOAT"}, []),
    "table_artifact_nu_index_a_bool": ("simulate", {}, {"kind": "table", "artifact": "NU_INDEX_BOOL"}, []),
    "path_dependent_coordinate_past_state_dim": ("simulate", {}, dict(_WINDOW_MAX, coordinate=3), []),
    "path_dependent_coordinate_negative": ("simulate", {}, dict(_WINDOW_MAX, coordinate=-1), []),
    # nu at 0 switches off the demo's one rate, so no path reaches regime 2
    "per_regime_shorter_than_regime_count": (
        "simulate", {}, {"kind": "markov", "mu": {"candidates": [_DIRAC], "per_regime": [0]},
                         "nu": {"candidates": [{"atoms": [[0.0]], "weights": [1.0]}], "per_regime": [0]}}, []
    ),
    "markov_candidate_without_weights": (
        "simulate", {}, {"kind": "markov", "mu": {"candidates": [_DIRAC, {"atoms": [[0.5]]}], "per_regime": [0, 1]},
                         "nu": {"candidates": [_DIRAC], "per_regime": [0, 0]}}, []
    ),
    "table_artifact_candidate_without_weights": ("simulate", {}, {"kind": "table", "artifact": "NU_CANDIDATE_NO_WEIGHTS"}, []),
    "control_spec_a_list": ("simulate", {}, [_CONSTANT], []),
    "atoms_a_string": ("simulate", {}, {"kind": "constant", "mu": {"atoms": "x", "weights": [1.0]}, "nu": _DIRAC}, []),
    "rate_bound_a_string": ("simulate", {"rate_bound": "x"}, _CONSTANT, []),
    "growth_a_string": ("simulate", {"constants": {"growth": "abc"}}, _CONSTANT, []),
    "grid_nx_a_letter": ("solve", {}, None, ["--grid-nx", "a"]),
}


class TestExitCodes:
    @pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
    def test_malformed_input_exits_2(self, case, tmp_path, capsys):
        command, changes, control, extra = MALFORMED_INPUTS[case]
        model = write_json(tmp_path / "model.json", dict(cli.DEMO_MODEL, **changes))
        out = tmp_path / "out" / "result"
        out.parent.mkdir()
        argv = [command, "--model", str(model), "--out", str(out)] + extra
        if control is not None:
            if isinstance(control, dict) and control.get("kind") == "table":
                artifact = tmp_path / "vg.json"
                artifact.write_text(_artifact_text(control["artifact"]))
                control = dict(control, artifact=str(artifact))
            argv += ["--control", str(write_json(tmp_path / "control.json", control))]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if "without_weights" in case:
            # the candidate list is built in one batch, with the one-measure message
            assert 'measure JSON must be {"atoms": [...], "weights": [...]}' in err
        assert list(out.parent.iterdir()) == []

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
            (IsADirectoryError(21, "Is a directory", "out"), 2),
            (PermissionError(13, "Permission denied", "model.json"), 2),
        ],
    )
    def test_error_kind_sets_exit_code(self, error, code, monkeypatch, capsys):
        def fail(args):
            raise error

        monkeypatch.setitem(cli._COMMANDS, "verify", fail)
        assert cli.main(["verify"]) == code
        assert capsys.readouterr().err.startswith("error: ")
