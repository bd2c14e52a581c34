"""Command-line interface tests.

Each subcommand is driven through main() in-process (stdout/stderr via
capsys).  A subprocess check runs the console-script target declared in
pyproject.toml's [project.scripts] the way an installer's generated
wrapper calls it, plus both module entry points, ``python -m dogfight``
and ``python -m dogfight.cli``; the child interpreters import the source
tree under test.  A second subprocess check runs the installed
``dogfight`` script itself, and only where it is on PATH.  A third checks
that importing ``dogfight.cli`` leaves ``multiprocessing`` unloaded.  Exit
codes follow the contract: 0 success, 1 config or usage error, 2 runtime
error.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import dogfight
from dogfight import cli
from dogfight.cli import main
from dogfight.harness import (
    TRAJECTORY_HEADER,
    load_checkpoint,
    load_config,
    parse_config,
    save_checkpoint,
)
from dogfight.mlp import init_params
from dogfight.selfplay import AgentCheckpoint

TINY_CONFIG = """\
[run]
iterations = 2

[evaluate]
opponents = 2
games = 1

[train]
batch_size = 64
epochs = 2

[search]
num_simulations = 4
max_depth = 2
"""


@pytest.fixture(scope="module")
def ckpt_pair(tmp_path_factory):
    """Two random-init checkpoints on disk, no training needed."""
    root = tmp_path_factory.mktemp("ckpts")
    paths = []
    for i, seed in enumerate((60, 61)):
        actor = init_params(seed, (13, 16, 16, 4), with_log_std=True)
        critic = init_params(seed + 10, (13, 16, 16, 1))
        path = root / f"agent_{i}.ckpt"
        save_checkpoint(path, AgentCheckpoint(i, actor, critic, seed, "t"))
        paths.append(path)
    return paths


def _write_tiny_config(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_CONFIG, encoding="utf-8")
    return path


def test_selfcheck_passes(capsys):
    assert main(["selfcheck"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("ok   ") == out.count("\n") - 1  # every line but the tally


def test_train_tiny_run_writes_artifacts(tmp_path, monkeypatch, capsys):
    seen, real_loop = [], cli.train_loop

    def spy(config, **sinks):
        seen.append(config)
        return real_loop(config, **sinks)

    monkeypatch.setattr(cli, "train_loop", spy)
    cfg_path = _write_tiny_config(tmp_path)
    out_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--seed", "5",
                 "--out", str(out_dir), "--no-mcts"]) == 0
    # the file's and the flags' settings reach the loop
    (league,) = seen
    assert (league.seed, league.iterations, league.use_mcts) == (5, 2, False)
    assert (league.eval_opponents, league.eval_games) == (2, 1)
    assert (league.train.batch_size, league.search.num_simulations) == (64, 4)

    lines = (out_dir / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 2
    for i, line in enumerate(lines):
        row = json.loads(line)
        assert row["iter"] == i + 1
        assert row["wins"] + row["losses"] + row["draws"] == min(i + 1, 2) * 1

    ckpts = sorted(out_dir.glob("checkpoint_*.ckpt"))
    assert [p.name for p in ckpts] == ["checkpoint_0001.ckpt",
                                       "checkpoint_0002.ckpt"]
    assert load_checkpoint(ckpts[1]).iteration == 2
    # every checkpoint carries the sha256 of the run's config.ini
    digest = hashlib.sha256((out_dir / "config.ini").read_bytes()).hexdigest()
    assert [load_checkpoint(p).config_hash for p in ckpts] == [digest] * 2

    written = load_config(out_dir / "config.ini")
    assert written.iterations == 2
    assert written.seed == 5
    assert written.out_dir == str(out_dir)
    assert written.use_mcts is False

    # one eval match record per game played
    match_lines = (out_dir / "matches.jsonl").read_text().splitlines()
    assert len(match_lines) == 1 + 2
    assert {json.loads(line)["outcome"] for line in match_lines} \
        <= {"Win", "Loss", "Draw"}
    assert "iter   2/2" in capsys.readouterr().out


def test_train_rerun_is_byte_identical(tmp_path, monkeypatch):
    # Same config text, same seed, run from two working directories: every
    # artifact matches byte for byte (the config hash covers out_dir, so the
    # runs must share the relative output path).
    cfg_path = _write_tiny_config(tmp_path)
    outs = []
    for name in ("first", "second"):
        parent = tmp_path / name
        parent.mkdir()
        monkeypatch.chdir(parent)
        assert main(["train", "--config", str(cfg_path), "--seed", "9",
                     "--out", "run"]) == 0
        outs.append(parent / "run")
    for artifact in ("config.ini", "metrics.jsonl", "matches.jsonl",
                     "checkpoint_0002.ckpt"):
        assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()


def test_train_flag_wiring(tmp_path, monkeypatch):
    seen = {}

    def fake_loop(league, *, checkpoint_sink, metrics_sink, match_sink):
        seen["league"] = league
        return [], []

    monkeypatch.setattr("dogfight.cli.train_loop", fake_loop)
    out_dir = tmp_path / "wired"
    assert main(["train", "--seed", "3", "--out", str(out_dir),
                 "--no-mcts", "--smoke"]) == 0
    league = seen["league"]
    assert league.seed == 3
    assert league.use_mcts is False
    assert league.iterations == 10
    assert league.train.batch_size == 256
    assert league.eval_opponents == 4
    # the effective profile lands in the run directory
    written = load_config(out_dir / "config.ini")
    assert written.iterations == 10 and written.use_mcts is False


@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--out", "")],
                         ids=["seed", "out"])
def test_train_bad_override_exits_one(tmp_path, monkeypatch, capsys,
                                      flag, value):
    # Flag overrides are checked like config values: exit 1, before any
    # run directory exists.
    monkeypatch.chdir(tmp_path)
    assert main(["train", flag, value]) == 1
    assert "config error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_train_seed_beyond_u64_exits_one(tmp_path, monkeypatch, capsys):
    # A checkpoint stores the seed as u64, so a larger one is a config error
    # before any work, from the flag and from the INI alike.
    monkeypatch.chdir(tmp_path)
    ini = tmp_path / "big.ini"
    ini.write_text(f"[run]\nseed = {2 ** 64}\n", encoding="utf-8")
    for argv in (["train", "--seed", str(2 ** 64)],
                 ["train", "--config", str(ini)]):
        assert main(argv) == 1
        assert "config error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [ini]
    assert parse_config(f"[run]\nseed = {2 ** 64 - 1}\n").seed == 2 ** 64 - 1


def test_eval_prints_game_lines(ckpt_pair, capsys):
    a, b = ckpt_pair
    assert main(["eval", "--a", str(a), "--b", str(b),
                 "--games", "3", "--seed", "11"]) == 0
    out = capsys.readouterr().out.splitlines()
    game_lines = [line for line in out if line.startswith("game ")]
    assert len(game_lines) == 3
    for line in game_lines:
        assert any(word in line for word in ("Win", "Loss", "Draw"))
    assert out[-1].startswith("a vs b:")


def test_eval_rejects_bad_counts(ckpt_pair, capsys):
    a, b = ckpt_pair
    assert main(["eval", "--a", str(a), "--b", str(b), "--games", "0"]) == 1
    assert main(["eval", "--a", str(a), "--b", str(b), "--seed", "-4"]) == 1
    err = capsys.readouterr().err
    assert "games" in err and "seed" in err


def test_replay_writes_trajectory(ckpt_pair, tmp_path, capsys):
    a, b = ckpt_pair
    traj = tmp_path / "flight.csv"
    assert main(["replay", "--ckpt-a", str(a), "--ckpt-b", str(b),
                 "--seed", "4", "--traj", str(traj)]) == 0
    lines = traj.read_text().splitlines()
    assert lines[0] == TRAJECTORY_HEADER
    assert len(lines) > 100
    assert all(len(line.split(",")) == 12 for line in lines[1:])
    assert capsys.readouterr().out.strip().endswith(str(traj))


def test_unknown_flag_prints_usage(capsys):
    assert main(["train", "--frobnicate"]) == 1
    assert "usage:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_bad_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\niterations = zero\n", encoding="utf-8")
    assert main(["train", "--config", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err


def test_missing_config_exits_one(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "absent.ini")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_missing_checkpoint_exits_two(tmp_path, capsys):
    ghost = tmp_path / "ghost.ckpt"
    assert main(["eval", "--a", str(ghost), "--b", str(ghost)]) == 2
    assert "error" in capsys.readouterr().err


def test_corrupt_checkpoint_exits_two(ckpt_pair, tmp_path, capsys):
    blob = bytearray(ckpt_pair[0].read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    hurt = tmp_path / "hurt.ckpt"
    hurt.write_bytes(bytes(blob))
    assert main(["eval", "--a", str(hurt), "--b", str(ckpt_pair[1])]) == 2
    assert "mismatch" in capsys.readouterr().err

    stub = tmp_path / "stub.ckpt"
    stub.write_bytes(bytes(blob[:40]))
    assert main(["replay", "--ckpt-a", str(stub), "--ckpt-b", str(ckpt_pair[1]),
                 "--traj", str(tmp_path / "t.csv")]) == 2


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SOURCE_ROOT = Path(dogfight.__file__).resolve().parents[1]


def _child_env():
    """The environment for a child interpreter that imports the source tree
    under test, not an installed copy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SOURCE_ROOT), env.get("PYTHONPATH")) if p)
    return env


def _assert_usage(result, what):
    assert result.returncode == 0, \
        f"{what} exited {result.returncode}; stderr:\n{result.stderr}"
    assert "usage: dogfight" in result.stdout, \
        f"{what} printed no usage line; stderr:\n{result.stderr}"


def test_console_script_and_module_answer():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["dogfight"]
    module, _, attr = target.partition(":")
    # the body of the wrapper an installer generates for a console script
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    commands = {
        f"console script {target}": [sys.executable, "-c", wrapper, "--help"],
        "python -m dogfight": [sys.executable, "-m", "dogfight", "--help"],
        "python -m dogfight.cli": [sys.executable, "-m", "dogfight.cli", "--help"],
    }
    env = _child_env()
    for what, cmd in commands.items():
        result = subprocess.run(cmd, capture_output=True, text=True,
                                check=False, env=env)
        _assert_usage(result, what)


def test_cli_import_leaves_multiprocessing_unloaded():
    # The worker pool imports multiprocessing only when it forks, so the
    # fresh-interpreter import that bench/run.py's setup_s times stays lean.
    code = ("import sys, dogfight.cli; "
            "print('dogfight.workers' in sys.modules, "
            "'multiprocessing' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=False, env=_child_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["True", "False"]


@pytest.mark.skipif(shutil.which("dogfight") is None,
                    reason="dogfight console script not installed on PATH")
def test_installed_console_script_answers():
    result = subprocess.run(["dogfight", "--help"], capture_output=True,
                            text=True, check=False)
    _assert_usage(result, "dogfight --help")
