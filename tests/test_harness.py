"""Config, checkpoint, and writer tests.

The binary-layout test re-reads a saved checkpoint with raw struct calls
so the documented file format, not just the round-trip, is pinned.
"""

import errno
import hashlib
import io
import json
import os
import struct
import zlib
from dataclasses import replace

import numpy as np
import pytest

from dogfight import harness
from dogfight.environment import env_step, flatten, reset, unflatten
from dogfight.harness import (
    FORMAT_VERSION,
    MAGIC,
    TRAJECTORY_HEADER,
    BadMagicError,
    CheckpointError,
    ChecksumError,
    ConfigError,
    TruncatedFileError,
    VersionMismatchError,
    config_hash,
    load_checkpoint,
    load_config,
    parse_config,
    save_checkpoint,
    serialize_config,
    smoke_profile,
    write_match,
    write_metrics,
    write_trajectory,
)
from dogfight.mlp import MlpParams, init_params
from dogfight.ppo import TrainMetrics
from dogfight.selfplay import AgentCheckpoint, IterationMetrics, LeagueConfig, \
    MatchRecord


def test_parse_empty_config_gives_defaults():
    cfg = parse_config("")
    assert cfg == LeagueConfig()
    assert cfg.train.batch_size == 1024
    assert cfg.search.num_simulations == 20
    assert cfg.eval_opponents == 36


def test_parse_overrides():
    cfg = parse_config("""
[run]
seed = 7
iterations = 3
use_mcts = false

[train]
batch_size = 128
actor_lr = 0.01

[search]
num_simulations = 5

[evaluate]
opponents = 4
games = 2

[scenario]
sep_min = 6000.0
""")
    assert cfg.seed == 7 and cfg.iterations == 3 and not cfg.use_mcts
    assert cfg.train.batch_size == 128 and cfg.train.actor_lr == 0.01
    assert cfg.search.num_simulations == 5
    assert cfg.eval_opponents == 4 and cfg.eval_games == 2
    assert cfg.scenario.sep_min == 6000.0
    assert cfg.train.gamma == 0.99  # untouched defaults survive


def test_parse_rejects_unknown_section_and_key():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[mystery]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[train]\nlearning_rate = 0.1\n")
    # configparser would otherwise merge [DEFAULT] keys into every section.
    for text in ("[DEFAULT]\n", "[DEFAULT]\nseed = 3\nfrobnicate = 1\n",
                 "[DEFAULT]\nseed = 3\n[run]\n"):
        with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
            parse_config(text)


def test_parse_rejects_bad_values():
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config("[train]\nepochs = six\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config("[run]\nuse_mcts = maybe\n")
    with pytest.raises(ConfigError):
        parse_config("[scenario]\nspeed_min = -5.0\n")  # domain validation
    with pytest.raises(ConfigError, match="speed floor"):
        parse_config("[scenario]\nspeed_min = 0.05\n")
    with pytest.raises(ConfigError, match="ground floor"):
        parse_config("[scenario]\nalt_min = 50.0\n")
    with pytest.raises(ConfigError):
        parse_config("[run]\niterations = 0\n")
    # inf * 0 would make a NaN score where a prior underflows to 0.
    for c_puct in ("inf", "-inf", "nan"):
        with pytest.raises(ConfigError, match="c_puct"):
            parse_config(f"[search]\nc_puct = {c_puct}\n")
    with pytest.raises(ConfigError, match="malformed"):
        parse_config("no section header")


def test_serialize_parse_fixed_point():
    cfg = parse_config("[run]\nseed = 9\n[train]\ngamma = 0.97\n")
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert serialize_config(again) == text


def test_config_hash_tracks_content():
    base = LeagueConfig()
    assert config_hash(base) == config_hash(LeagueConfig())
    assert len(config_hash(base)) == 64
    changed = replace(base, seed=1)
    assert config_hash(changed) != config_hash(base)
    # the code-only fields are not part of the INI text
    assert config_hash(replace(base, config_hash="x")) == config_hash(base)


def test_smoke_profile():
    cfg = smoke_profile(LeagueConfig())
    assert cfg.iterations == 10
    assert cfg.train.batch_size == 256
    assert cfg.eval_opponents == 4
    assert cfg.eval_games == 3  # unchanged by the profile


# Every key at a value other than its default: a float that needs 17
# significant digits, ints given for float keys, a nested out_dir.
_ALL_KEYS = """\
[run]
seed = 12345
iterations = 7
out_dir = runs/nested/dir
use_mcts = {word}

[evaluate]
opponents = 5
games = 2

[train]
gamma = 0.30000000000000004
gae_lambda = 0.9
clip_epsilon = 0.25
epochs = 3
batch_size = 128
actor_lr = 0.0005
critic_lr = 1e-4
entropy_coeff = 0

[search]
num_actions = 7
num_simulations = 12
c_puct = 2
max_depth = 4

[scenario]
speed_min = 260.5
speed_max = 400.00000000001
alt_min = 3500
alt_max = 7999.999999999999
sep_min = 5500.0
sep_max = 14000.25
"""


def test_config_text_is_pinned():
    # The INI bytes go into config.ini and, through config_hash, into every
    # checkpoint: a new digest here means new bytes in every run directory.
    defaults = parse_config("")
    configs = [defaults, smoke_profile(defaults)]
    for word in ("true", "false", "1", "0", "yes", "no", "on", "off", "TRUE", "Off"):
        configs.append(parse_config(_ALL_KEYS.format(word=word)))
    for base in (defaults, configs[-1]):
        configs += [replace(base, use_mcts=False),
                    replace(base, out_dir="elsewhere/run"),
                    replace(base, seed=3, out_dir="run"),
                    smoke_profile(replace(base, use_mcts=False))]
    text = "\0".join(serialize_config(cfg) for cfg in configs)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
        "0103c62986c5a68bbdeddb50e1d5059c96e99e289e9f5b89f7c275c24134d1da"


def _checkpoint(seed=0, sizes=(13, 6, 5, 4)):
    return AgentCheckpoint(iteration=3,
                           actor=init_params(seed, sizes, with_log_std=True),
                           critic=init_params(seed + 1, sizes[:-1] + (1,)),
                           seed=1234567890123,
                           config_hash="abc123")


def test_checkpoint_round_trip_bit_exact(tmp_path):
    path = tmp_path / "agent.ckpt"
    ckpt = _checkpoint()
    save_checkpoint(path, ckpt)
    back = load_checkpoint(path)
    assert back.iteration == 3
    assert back.seed == 1234567890123
    assert back.config_hash == "abc123"
    for mine, theirs in ((ckpt.actor, back.actor), (ckpt.critic, back.critic)):
        assert len(mine.weights) == len(theirs.weights)
        for a, b in zip(mine.tensors(), theirs.tensors()):
            assert a.dtype == b.dtype == np.float64
            assert np.array_equal(a, b)
    assert back.critic.log_std is None
    assert back.actor.log_std is not None


def test_checkpoint_fortran_order_round_trips(tmp_path):
    ckpt = _checkpoint()
    ckpt.actor.weights[0] = np.asfortranarray(ckpt.actor.weights[0])
    path = tmp_path / "f.ckpt"
    save_checkpoint(path, ckpt)
    back = load_checkpoint(path)
    assert np.array_equal(back.actor.weights[0], ckpt.actor.weights[0])


def test_checkpoint_binary_layout(tmp_path):
    path = tmp_path / "layout.ckpt"
    save_checkpoint(path, _checkpoint())
    data = path.read_bytes()
    assert data[:4] == MAGIC
    (length,) = struct.unpack("<I", data[4:8])
    payload = data[8:8 + length]
    (crc,) = struct.unpack("<I", data[8 + length:8 + length + 4])
    assert len(data) == 8 + length + 4
    assert zlib.crc32(payload) == crc
    version, iteration = struct.unpack("<II", payload[:8])
    (seed,) = struct.unpack("<Q", payload[8:16])
    (hash_len,) = struct.unpack("<I", payload[16:20])
    assert version == FORMAT_VERSION and iteration == 3
    assert seed == 1234567890123
    assert payload[20:20 + hash_len] == b"abc123"
    n_actor, n_critic = struct.unpack("<II", payload[20 + hash_len:28 + hash_len])
    assert n_actor == 7  # three weights, three biases, log-std
    assert n_critic == 6
    # First tensor: rank 2, dims 13 x 6, then 78 little-endian doubles.
    off = 28 + hash_len
    rank, d0, d1 = struct.unpack("<III", payload[off:off + 12])
    assert (rank, d0, d1) == (2, 13, 6)
    first = np.frombuffer(payload[off + 12:off + 12 + 78 * 8], dtype="<f8")
    assert np.array_equal(first.reshape(13, 6), init_params(0, (13, 6, 5, 4),
                                                            with_log_std=True).weights[0])


def test_checkpoint_flip_byte_is_checksum_error(tmp_path):
    path = tmp_path / "bad.ckpt"
    save_checkpoint(path, _checkpoint())
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF  # somewhere inside tensor data
    path.write_bytes(bytes(data))
    with pytest.raises(ChecksumError):
        load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "nota.ckpt"
    save_checkpoint(path, _checkpoint())
    data = bytearray(path.read_bytes())
    data[:4] = b"WAVE"
    path.write_bytes(bytes(data))
    with pytest.raises(BadMagicError):
        load_checkpoint(path)


def test_checkpoint_truncation(tmp_path):
    path = tmp_path / "cut.ckpt"
    save_checkpoint(path, _checkpoint())
    data = path.read_bytes()
    for cut in (3, 6, len(data) - 10):
        path.write_bytes(data[:cut])
        with pytest.raises(TruncatedFileError):
            load_checkpoint(path)


def test_checkpoint_trailing_garbage(tmp_path):
    path = tmp_path / "tail.ckpt"
    save_checkpoint(path, _checkpoint())
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def _nets_that_are_not_agents():
    """(actor, critic, the refusal's words) of networks that a checkpoint
    file can hold but that are not an agent."""
    actor, critic = _checkpoint().actor, _checkpoint().critic

    def actor_with(**parts):
        return MlpParams(**{"weights": actor.weights, "biases": actor.biases,
                            "log_std": actor.log_std, **parts})

    return {
        "actor without log-std": (
            init_params(1, (13, 8, 8, 4)), critic,
            "actor: 6 tensors are not layers with a log-std"),
        "critic with log-std": (actor, init_params(1, (13, 8, 1),
                                                   with_log_std=True),
                                "critic: 5 tensors are not layers without"),
        "three-output critic": (actor, init_params(1, (13, 8, 8, 3)),
                                "critic: maps 13 features to 3, not 13 to 1"),
        "twelve-feature actor": (
            init_params(0, (12, 6, 4), with_log_std=True), critic,
            "actor: maps 12 features to 4, not 13 to 4"),
        "two-output actor": (
            init_params(0, (13, 6, 2), with_log_std=True), critic,
            "actor: maps 13 features to 2, not 13 to 4"),
        "log-std only": (MlpParams([], [], np.zeros(4)), critic,
                         "actor: 1 tensors are not layers"),
        "flat weight": (actor_with(weights=[actor.weights[0].ravel()]
                                   + actor.weights[1:]),
                        critic, "actor: weight 0 is not a matrix"),
        "bias shape": (actor_with(biases=[np.zeros(5)] + actor.biases[1:]),
                       critic, "actor: bias 0 shape mismatch"),
        "layer dimensions": (actor_with(weights=[actor.weights[0],
                                                 actor.weights[2],
                                                 actor.weights[2]],
                                        biases=[actor.biases[0],
                                                actor.biases[2],
                                                actor.biases[2]]),
                             critic, "actor: layer 1 dimension mismatch"),
        "log-std shape": (actor_with(log_std=np.zeros(3)), critic,
                          "actor: log-std shape mismatch"),
    }


@pytest.mark.parametrize("case", list(_nets_that_are_not_agents()))
def test_checkpoint_refuses_what_is_not_an_agent(tmp_path, case):
    # save_checkpoint writes any networks; load_checkpoint refuses a file
    # whose actor or critic could not fly, naming the path.
    actor, critic, words = _nets_that_are_not_agents()[case]
    path = tmp_path / "odd.ckpt"
    save_checkpoint(path, replace(_checkpoint(), actor=actor, critic=critic))
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: ") and words in str(err.value)


def test_checkpoint_refuses_a_config_hash_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin.ckpt"
    save_checkpoint(path, replace(_checkpoint(), config_hash="abc12é"))
    data = path.read_bytes()
    (length,) = struct.unpack("<I", data[4:8])
    payload = data[8:8 + length].replace("é".encode("utf-8"), b"\xff\xfe", 1)
    path.write_bytes(data[:8] + payload
                     + struct.pack("<I", zlib.crc32(payload)))
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: config hash is not UTF-8"


def test_checkpoint_version_mismatch_names_both(tmp_path):
    path = tmp_path / "v99.ckpt"
    save_checkpoint(path, _checkpoint())
    data = bytearray(path.read_bytes())
    (length,) = struct.unpack("<I", data[4:8])
    payload = bytearray(data[8:8 + length])
    payload[0:4] = struct.pack("<I", 99)
    blob = bytes(data[:8]) + bytes(payload) + struct.pack("<I", zlib.crc32(bytes(payload)))
    path.write_bytes(blob)
    with pytest.raises(VersionMismatchError) as err:
        load_checkpoint(path)
    message = str(err.value)
    assert "99" in message and str(FORMAT_VERSION) in message


class _TornFile(io.FileIO):
    """A file whose write stops halfway, as on a full disk."""

    def write(self, data):
        super().write(bytes(data)[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def _refuse_replace(src, dst):
    raise OSError(errno.EXDEV, "Invalid cross-device link")


@pytest.mark.parametrize("fault", ["write", "replace"])
def test_failed_checkpoint_write_keeps_the_old_file(tmp_path, monkeypatch, fault):
    path = tmp_path / "checkpoint_0003.ckpt"
    save_checkpoint(path, _checkpoint(seed=0))
    old = path.read_bytes()
    if fault == "write":
        monkeypatch.setattr(harness, "open", _TornFile, raising=False)
    else:
        monkeypatch.setattr(os, "replace", _refuse_replace)
    with pytest.raises(OSError):
        save_checkpoint(path, _checkpoint(seed=5))
    monkeypatch.undo()
    assert path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
    save_checkpoint(path, _checkpoint(seed=5))
    assert path.read_bytes() != old


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.ini")


def test_load_config_not_utf8(tmp_path):
    path = tmp_path / "latin.ini"
    path.write_bytes(b"[run]\nseed = 7 # \xff\n")
    with pytest.raises(ConfigError, match=r"cannot read config .*latin\.ini: 'utf-8'"):
        load_config(path)


def test_write_metrics_lines():
    sink = io.StringIO()
    train = TrainMetrics(surrogate=-0.01, value_loss=0.5, entropy=5.67,
                         clip_fraction=0.125, kl=0.001)
    write_metrics(sink, IterationMetrics(1, 2, 1, 9, 12, train, 480.5))
    write_metrics(sink, IterationMetrics(2, 0, 0, 12, 12, None, 360.0))
    lines = sink.getvalue().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert list(first) == ["iter", "wins", "losses", "draws", "surrogate",
                           "value_loss", "entropy", "clip_fraction", "seconds"]
    assert first["wins"] + first["losses"] + first["draws"] == 12
    assert first["seconds"] == 480.5
    second = json.loads(lines[1])
    assert second["surrogate"] is None and second["draws"] == 12


def test_write_match_line():
    sink = io.StringIO()
    write_match(sink, MatchRecord(4, 2, 1, "Win", 66, 33.0, 99))
    row = json.loads(sink.getvalue())
    assert row == {"iter": 4, "opponent_iter": 2, "game": 1, "outcome": "Win",
                   "steps": 66, "sim_time": 33.0, "seed": 99}


def test_write_trajectory_format():
    rows = []
    state = unflatten(env_step(flatten(reset(0)), (1.0, 0.0, 0.0, -1.0),
                               (1.0, 0.0, 0.0, -1.0), recorder=rows.append)[0])
    sink = io.StringIO()
    write_trajectory(sink, rows)
    lines = sink.getvalue().splitlines()
    assert lines[0] == TRAJECTORY_HEADER
    assert len(lines) == 1 + 50  # 25 sub-steps, two entities each
    cells = lines[1].split(",")
    assert len(cells) == 12
    assert cells[1] == "blue" and cells[-1] == "Ongoing"
    assert cells[8] == cells[9] == cells[10] == ""  # no missile yet
    assert float(cells[0]) == 0.02
    # Trim flight: the z and v columns stay constant across every blue row.
    blue_rows = [line.split(",") for line in lines[1::2]]
    assert {row[4] for row in blue_rows} == {blue_rows[0][4]}
    assert {row[5] for row in blue_rows} == {blue_rows[0][5]}
    assert float(blue_rows[0][4]) == state.blue.z


def test_seventeen_digit_cells_round_trip():
    from dogfight.harness import _cell
    for x in (1 / 3, 0.1, 5000.0, -0.0123456789012345678, 2.5e-17):
        assert float(_cell(x)) == x
    assert _cell(None) == ""
    assert _cell(0.5) == "0.5"  # trailing zeros trimmed
