"""Run configuration text, checkpoint files, and structured output writers.

A run is a `selfplay.LeagueConfig`, written as flat `key = value` text with
sections.  One table, _SECTIONS, names the fields each section holds; the
parser and the serializer both walk it, and take each key's type and
default from the dataclass field.  Unknown sections or keys are rejected so
a typo cannot silently break a reproduction.  The
checkpoint format stores every tensor as little-endian float64 with a
CRC32 trailer, so a round-trip is bit-exact and corruption, truncation,
bad magic, and version drift are four distinct errors.  A file that holds
no agent (see _params_from) is refused too.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import os
import struct
import zlib
from dataclasses import fields, replace
from typing import get_type_hints

import numpy as np

from .environment import OBS_DIM
from .mlp import MlpParams
from .selfplay import AgentCheckpoint, IterationMetrics, LeagueConfig

MAGIC = b"DGFT"
FORMAT_VERSION = 1

TRAJECTORY_HEADER = ("t,side,x,y,z,v,gamma,phi,"
                     "missile_x,missile_y,missile_z,outcome")


class ConfigError(ValueError):
    """Unparseable, unknown, or out-of-range configuration input."""


class CheckpointError(Exception):
    """Base for checkpoint file problems."""


class BadMagicError(CheckpointError):
    pass


class VersionMismatchError(CheckpointError):
    pass


class ChecksumError(CheckpointError):
    pass


class TruncatedFileError(CheckpointError):
    pass


# Which fields each INI section holds, in file order: top-level LeagueConfig
# fields by key, or the name of the nested config whose fields are the keys.
# Each key's type is its field's annotation and its default the field's.
_SECTIONS = {
    "run": {name: name for name in ("seed", "iterations", "out_dir", "use_mcts")},
    "evaluate": {"opponents": "eval_opponents", "games": "eval_games"},
    "train": "train",
    "search": "search",
    "scenario": "scenario",
}


def _layout() -> dict:
    """section -> (nested field, its config class, {key: (field, type)});
    the first two are None for a section of top-level fields."""
    top = get_type_hints(LeagueConfig)
    layout = {}
    for section, held in _SECTIONS.items():
        if isinstance(held, str):
            cls = top[held]
            kinds = get_type_hints(cls)
            layout[section] = (held, cls, {f.name: (f.name, kinds[f.name])
                                           for f in fields(cls)})
        else:
            layout[section] = (None, None, {key: (name, top[name])
                                            for key, name in held.items()})
    return layout


_LAYOUT = _layout()

_BOOL_WORDS = {"true": True, "false": False, "1": True, "0": False,
               "yes": True, "no": False, "on": True, "off": False}


def _convert(section: str, key: str, text: str, kind):
    try:
        if kind is bool:
            word = text.strip().lower()
            if word not in _BOOL_WORDS:
                raise ValueError(text)
            return _BOOL_WORDS[word]
        return kind(text)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: cannot parse {text!r} as {kind.__name__}") from None


def parse_config(text: str) -> LeagueConfig:
    """Parse config text, rejecting unknown sections and keys."""
    # No header can hold a newline, so no section is the parser's default
    # section: a [DEFAULT] header is an ordinary, and unknown, section.
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None

    values: dict[str, dict] = {section: {} for section in _LAYOUT}
    for section in parser.sections():
        if section not in _LAYOUT:
            raise ConfigError(f"unknown section [{section}]")
        keys = _LAYOUT[section][2]
        for key, raw in parser.items(section):
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            name, kind = keys[key]
            values[section][name] = _convert(section, key, raw, kind)

    try:
        kwargs = {}
        for section, (nested, cls, _) in _LAYOUT.items():
            if nested is None:
                kwargs.update(values[section])
            else:
                kwargs[nested] = cls(**values[section])
        return LeagueConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path) -> LeagueConfig:
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return parse_config(fp.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(cfg: LeagueConfig) -> str:
    """Canonical text form; parse(serialize(x)) == x and re-serializing is stable."""
    lines = []
    for section, (nested, _, keys) in _LAYOUT.items():
        holder = cfg if nested is None else getattr(cfg, nested)
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {_fmt(getattr(holder, name))}"
                     for key, (name, _) in keys.items())
        lines.append("")
    return "\n".join(lines)


def config_hash(cfg: LeagueConfig) -> str:
    """sha256 of the config's INI text: the code-only fields do not count."""
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()


def smoke_profile(cfg: LeagueConfig) -> LeagueConfig:
    """The fast pipeline-liveness profile: 10 iterations, batch 256, 4 opponents."""
    return replace(cfg, iterations=10, eval_opponents=4,
                   train=replace(cfg.train, batch_size=256))


def _pack_tensor(arr: np.ndarray) -> bytes:
    a = np.ascontiguousarray(arr, dtype="<f8")
    head = struct.pack("<I", a.ndim)
    head += b"".join(struct.pack("<I", d) for d in a.shape)
    return head + a.tobytes(order="C")


class _Cursor:
    def __init__(self, payload: bytes, path):
        self.data = payload
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedFileError(f"{self.path}: payload ends early")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    @property
    def exhausted(self) -> bool:
        return self.pos == len(self.data)


def _read_tensor(cur: _Cursor) -> np.ndarray:
    rank = cur.u32()
    if rank > 8:
        raise CheckpointError(f"{cur.path}: implausible tensor rank {rank}")
    shape = tuple(cur.u32() for _ in range(rank))
    count = 1
    for d in shape:
        count *= d
    raw = cur.take(8 * count)
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def _params_from(tensors: list[np.ndarray], what: str, outputs: int,
                 with_log_std: bool) -> MlpParams:
    """The network in tensors (weights, biases, then the log-std where
    with_log_std), which must map OBS_DIM features to outputs."""
    n = len(tensors)
    layers = (n - with_log_std) // 2
    if layers < 1 or n != 2 * layers + with_log_std:
        raise CheckpointError(
            f"{what}: {n} tensors are not layers "
            f"{'with' if with_log_std else 'without'} a log-std")
    weights = tensors[:layers]
    biases = tensors[layers:2 * layers]
    log_std = tensors[-1] if with_log_std else None
    for i, w in enumerate(weights):
        if w.ndim != 2:
            raise CheckpointError(f"{what}: weight {i} is not a matrix")
        if biases[i].shape != (w.shape[1],):
            raise CheckpointError(f"{what}: bias {i} shape mismatch")
        if i and weights[i - 1].shape[1] != w.shape[0]:
            raise CheckpointError(f"{what}: layer {i} dimension mismatch")
    if (weights[0].shape[0], weights[-1].shape[1]) != (OBS_DIM, outputs):
        raise CheckpointError(
            f"{what}: maps {weights[0].shape[0]} features to "
            f"{weights[-1].shape[1]}, not {OBS_DIM} to {outputs}")
    if log_std is not None and log_std.shape != (outputs,):
        raise CheckpointError(f"{what}: log-std shape mismatch")
    return MlpParams(list(weights), list(biases), log_std)


def save_checkpoint(path, ckpt: AgentCheckpoint) -> None:
    """Write magic, length, payload (version, metadata, tensors), CRC32.

    The file is written whole beside path, then renamed onto it, so a crash
    leaves either the old checkpoint or the new one, never a torn file.
    """
    if not 0 <= ckpt.iteration < 2 ** 32:
        raise ValueError(f"iteration {ckpt.iteration} out of range")
    if not 0 <= ckpt.seed < 2 ** 64:
        raise ValueError(f"seed {ckpt.seed} out of range")
    hash_bytes = ckpt.config_hash.encode("utf-8")
    actor_tensors = ckpt.actor.tensors()
    critic_tensors = ckpt.critic.tensors()
    payload = struct.pack("<I", FORMAT_VERSION)
    payload += struct.pack("<I", ckpt.iteration)
    payload += struct.pack("<Q", ckpt.seed)
    payload += struct.pack("<I", len(hash_bytes)) + hash_bytes
    payload += struct.pack("<II", len(actor_tensors), len(critic_tensors))
    payload += b"".join(_pack_tensor(t) for t in actor_tensors + critic_tensors)
    blob = MAGIC + struct.pack("<I", len(payload)) + payload
    blob += struct.pack("<I", zlib.crc32(payload))
    # The temporary name does not end in .ckpt, so no `*.ckpt` glob sees it.
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fp:
            fp.write(blob)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_checkpoint(path) -> AgentCheckpoint:
    """Inverse of save_checkpoint; every failure mode is a distinct error."""
    with open(path, "rb") as fp:
        data = fp.read()
    if len(data) < 8:
        raise TruncatedFileError(f"{path}: {len(data)} bytes is too short")
    if data[:4] != MAGIC:
        raise BadMagicError(f"{path}: not a checkpoint file")
    (length,) = struct.unpack("<I", data[4:8])
    if len(data) < 8 + length + 4:
        raise TruncatedFileError(
            f"{path}: payload declares {length} bytes, file holds {len(data) - 12}")
    if len(data) > 8 + length + 4:
        raise CheckpointError(f"{path}: trailing bytes after checksum")
    payload = data[8:8 + length]
    (crc,) = struct.unpack("<I", data[8 + length:])
    if zlib.crc32(payload) != crc:
        raise ChecksumError(f"{path}: CRC32 mismatch")

    cur = _Cursor(payload, path)
    version = cur.u32()
    if version != FORMAT_VERSION:
        raise VersionMismatchError(
            f"{path}: file version {version}, reader supports {FORMAT_VERSION}")
    iteration = cur.u32()
    seed = cur.u64()
    try:
        hash_text = cur.take(cur.u32()).decode("utf-8")
    except UnicodeDecodeError:
        raise CheckpointError(f"{path}: config hash is not UTF-8") from None
    n_actor = cur.u32()
    n_critic = cur.u32()
    tensors = [_read_tensor(cur) for _ in range(n_actor + n_critic)]
    if not cur.exhausted:
        raise CheckpointError(f"{path}: unread bytes inside payload")
    actor = _params_from(tensors[:n_actor], f"{path}: actor", 4, True)
    critic = _params_from(tensors[n_actor:], f"{path}: critic", 1, False)
    return AgentCheckpoint(iteration=iteration, actor=actor, critic=critic,
                           seed=seed, config_hash=hash_text)


def write_metrics(fp, metrics: IterationMetrics) -> None:
    """One JSON object per line; key order fixed so reruns are byte-identical."""
    train = metrics.train
    row = {
        "iter": metrics.iteration,
        "wins": metrics.wins,
        "losses": metrics.losses,
        "draws": metrics.draws,
        "surrogate": None if train is None else train.surrogate,
        "value_loss": None if train is None else train.value_loss,
        "entropy": None if train is None else train.entropy,
        "clip_fraction": None if train is None else train.clip_fraction,
        "seconds": metrics.seconds,
    }
    fp.write(json.dumps(row) + "\n")


def write_match(fp, record) -> None:
    row = {
        "iter": record.iteration,
        "opponent_iter": record.opponent_iteration,
        "game": record.game_index,
        "outcome": record.outcome,
        "steps": record.episode_length,
        "sim_time": record.sim_time,
        "seed": record.seed,
    }
    fp.write(json.dumps(row) + "\n")


def _cell(value) -> str:
    return "" if value is None else format(float(value), ".17g")


def write_trajectory(fp, rows) -> None:
    """CSV rows (t, side, coordinates..., outcome), 17 significant digits."""
    fp.write(TRAJECTORY_HEADER + "\n")
    for row in rows:
        t, side, x, y, z, v, gamma, phi, mx, my, mz, outcome = row
        cells = [_cell(t), side] + [_cell(c) for c in (x, y, z, v, gamma, phi)] \
            + [_cell(c) for c in (mx, my, mz)] + [outcome]
        fp.write(",".join(cells) + "\n")
