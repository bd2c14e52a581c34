"""Command-line front end: train, eval, replay, and selfcheck.

train builds the run's LeagueConfig from the config file (or the defaults),
then --seed, --out and --no-mcts, then --smoke, and stamps the sha256 of
its INI text into every checkpoint; where the compiled kernel is
unavailable it says so on stderr, since the run is then several times
slower.  selfcheck runs the invariant suite of dogfight.selfcheck.

Exit codes: 0 on success, 1 on configuration or usage errors, 2 on
runtime errors (unreadable checkpoints, I/O failures, numeric blowups).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import environment
from .harness import (
    CheckpointError,
    ConfigError,
    config_hash,
    load_checkpoint,
    load_config,
    save_checkpoint,
    serialize_config,
    smoke_profile,
    write_match,
    write_metrics,
    write_trajectory,
)
from .selfplay import DRAW, LOSS, WIN, AgentCheckpoint, LeagueConfig, \
    play_match, train_loop


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = load_config(args.config) if args.config else LeagueConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.no_mcts:
        overrides["use_mcts"] = False
    try:
        cfg = replace(cfg, **overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if args.smoke:
        cfg = smoke_profile(cfg)
    cfg = replace(cfg, config_hash=config_hash(cfg))
    if environment._kernel is None:
        print(f"dogfight: compiled kernel unavailable "
              f"({environment._KERNEL_DETAIL}); the Python loop runs every "
              f"decision, with the same bytes, more slowly", file=sys.stderr)

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.ini").write_text(serialize_config(cfg), encoding="utf-8")

    # Line buffering keeps both logs valid prefixes if the run dies mid-way.
    with open(out / "metrics.jsonl", "w", encoding="utf-8", buffering=1) as mfp, \
         open(out / "matches.jsonl", "w", encoding="utf-8", buffering=1) as xfp:

        def on_metrics(row) -> None:
            write_metrics(mfp, row)
            tm = row.train
            print(f"iter {row.iteration:3d}/{cfg.iterations}"
                  f"  wins {row.wins:3d}  losses {row.losses:3d}"
                  f"  draws {row.draws:3d}"
                  f"  surrogate {tm.surrogate:+.4f}"
                  f"  value_loss {tm.value_loss:.4f}"
                  f"  wall {row.wall_clock:.1f} s", flush=True)

        def on_checkpoint(ckpt: AgentCheckpoint) -> None:
            save_checkpoint(out / f"checkpoint_{ckpt.iteration:04d}.ckpt", ckpt)

        train_loop(cfg, checkpoint_sink=on_checkpoint, metrics_sink=on_metrics,
                   match_sink=lambda rec: write_match(xfp, rec))
    print(f"trained {cfg.iterations} iterations into {out}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    if args.games < 1:
        raise ConfigError(f"games must be at least 1, got {args.games}")
    if args.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {args.seed}")
    side_a = load_checkpoint(args.a)
    side_b = load_checkpoint(args.b)
    rng = np.random.default_rng(args.seed)
    tally = {WIN: 0, LOSS: 0, DRAW: 0}
    for game in range(args.games):
        record = play_match(side_a, side_b, args.mcts_a, args.mcts_b,
                            int(rng.integers(0, 2 ** 63)), game_index=game)
        tally[record.outcome] += 1
        print(f"game {game}: {record.outcome} after {record.episode_length} "
              f"decisions ({record.sim_time:.1f} s simulated)", flush=True)
    print(f"a vs b: {tally[WIN]} wins, {tally[LOSS]} losses, "
          f"{tally[DRAW]} draws")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {args.seed}")
    side_a = load_checkpoint(args.ckpt_a)
    side_b = load_checkpoint(args.ckpt_b)
    rows: list = []
    record = play_match(side_a, side_b, False, False, args.seed,
                        recorder=rows.append)
    with open(args.traj, "w", encoding="utf-8", newline="") as fp:
        write_trajectory(fp, rows)
    print(f"{record.outcome} after {record.episode_length} decisions "
          f"({record.sim_time:.1f} s simulated); trajectory in {args.traj}")
    return 0


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    del args
    from .selfcheck import SELF_CHECKS  # only here: keeps `import dogfight.cli` lean
    failures = 0
    for name, check in SELF_CHECKS:
        try:
            detail = check()
        except Exception as exc:  # a broken invariant fails its line, not the suite
            print(f"FAIL {name}: {exc}")
            failures += 1
        else:
            print(f"ok   {name}: {detail}")
    if failures:
        print(f"selfcheck: {failures} of {len(SELF_CHECKS)} checks failed",
              file=sys.stderr)
        return 2
    print(f"selfcheck: all {len(SELF_CHECKS)} checks passed")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dogfight",
        description="Deterministic 1-v-1 air-combat self-play laboratory.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the self-play training loop")
    p_train.add_argument("--config", help="INI config file; defaults apply when omitted")
    p_train.add_argument("--seed", type=int, help="master seed override")
    p_train.add_argument("--out", help="output directory override")
    p_train.add_argument("--no-mcts", action="store_true",
                         help="ablation: sample the raw policy, skip search")
    p_train.add_argument("--smoke", action="store_true",
                         help="fast liveness profile: 10 iterations, batch 256, 4 opponents")
    p_train.set_defaults(func=_cmd_train)

    p_eval = sub.add_parser("eval", help="pit two checkpoints against each other")
    p_eval.add_argument("--a", required=True, help="checkpoint flying blue")
    p_eval.add_argument("--b", required=True, help="checkpoint flying red")
    p_eval.add_argument("--games", type=int, default=3)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--mcts-a", action="store_true", help="side a searches")
    p_eval.add_argument("--mcts-b", action="store_true", help="side b searches")
    p_eval.set_defaults(func=_cmd_eval)

    p_replay = sub.add_parser("replay", help="record one match as a trajectory CSV")
    p_replay.add_argument("--ckpt-a", required=True, help="checkpoint flying blue")
    p_replay.add_argument("--ckpt-b", required=True, help="checkpoint flying red")
    p_replay.add_argument("--seed", type=int, default=0)
    p_replay.add_argument("--traj", required=True, help="CSV output path")
    p_replay.set_defaults(func=_cmd_replay)

    p_check = sub.add_parser("selfcheck", help="run the build invariant suite")
    p_check.set_defaults(func=_cmd_selfcheck)
    return parser


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems and 0 after --help; usage
        # problems fold into the configuration-error code.
        return 0 if not exc.code else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (CheckpointError, OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


main = run_cli


if __name__ == "__main__":
    sys.exit(run_cli())
