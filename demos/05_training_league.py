"""
A miniature self-play training league
=====================================

Run the full training loop at toy scale: collect decisions against the
newest past self, take clipped-surrogate policy updates with outcome
value targets, snapshot the agent into the league pool, and score it
against sampled past selves.  Three iterations with small networks keep
this around a minute.  The master seed is a field of the LeagueConfig, the
same object `dogfight train` reads from its INI file, so the config alone
reproduces the run.
"""

from dogfight import LeagueConfig, SearchConfig, TrainConfig, train_loop

config = LeagueConfig(
    seed=11,
    iterations=3,
    train=TrainConfig(batch_size=256, epochs=2),
    search=SearchConfig(num_actions=9, num_simulations=8, max_depth=3),
    eval_opponents=2,
    eval_games=1,
    layer_sizes=(13, 64, 64, 4),
)

pool, metrics = train_loop(config)

for m in metrics:
    t = m.train
    print(f"iter {m.iteration}: {m.wins}W {m.losses}L {m.draws}D over "
          f"{m.games} games, surrogate {t.surrogate:+.5f}, "
          f"value loss {t.value_loss:.5f}, entropy {t.entropy:.3f}")

print(f"league pool holds {len(pool)} snapshots "
      f"(iterations {[c.iteration for c in pool]})")

# The pool seeds future runs: any snapshot can fly a match or be written
# out through the checkpoint serializer; see the train/eval/replay
# subcommands of the `dogfight` CLI for the file-based workflow.
