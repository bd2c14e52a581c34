"""
Tree search over sampled continuous actions
===========================================

The policy proposes a handful of candidate actions by sampling its own
Gaussian head; a small PUCT tree search spends 20 simulations deciding
which candidate to play, using the critic at the leaves.  First inspect
one search call, then let a searching agent fly against the same policy
sampling raw actions.
"""

import numpy as np

from dogfight import SearchConfig, env_step, flatten, init_params, reset, \
    run_search
from dogfight.environment import BLUE
from dogfight.selfplay import AgentCheckpoint, play_match

LAYERS = (13, 256, 256, 4)
actor = init_params(3, LAYERS, with_log_std=True)
critic = init_params(4, LAYERS[:-1] + (1,))

# One search call at an engagement's opening state, as the flat engagement
# tuple that matches and search step through env_step.
state = flatten(reset(seed=0))
cfg = SearchConfig(num_actions=9, num_simulations=20, c_puct=1.25, max_depth=5)
res = run_search(state, BLUE, actor, critic, actor, env_step, cfg,
                 np.random.default_rng(7))
print("visit counts:", res.visit_counts.tolist(),
      " sum =", int(res.visit_counts.sum()))
print("priors sum to", float(res.priors.sum()))
print(f"root value {res.root_value:+.4f}, chose candidate {res.chosen_index}")

# The same seed gives the same search, visit for visit.
res2 = run_search(state, BLUE, actor, critic, actor, env_step, cfg,
                  np.random.default_rng(7))
print("deterministic rerun:", np.array_equal(res.visit_counts, res2.visit_counts))

# Search in the loop vs raw sampling, same underlying network both sides.
agent = AgentCheckpoint(iteration=0, actor=actor, critic=critic,
                        seed=3, config_hash="demo")
tally = {}
for seed in range(5):
    r = play_match(agent, agent, use_mcts_a=True, use_mcts_b=False, seed=seed)
    tally[r.outcome] = tally.get(r.outcome, 0) + 1
print("searching blue vs sampling red, 5 seeds:", dict(sorted(tally.items())))
