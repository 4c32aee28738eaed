"""Full pipeline on a small synthetic world: generate, build, train, ablate.

Generates a multi-channel search log with known ground truth, builds the
query-item-week dataset, trains the ranker, and reproduces the four-way
comparison (weighted interleaving baseline, unified ranker, plus
engagement features, plus conversion-weighted labels) on the held-out
week. Takes about a minute; the full desk-scale benchmark lives in the
acceptance suite.

Run: python demos/03_train_and_ablate.py
"""

from channelrank import (
    AblationConfig,
    TrainParams,
    TruncationConfig,
    WorldConfig,
    ablation_run,
    build_dataset,
    filter_and_split,
    generate,
)

cfg = WorldConfig(
    num_queries=250, num_items=2500, universe_size=26, per_channel_n=15,
    sessions_mean=30.0, seed=42,
)
print(f"generating world: {cfg.num_queries} queries, {cfg.num_items} items, "
      f"{cfg.num_channels} channels, {cfg.num_weeks} weeks ...")
world = generate(cfg)
print(f"  {len(world.events)} events logged")

split = filter_and_split(world.events, cfg.num_weeks)
stats = split.stats
print(f"retention filter: kept {stats['retained_groups']}/{stats['total_groups']} "
      f"query-weeks ({stats['retention']:.0%})")
print(f"  by traffic tertile: head {stats['tertile_retention']['head']:.0%}, "
      f"torso {stats['tertile_retention']['torso']:.0%}, "
      f"tail {stats['tertile_retention']['tail']:.0%}")

catalog = world.ground_truth.catalog
dataset = build_dataset(
    world.events, world.channel_lists, catalog, world.channels,
    split.all_keys(), TruncationConfig.uniform(world.channels, cfg.per_channel_n),
)
print(f"dataset: {len(dataset)} instances, {len(dataset.schema)} feature columns")
print(f"  calibrated label weights: a=1, b={dataset.conversion_weights.b:.3f}, "
      f"c={dataset.conversion_weights.c:.3f}, d=0")

print("\nrunning the four-variant comparison (this trains three models) ...")
report = ablation_run(
    dataset, world.channel_lists, split,
    AblationConfig(
        train_params=TrainParams(
            num_trees=60, shrinkage=0.2, max_depth=4, min_examples_per_leaf=5, seed=7,
        ),
        wi_seeds=10,
    ),
)
print()
print(report.render_text())

print("\nreading the ladder:")
print(" - UR beats WI: learned fusion outranks probabilistic interleaving")
print(" - UR+EF beats UR: per-(query,item) engagement history adds signal")
print(" - UR+EF+CL lifts purchase-weighted quality the most:")
ef, cl = report.variant("UR+EF"), report.variant("UR+EF+CL")
print(f"   purchase-only ndcg@8: {ef.mean_purchase_ndcg:.4f} -> {cl.mean_purchase_ndcg:.4f}")
