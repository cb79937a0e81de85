"""Learner comparison under stratified 10-fold cross-validation.

Produces the per-class precision table (one column per learner), selects
the best learner by churner precision, and ranks features by the
information gain of their best single split.
"""

from churnforge import (GeneratorConfig, LearnerSpec, compare_learners, extract_churn,
                        generate, rank_features, select_best, standard_windows,
                        undersample)

ds = generate(GeneratorConfig(seed=11, n_consumers=2500, n_smes=150,
                              churn_rate=0.12, signal_strength=0.8))
matrix = extract_churn(ds, standard_windows("churn", "train"))
balanced = undersample(matrix, seed=5)

# each learner at the pipeline's defaults; the forest's member draws use seed 1
specs = [LearnerSpec("stump"), LearnerSpec("cart"), LearnerSpec("adtree"),
         LearnerSpec("bayes"), LearnerSpec("forest", seed=1)]
report = compare_learners(balanced, specs, k=10, seed=3)
print(f"10-fold comparison on {balanced.n_rows} balanced rows:\n")
print(report.render_text())

best = select_best(report)
print(f"selected by churner precision (ties: accuracy, then name): {best}\n")

print("top 10 features by single-split information gain:")
for rank, (name, gain) in enumerate(rank_features(matrix, 10), start=1):
    print(f"  {rank:2d}. {name:32s} {gain:.4f}")
