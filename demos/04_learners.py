"""The classifier family behind the single learner contract.

Every algorithm trains off the same labeled matrix and answers
score_matrix for a whole matrix, and score_row/predict_row for one feature
dict; the row path is score_matrix on a one-row matrix, so both give the
same scores. The alternating decision tree is the interpretable one: print
it and read the rules directly.
"""

from churnforge import (ALGORITHMS, GeneratorConfig, LearnerSpec, extract_churn,
                        generate, predict_matrix, print_adtree, standard_windows,
                        train, train_adtree, undersample)

ds = generate(GeneratorConfig(seed=11, n_consumers=1500, n_smes=100,
                              churn_rate=0.12, signal_strength=0.8))
balanced = undersample(extract_churn(ds, standard_windows("churn", "train")), seed=5)
print(f"balanced training matrix: {balanced.n_rows} rows\n")

# a spec sets only hyperparameters its algorithm reads; the rest keep the
# training function's defaults
settings = {"adtree": {"n_boost_rounds": 8}, "bagging": {"n_trees": 10},
            "forest": {"n_trees": 10}, "adaboost": {"n_boost_rounds": 8}}
for algo in ALGORITHMS:
    model = train(balanced, LearnerSpec(algo, **settings.get(algo, {})))
    _, predicted = predict_matrix(model, balanced)
    acc = float((predicted == balanced.labels).mean())
    print(f"{algo:9s} training accuracy {acc:5.1%}")

print("\nan alternating decision tree, 6 boosting rounds:\n")
adt = train_adtree(balanced, n_boost_rounds=6)
print(print_adtree(adt))
print("score = sum of prediction values on every satisfied path;")
print("positive score = churner. A missing feature contributes nothing.")
row = balanced.row(0)
print(f"first row scores {adt.score_row(row):+.3f} -> class {adt.predict_row(row)}")
