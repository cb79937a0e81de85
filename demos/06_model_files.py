"""Model files: the .adt text layout and the .cfm JSON container.

print_adtree writes an alternating tree as the indentation layout with
3-decimal prediction values. save_model writes every family, alternating
trees included, as JSON with exact floats under the "churnforge-model v1"
header, so reloaded models predict identically.
"""

import tempfile

import numpy as np

from churnforge import (GeneratorConfig, extract_churn, generate, load_model,
                        parse_adtree, print_adtree, save_model, standard_windows,
                        train_adtree, train_forest, undersample)

ds = generate(GeneratorConfig(seed=11, n_consumers=1500, n_smes=100, churn_rate=0.12))
balanced = undersample(extract_churn(ds, standard_windows("churn", "train")), seed=5)

adt = train_adtree(balanced, n_boost_rounds=4)
text = print_adtree(adt)
print("alternating-tree text layout:\n")
print(text)
reparsed = parse_adtree(text)
print(f"parse(print(model)) canonical: {print_adtree(reparsed) == text}\n")

with tempfile.TemporaryDirectory() as tmp:
    adt_path = f"{tmp}/churn_adtree.cfm"
    save_model(adt, adt_path)
    with open(adt_path, encoding="utf-8") as f:
        print(f"{adt_path} starts with: {f.readline().strip()!r}")
    print(f"ADTree reload is the trained model: {load_model(adt_path) == adt}")

    forest = train_forest(balanced, n_trees=8, seed=2)
    cfm_path = f"{tmp}/churn.cfm"
    save_model(forest, cfm_path)
    loaded = load_model(cfm_path)
    same = np.array_equal(loaded.score_matrix(balanced), forest.score_matrix(balanced))
    print(f"forest reload predicts identically: {same}")
