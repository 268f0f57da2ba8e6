"""Deterministic synthetic stand-in for the Wisconsin breast-cancer file.

The real 699-row file cannot be redistributed with this repository, so
integration tests run on a generated table with the same shape and
bookkeeping: 11 columns (id, 9 integer features on a 1..10 grid, 2/4 class),
699 rows split 458 benign / 241 malignant, and 16 rows carrying a missing
"?" in the bare-nuclei position (14 benign, 2 malignant). The two classes
form well-separated modes so clustering behaves qualitatively like the real
data. It is NOT the original dataset and tests never pretend otherwise.
"""

import numpy as np

N_BENIGN = 458
N_MALIGNANT = 241
N_ROWS = N_BENIGN + N_MALIGNANT
MISSING_BENIGN = 14
MISSING_MALIGNANT = 2
MISSING_COLUMN = 5  # feature index of the bare-nuclei slot (7th value in a full row)
DEFAULT_SEED = 20260809


def synthetic_wbc_csv(seed: int = DEFAULT_SEED) -> bytes:
    """WBC-shaped CSV bytes: no header, comma-separated, '?' for missing."""
    rng = np.random.default_rng(seed)

    benign = np.clip(np.rint(1.0 + rng.exponential(0.8, (N_BENIGN, 9))), 1, 10)
    malignant = np.clip(np.rint(rng.normal(6.8, 2.0, (N_MALIGNANT, 9))), 1, 10)

    features = np.vstack([benign, malignant]).astype(int)
    classes = np.array([2] * N_BENIGN + [4] * N_MALIGNANT)
    order = rng.permutation(N_ROWS)
    features, classes = features[order], classes[order]

    ids = 1_000_000 + rng.choice(9_000_000, size=N_ROWS, replace=False)

    benign_rows = np.flatnonzero(classes == 2)
    malignant_rows = np.flatnonzero(classes == 4)
    missing_rows = set(
        rng.choice(benign_rows, size=MISSING_BENIGN, replace=False).tolist()
        + rng.choice(malignant_rows, size=MISSING_MALIGNANT, replace=False).tolist()
    )

    lines = []
    for i in range(N_ROWS):
        cells = [str(int(ids[i]))]
        for j in range(9):
            if i in missing_rows and j == MISSING_COLUMN:
                cells.append("?")
            else:
                cells.append(str(int(features[i, j])))
        cells.append(str(int(classes[i])))
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode("ascii")
