"""Census-shaped stand-in for the UCI census-income training file.

This is synthetic data, not ``adult.data``: 32561 rows of the six numeric
columns the census pipeline reads, each drawn to look like the column it
stands for, with labels from a fixed logistic rule (about a quarter positive,
as in the census file). Accuracy on it is not comparable to the paper's
census results, and acceptance criterion 8 (which needs the real file) is
unaffected.
"""

from __future__ import annotations

import numpy as np

ROWS = 32561  # rows of adult.data

# P(education-num = 1..16), peaked at high-school (9), some-college (10) and
# bachelors (13) as in the census file.
_EDUCATION_WEIGHTS = np.array([1, 2, 3, 6, 5, 9, 12, 4, 322, 224, 42, 33, 164, 53, 18, 13], dtype=float)


def stand_in(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Unscaled (ROWS, 6) features in the census column order, and 0/1 labels.

    Columns: age, fnlwgt, education-num, capital-gain, capital-loss and
    hours-per-week. Age, education-num and hours-per-week are integers;
    capital gain and loss are mostly zero; fnlwgt is wide and continuous.
    """
    age = np.clip(np.round(17.0 + rng.gamma(2.2, 9.0, ROWS)), 17, 90)
    fnlwgt = rng.lognormal(12.0, 0.55, ROWS)
    education = 1.0 + rng.choice(16, ROWS, p=_EDUCATION_WEIGHTS / _EDUCATION_WEIGHTS.sum())
    gain = np.where(rng.random(ROWS) < 0.083, np.round(np.minimum(rng.lognormal(8.5, 1.0, ROWS), 99999.0)), 0.0)
    loss = np.where(rng.random(ROWS) < 0.047, np.round(np.clip(rng.normal(1900.0, 350.0, ROWS), 155.0, 4356.0)), 0.0)
    hours = np.clip(np.round(np.where(rng.random(ROWS) < 0.47, 40.0, rng.normal(40.0, 12.0, ROWS))), 1, 99)
    logit = -22.5 + 0.12 * age + 1.05 * education + 0.105 * hours + 6.0 * (gain > 5000.0) + 2.4 * (loss > 0.0)
    labels = (rng.random(ROWS) < 1.0 / (1.0 + np.exp(-logit))).astype(np.int64)
    return np.column_stack([age, fnlwgt, education, gain, loss, hours]), labels
