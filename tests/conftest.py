"""Shared generators for randomized tests, and scenario loading.

Everything takes an explicit numpy Generator so each test controls its
own seed; nothing here owns global state.
"""

from pathlib import Path

import numpy as np

from uavcov.channel import LinkTable
from uavcov.config import load_config
from uavcov.gpm import DiscreteSummand, GpmSpec


def load_scenario(directory, body):
    """The ScenarioConfig of INI text ``body``, written to
    ``directory/scenario.ini`` and loaded as the CLI loads it."""
    path = Path(directory) / "scenario.ini"
    path.write_text(body)
    return load_config(str(path))


def link_table(rows):
    """LinkTable from (gbs_id, band, c_los, c_nlos, p_los) tuples, kept in
    the order given."""
    columns = list(zip(*rows)) or [()] * 5
    return LinkTable(*(np.array(col) for col in columns))


def random_link_table(rng, n_rows, n_bands=1, zero_row_prob=0.15):
    """Random but valid link table: log-spread gains, c_nlos below c_los,
    occasional zero-gain rows (out-of-mainlobe sites)."""
    rows = []
    for i in range(n_rows):
        band = int(rng.integers(0, n_bands))
        if rng.random() < zero_row_prob:
            rows.append((i, band, 0.0, 0.0, float(rng.random())))
            continue
        c_los = float(10.0 ** rng.uniform(-2.0, 1.0))
        c_nlos = c_los * float(rng.uniform(0.01, 0.8))
        p_los = float(rng.uniform(0.0, 1.0))
        rows.append((i, band, c_los, c_nlos, p_los))
    rows.sort(key=lambda r: (-r[2], r[0]))
    return link_table(rows)


def random_spec(rng, n_summands, max_support=3, value_scale=1.0):
    """Random real-valued spec; values uniform on [0, value_scale], probs
    drawn spread (no near-degenerate summands)."""
    summands = []
    for _ in range(n_summands):
        size = int(rng.integers(2, max_support + 1))
        values = np.sort(rng.uniform(0.0, value_scale, size=size))
        while np.any(np.diff(values) <= 1e-9 * value_scale):
            values = np.sort(rng.uniform(0.0, value_scale, size=size))
        probs = rng.uniform(0.2, 1.0, size=size)
        probs = probs / probs.sum()
        summands.append(DiscreteSummand(values, probs))
    return GpmSpec.from_summands(summands)


def random_integer_spec(rng, n_summands, max_value=5, max_support=4):
    """Spec supported on small non-negative integers (lattice-exact)."""
    summands = []
    for _ in range(n_summands):
        size = int(rng.integers(2, max_support + 1))
        values = rng.choice(max_value + 1, size=size, replace=False)
        values = np.sort(values).astype(float)
        probs = rng.uniform(0.1, 1.0, size=size)
        probs = probs / probs.sum()
        summands.append(DiscreteSummand(values, probs))
    return GpmSpec.from_summands(summands)
