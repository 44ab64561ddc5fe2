"""Shared generators for randomized tests, and scenario loading.

Everything takes an explicit numpy Generator so each test controls its
own seed; nothing here owns global state.
"""

import dataclasses
import functools
from pathlib import Path

import numpy as np

from uavcov.channel import LinkTable
from uavcov.config import load_config
from uavcov.gpm import GpmSpec, LatticeLaws


def load_scenario(directory, body):
    """The ScenarioConfig of INI text ``body``, written to
    ``directory/scenario.ini`` and loaded as the CLI loads it."""
    path = Path(directory) / "scenario.ini"
    path.write_text(body)
    return load_config(str(path))


@functools.cache
def default_models():
    """The GBS pattern, UAV antenna and channel of the shipped default
    scene, as load_config() builds them from config.DEFAULTS (the models
    are frozen, so one build serves every test)."""
    cfg = load_config()
    return cfg.build_gbs_pattern(), cfg.build_uav_antenna(), cfg.build_channel()


def link_table(rows):
    """LinkTable from (gbs_id, band, c_los, c_nlos, p_los) tuples, kept in
    the order given."""
    columns = list(zip(*rows)) or [()] * 5
    return LinkTable(*(np.array(col) for col in columns))


def link_block(*tables):
    """The block LinkTable whose row p is ``tables[p]``."""
    return LinkTable(*(np.stack([getattr(table, field.name) for table in tables])
                       for field in dataclasses.fields(LinkTable)))


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


def padded_spec(rows):
    """GpmSpec of (values, probs) rows, each row padded at its end with
    zero-mass entries at value 0 up to the widest row."""
    width = max(len(values) for values, _ in rows)
    return GpmSpec(
        [np.pad(np.asarray(values, dtype=float), (0, width - len(values))) for values, _ in rows],
        [np.pad(np.asarray(probs, dtype=float), (0, width - len(probs))) for _, probs in rows],
    )


def random_spec(rng, n_summands, max_support=3, value_scale=1.0):
    """Random real-valued spec; values uniform on [0, value_scale], probs
    drawn spread (no near-degenerate summands)."""
    rows = []
    for _ in range(n_summands):
        size = int(rng.integers(2, max_support + 1))
        values = np.sort(rng.uniform(0.0, value_scale, size=size))
        while np.any(np.diff(values) <= 1e-9 * value_scale):
            values = np.sort(rng.uniform(0.0, value_scale, size=size))
        probs = rng.uniform(0.2, 1.0, size=size)
        rows.append((values, probs / probs.sum()))
    return padded_spec(rows)


def random_integer_spec(rng, n_summands, max_value=5, max_support=4):
    """Spec supported on small non-negative integers (lattice-exact)."""
    rows = []
    for _ in range(n_summands):
        size = int(rng.integers(2, max_support + 1))
        values = rng.choice(max_value + 1, size=size, replace=False)
        values = np.sort(values).astype(float)
        probs = rng.uniform(0.1, 1.0, size=size)
        rows.append((values, probs / probs.sum()))
    return padded_spec(rows)


def one_law(offset, scale, pmf, displacement=0.0):
    """The ``LatticeLaws`` record of one law, its pmf on 0..len(pmf)-1."""
    return LatticeLaws([offset], [scale], [len(pmf) - 1], [pmf], [displacement])


def in_place_probes(laws):
    """Every lattice abscissa of the records of one ``laws``, its float
    neighbours, a point below every offset and +-inf."""
    on = np.concatenate([np.arange(law.pmf.size) / law.scale + law.offset for law in laws])
    return np.unique(np.concatenate([
        on, np.nextafter(on, -np.inf), np.nextafter(on, np.inf),
        [-np.inf, np.inf, min(float(law.offset[0]) for law in laws) - 1.0],
    ]))


def law_record(laws):
    """The ``LatticeLaws`` record of the records of one ``laws``, each
    pmf padded with zeros to the longest."""
    width = max(law.pmf.size for law in laws)
    return LatticeLaws(*(np.concatenate([getattr(law, name) for law in laws])
                         for name in ("offset", "scale", "top")),
                       [np.pad(law.pmf[0], (0, width - law.pmf.size)) for law in laws],
                       np.concatenate([law.displacement for law in laws]))


def assert_reads_stepped_cdfs(laws, probes):
    """The ``cdf`` of the record of ``laws`` read at every probe, both
    sides, equals each law's ``to_cdf`` stepped cdf bit for bit."""
    x = np.broadcast_to(probes, (len(laws), probes.size))
    for left in (False, True):
        want = np.array([getattr(law.to_cdf(), "eval_left" if left else "eval")(probes)
                         for law in laws])
        assert law_record(laws).cdf(x, left=left).tobytes() == want.tobytes()


def counted_mixture_builds(monkeypatch):
    """A list that grows by one entry, the number of laws, each time a
    ``LatticeLaws`` record builds the running sums its ``cdf`` reads."""
    built = []
    running = LatticeLaws._running.func
    counted = functools.cached_property(lambda laws: built.append(len(laws)) or running(laws))
    counted.__set_name__(LatticeLaws, "_running")
    monkeypatch.setattr(LatticeLaws, "_running", counted)
    return built
