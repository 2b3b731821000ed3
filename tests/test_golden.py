"""Golden sha256 digests of ``oscnorm compute`` and suite reports.

The compute digests pin the full JSON bytes (values, witnesses, key order)
of five functionals on four seeded grids.  They were recorded before the
cube families became array-native.  Three more pin the ``q = 2`` fits at
``k = 2, 3`` (packing ``v`` and the ``sv`` bracket).  Those three, ``sjn``
(whose upper bound starts from the root ``L^2`` fit) and
``sv-equivalence`` were re-recorded when the fits moved from prefix sums
of global monomials to local moments built level by level: every number
moved by at most 1.5e-13 relative, every witness stayed the same.  The
``k = 0`` and median digests (nine compute, seven suite and seven
oracle-scale pins) were re-recorded when a cube's error became its level
kernel's one-row call and the median deviations stopped cancelling: every
number moved by at most 9.7e-15 relative (rounding-level gap fields
aside), every witness, assertion outcome and row count stayed the same,
and ``jn-extrapolation`` now names the generator it draws from.  The
``1d-lognormal`` ``sjn`` and ``sv-equivalence`` digests were re-recorded
when the 1D ``L^1`` residual took the fit's constant into the cell values:
every number moved by at most 2.3e-16 relative (the ``worst_excess`` gap
aside), every witness and assertion outcome stayed the same.  The
``sv-equivalence`` digest was re-recorded when the ``L^1``, ``k >= 2`` fits
moved from the simplex polish to Newton: seven fields (one packing value,
its ``sv`` and ``lower`` copies in two rows, and ``worst_excess``) moved
by at most 3.7e-16 relative, every assertion outcome stayed the same.
Fourteen ``q = 2`` compute digests and ``sv-equivalence`` were
re-recorded when the ``L^2`` fits moved from the whole-grid moment table
to each cube's own cells, taken relative to the first cell and centred,
and the ``q = 2`` residual took the fit's constant into the values.  The
largest relative move per digest: ``sjn`` 2.7e-16 / 1.5e-16 / 1.9e-16
(``1d-lognormal`` / ``2d-lognormal`` / ``2d-uniform``; the
``reference_fit_error`` field alone), ``v-k2-q2`` 1.3e-16 / 1.9e-16 /
1.5e-16 / 3.8e-16, ``sv-k2-q2`` 2.2e-16 / 1.9e-16 / 1.5e-16 / 3.8e-16
(``1d-lognormal`` / ``1d-uniform`` / ``2d-lognormal`` / ``2d-uniform``),
``v-k3-q2`` 1.3e-16 / 3.8e-16 / 1.5e-16 (``1d-lognormal`` /
``1d-uniform`` / ``2d-lognormal``), and ``sv-equivalence`` 6.8e-15, in
the ``k = 3, q = 2`` rows of 4-cell root cubes, whose new values are the
closer to exact rational arithmetic.  The ``1d-uniform`` ``sjn`` and
``2d-uniform`` ``v-k3-q2`` digests held; every witness and assertion
outcome stayed the same.  The suite digests pin the reports of the benchmark's oracle-suite
configurations at small trial counts plus a small ``sv-equivalence`` run;
they were recorded before the suites moved onto the library's batched
kernels.  The oracle-scale digests pin the same
configurations at the benchmark's trial counts, and the table-suite pins
are also checked at several family-table block sizes.  The table digests
pin the arrays of ``family_tables`` for every oracle-scale tree and six
family classes; they
were recorded from the per-mask loop that built the tables before the
batched classifier.  The quadratic-corner digests pin every
``error_levels(f, 3, 1)`` entry and the root ``best_fit(f, root, 3, 1)``
coefficients and error of 2D grids at depths 1-4; they were recorded while
the vertex descent split only the cells where the residual may change
sign.  The ``embedding-chain`` and ``sobolev-chain`` suite and
oracle-scale pins and the ``sv-equivalence-1d`` pin were re-recorded when
their order-1 sparse maxima moved from family-table products to the
coverage DP, and the suites' packing weights to the library's
``scaled^p |Q|``: the largest relative moves were 2.5e-16
(``embedding-chain``, a ``jn`` row, from the packing weights), 2.1e-16
(``sobolev-chain``, an ``sjn_core`` row) and 2.0e-16 (``sv-equivalence``,
an ``sv`` row), and ``embedding-chain``'s ``batched-matches-library``
detail now names the DP-against-table gap it checks.  Every assertion
outcome, count and row count stayed the same; the ``fractional-sv``,
``riesz``, ``sparse-jn``, ``jn-extrapolation`` and depth-3
``sv-equivalence`` pins held.  The exact-mode ``sjn`` and ``sv``
compute digests and the witnesses on tied integer grids were recorded
while the coverage DP merged 2D children in pairwise stages and its
witness replayed them stage by stage.  When the ``L^1``, ``k >= 2`` fits of
1D two-cell cubes moved from the Newton polish to their closed form, no
digest moved: the errors of those cubes moved by at most 5.3e-16
relative, and with ``sqrt 2 - 1`` correctly rounded the
``sv-equivalence-1d`` pin held (with ``math.sqrt(2) - 1`` it moved).
None may move under refactors that keep the mathematics fixed.
"""

import hashlib
import json

import numpy as np
import pytest

from oscnorm import suites
from oscnorm.cli import main
from oscnorm.families import family_tables
from oscnorm.grid import CubeId, GridFunction
from oscnorm.local_poly import best_fit, error_levels
from oscnorm.norms import NormParams, sparse_sup_exhaustive
from oscnorm.suites import SuiteConfig, run_suite

GRIDS = {
    "1d-uniform": (1, 10, "uniform", 101),
    "1d-lognormal": (1, 10, "lognormal", 102),
    "2d-uniform": (2, 5, "uniform", 103),
    "2d-lognormal": (2, 5, "lognormal", 104),
}

OPS = {
    "sjn": ["--norm", "sjn", "--p", "2", "--mode", "bounds"],
    "jn": ["--norm", "jn", "--p", "2"],
    "bmo": ["--norm", "bmo"],
    "garo": ["--norm", "garo", "--p", "2", "--mode", "bounds"],
    "weaklp": ["--norm", "weaklp", "--p", "2"],
    "v-k2-q2": ["--norm", "v", "--k", "2", "--q", "2", "--p", "2"],
    "v-k3-q2": ["--norm", "v", "--k", "3", "--q", "2", "--p", "2"],
    "sv-k2-q2": ["--norm", "sv", "--k", "2", "--q", "2", "--p", "2",
                 "--mode", "bounds"],
    "sjn-exact": ["--norm", "sjn", "--p", "2", "--mode", "exact"],
    "sv-exact": ["--norm", "sv", "--k", "2", "--q", "2", "--p", "2",
                 "--mode", "exact"],
}

GOLDEN = {
    ('1d-lognormal', 'bmo'):
        'cc10773374e3926a4bedf9aa24cf68a039eab4eb917131f65093d564ba88842f',
    ('1d-lognormal', 'garo'):
        '42172c85d1b6c558ade4d754581ee22a20bf5f8d9c2a4b5be8ea5949ffcd130a',
    ('1d-lognormal', 'jn'):
        '9e316a19458be06a000ddc20260c5f2c9f8f7a787a109e50bb6c184c2826a596',
    ('1d-lognormal', 'sjn'):
        'ed990fdecbbcbcfde8072bf088e07a17778073513a221ddc819ebb78a877816e',
    ('1d-lognormal', 'weaklp'):
        '7304c62a7f4a10643dbf8c5d9b6a443ba228648a6d52770854a5dc351a6b6124',
    ('1d-uniform', 'bmo'):
        '09d3bb8e4a96e2857d236192439c78bdbd275e260f2d6d7a39f1ed3b33b5ee75',
    ('1d-uniform', 'garo'):
        '9296f9c3d12fb5d6ece59d4990d41925f3d7f2736f60a2ae03a4af3eae495497',
    ('1d-uniform', 'jn'):
        '4383cb7d3ffdfb04cdc2c24d97a5f6a39731f0db089445c9f8f1f84bb507f5c9',
    ('1d-uniform', 'sjn'):
        'b77174025ef9c1f1f239de60b1cabd1c798cc1785f66d2c11033caff11237738',
    ('1d-uniform', 'weaklp'):
        '9602016c39373853869d7bfca342e56f5e8548922e15945554a98daedf51abe5',
    ('2d-lognormal', 'bmo'):
        '19b8f3ff6bcdf3b8e43e28ff94b358096034b4676e817d884258edd21292d5a9',
    ('2d-lognormal', 'garo'):
        'ba376f5bc22dc9bda2ac3e16c0801ccaa1f70a71461d088cb33465a9696b8bce',
    ('2d-lognormal', 'jn'):
        '27cbfd26d612588c4414285f88e855932b49e72130792edc07f2afa8f3fa408e',
    ('2d-lognormal', 'sjn'):
        '7e16fa470ae6e79e5d042a7298de9685e9d44d59412622046b6df5fdb76f6221',
    ('2d-lognormal', 'weaklp'):
        '0bf9691974950f357df7a9fbd2c8974dcdc4cb060965e467181761efe0f3db19',
    ('2d-uniform', 'bmo'):
        '7d99605561c9cacf4e0d334238e17c5e2f47b9a13918e11d8cfd8838d75a01c8',
    ('2d-uniform', 'garo'):
        'ee2a58724d9cde6511b2c2accc7802a2226fbd6fc32f5b6b913ab607afbe807a',
    ('2d-uniform', 'jn'):
        'eefe33edd698aa192bd8d84b3964c2ba05fc5997c28dbb7e8fc7be6fd3be1623',
    ('2d-uniform', 'sjn'):
        'ed48218fac7d60dbe568c76ac7c5e0480171624b86dfa211dc1bb9655e6c586f',
    ('2d-uniform', 'weaklp'):
        '48ce565c9a3aadd9ac5aa773bae40628de02f15e12d3fbe13ede75ef43956e53',
    ('1d-lognormal', 'sv-k2-q2'):
        'c4da24b0ea356e71d6d1edbff78eb59d504f8ce3a798c5a688684ac4c8ffe320',
    ('1d-lognormal', 'v-k2-q2'):
        '0a16d2a17edf228f698c5dbbc96b49d4feff8f4a2818b7f88968e65f2a9d2e3e',
    ('1d-lognormal', 'v-k3-q2'):
        '18dc26846671ec5b60d128a421a05c364101696fcbad2f043fdfed427ef0bdf3',
    ('1d-uniform', 'sv-k2-q2'):
        'ee01375ca4d2d4110d38dfb13d015a8d95a340e98fb2121e08377811c6734e64',
    ('1d-uniform', 'v-k2-q2'):
        'b9971807f6bb2d69d0628e0311641bd80833d3024eab844c0247c513def9cceb',
    ('1d-uniform', 'v-k3-q2'):
        '2347f6e5136c5f442d806b69aae3c7d29a432dc2867bc176054c4dd81492dc16',
    ('2d-lognormal', 'sv-k2-q2'):
        'dc8b73a70b0dc38009b26e06252914fa62658f65f9f67b896655312b7fa88df1',
    ('2d-lognormal', 'v-k2-q2'):
        'd85f900a910403ddb869b2c3c474049a89bdf839e1b15f6b5c6423cbfa096549',
    ('2d-lognormal', 'v-k3-q2'):
        '663d0199a4e9c785047ed047d17bbf45a2b7b3755a75d643b997f90963f75d87',
    ('2d-uniform', 'sv-k2-q2'):
        '3d34a525acb76620950f53c5b0da253073f6c0fa04950707c994f2ea1ca61ad3',
    ('2d-uniform', 'v-k2-q2'):
        '16d358c92fcb23d8e6ee3843f77d1ec8ceba6718aacc1527604e63b234532412',
    ('2d-uniform', 'v-k3-q2'):
        'ac4bfdb93ef1a868b821880fc5935470ad43673b5dbbf9e0ec73bf7fba3426f8',
    ('1d-lognormal', 'sjn-exact'):
        '098fe81cdf1aa67bb0bd5e7cb50940c05f1e3bf9be1818bd5c8280e337b51caf',
    ('1d-lognormal', 'sv-exact'):
        '5ed4b94923cad231e5c26e1ec7d6f7ea6fa97030a2719f3f81c3370bfe7c829a',
    ('1d-uniform', 'sjn-exact'):
        '75f1ce772a2603fce20c4314acb97a193a1a9737e14545f31aae25a890c59c14',
    ('1d-uniform', 'sv-exact'):
        '9311559f09660e34b940725cfa890fd02bee257aca6a01c95f09872f48d9ba68',
    ('2d-lognormal', 'sjn-exact'):
        '43ac5e89fe708529789449da3e5a0933525e29fbe6dd2b6cb0a6f96e26e27834',
    ('2d-lognormal', 'sv-exact'):
        '4725d9a918c21cff77cc30f3d1e71184637f882c015fe545c5cc49546c53dda2',
    ('2d-uniform', 'sjn-exact'):
        'd8e3f87077e381fe85182e6aa002348674e30392e7142c9ebe314a916a621584',
    ('2d-uniform', 'sv-exact'):
        'deabbc18d0c8799ea95cb85b42fb80a25ac0e574aa1deb67b97a555d10009eea',
}


def grid_payload(dimension: int, depth: int, dist: str, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    n = 1 << (dimension * depth)
    values = (rng.uniform(0.0, 1.0, n) if dist == "uniform"
              else rng.lognormal(0.0, 1.5, n))
    return {"dimension": dimension, "depth": depth, "values": values.tolist()}


def _no_constant(name: str):
    raise ValueError(f"{name} is not valid JSON (RFC 8259)")


def compute_digest(grid: str, op: str, grids=GRIDS, ops=OPS) -> str:
    """Run ``compute`` in the current directory on a relative input path,
    so the report's ``input`` field is the same wherever it runs.  The
    report must parse as strict JSON: no NaN or Infinity."""
    with open("grid.json", "w", encoding="utf-8") as fh:
        json.dump(grid_payload(*grids[grid]), fh)
    rc = main(["compute", "--input", "grid.json", *ops[op],
               "--out", "out.json"])
    assert rc == 0
    with open("out.json", "rb") as fh:
        data = fh.read()
    json.loads(data, parse_constant=_no_constant)
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("op", sorted(OPS))
def test_compute_report_bytes_pinned(grid, op, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert compute_digest(grid, op) == GOLDEN[grid, op]


# The witnesses of the exact order-1 supremum on tied integer grids, where
# many families attain the value and the first best split picks one.
TIED_SHAPES = {"1d-L8": (1, 8), "2d-L4": (2, 4)}

TIED_GOLDEN = {
    "1d-L8":
        "96f9ce4dba76c144cd3d6cd0333cd4bb9f78c793d115e90a3759d1be543d1020",
    "2d-L4":
        "3192f3a32eded05f03724d7d9e5fee2cdc2958bb92f7e492831de6bfd7147e03",
}


def tied_witness_digest(dimension: int, depth: int) -> str:
    h = hashlib.sha256()
    for seed in range(4):
        values = np.random.default_rng(seed).integers(
            0, 3, 1 << (dimension * depth)).astype(float)
        f = GridFunction(dimension, depth, values)
        for params in (NormParams.sjn(1.0), NormParams.sjn(2.0),
                       NormParams.sv(2.0, 2, 2, 0.0)):
            rep = sparse_sup_exhaustive(f, params)
            h.update(rep.witness.index.astype(np.int64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("shape", sorted(TIED_SHAPES))
def test_tied_witness_indexes_pinned(shape):
    assert tied_witness_digest(*TIED_SHAPES[shape]) == TIED_GOLDEN[shape]


# The ``L^1``, ``k >= 2`` route on small grids, recorded while each of its
# cubes was fitted from its own median and ``L^2`` one-row calls, before
# the fits took their starts from their level's rows.
L1_GRIDS = {
    "1d-uniform-L4": (1, 4, "uniform", 105),
    "1d-lognormal-L4": (1, 4, "lognormal", 106),
    "2d-uniform-L2": (2, 2, "uniform", 107),
    "2d-lognormal-L2": (2, 2, "lognormal", 108),
}

L1_OPS = {
    "v-k2-q1": ["--norm", "v", "--k", "2", "--q", "1", "--p", "2"],
    "v-k3-q1": ["--norm", "v", "--k", "3", "--q", "1", "--p", "2"],
    "sv-k2-q1": ["--norm", "sv", "--k", "2", "--q", "1", "--p", "2",
                 "--mode", "bounds"],
}

L1_GOLDEN = {
    ('1d-lognormal-L4', 'sv-k2-q1'):
        'bf541e3836455b74ac62fad8a09968b7f3469a9bbf02b88d1664bc6c83a2feca',
    ('1d-lognormal-L4', 'v-k2-q1'):
        '7227c6eccd353b7d3644084bddec68542a544871edaa38be939a3518dae22ab2',
    ('1d-lognormal-L4', 'v-k3-q1'):
        '9be0ebe9c088d9b491e9ea6ed0489a3173b3901feff16a1cbd3c99e56aeb8003',
    ('1d-uniform-L4', 'sv-k2-q1'):
        '801e212126a875f32b42ab392c386e11e26ac173afd12ee978555f1c1e857fb2',
    ('1d-uniform-L4', 'v-k2-q1'):
        'ea4265ad70cc2252742c0d5311d2250ad1c8a4e90170c0c4917eacff4de88c4c',
    ('1d-uniform-L4', 'v-k3-q1'):
        '0ef51f212bd6d027b4db63c3c7da46a67040350e5dcc6d29a9a1b66c4fcbc57e',
    ('2d-lognormal-L2', 'sv-k2-q1'):
        'd3e9b7dec47351418afefa52988b3551c82d3d2843e3146bcc56b978dafd2651',
    ('2d-lognormal-L2', 'v-k2-q1'):
        '81e9ba290b9a9c34831fc9d3c1879f51f05b54eb7438719ba29180c6a87fdf72',
    ('2d-lognormal-L2', 'v-k3-q1'):
        '68be7d07aa43b5cbcc4638a4f08d04508d588cdf3f9f752b76b35a44cb5677fd',
    ('2d-uniform-L2', 'sv-k2-q1'):
        'b5cc20291c1272d76f219f2010fd9fc828c1b560a12b7d72e95dd4ef2e0cd7eb',
    ('2d-uniform-L2', 'v-k2-q1'):
        '42c456542b1b65504f8d458c43d68f2864ea9fd574fb41d96ed648ac71c37f4d',
    ('2d-uniform-L2', 'v-k3-q1'):
        '261601b1a4967eeed9d94c185289e35c4fc52357b982c06ec47788602168faeb',
}


@pytest.mark.parametrize("grid", sorted(L1_GRIDS))
@pytest.mark.parametrize("op", sorted(L1_OPS))
def test_l1_compute_report_bytes_pinned(grid, op, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert (compute_digest(grid, op, L1_GRIDS, L1_OPS)
            == L1_GOLDEN[grid, op])


SUITES = {
    "embedding-chain-1d": ("embedding-chain", 1, 3, 40),
    "fractional-sv-1d": ("fractional-sv", 1, 3, 40),
    "jn-extrapolation-1d": ("jn-extrapolation", 1, 14, 1),
    "riesz-1d": ("riesz", 1, 12, 4),
    "riesz-2d": ("riesz", 2, 6, 4),
    "sobolev-chain-1d": ("sobolev-chain", 1, 3, 40),
    "sparse-jn-1d": ("sparse-jn", 1, 3, 40),
    "sparse-jn-2d": ("sparse-jn", 2, 1, 40),
    "sv-equivalence-1d": ("sv-equivalence", 1, 2, 8),
}

SUITE_GOLDEN = {
    "embedding-chain-1d":
        "69909b435fa37e0db2eb636d968a5b00786deefd71b916364d5de6dcc7d5c7c3",
    "fractional-sv-1d":
        "83b23ca4ffadbe90e4d10e0198738090f52226fac1c507b9fa6159e448f21c8b",
    "jn-extrapolation-1d":
        "ea55bb2ec68e143081874de64b7e04bc62ca14e95a45216f308a5fa1ebd710ca",
    "riesz-1d":
        "e8123d7c4d9965d4d50688de8dd2c1a3f5fb7a00fdbc8283e5f6e7c374ef7aca",
    "riesz-2d":
        "4b4d8e0d16a2213fa582eeac3410974b54f2f7f2265afee721b6ecf37e8baba7",
    "sobolev-chain-1d":
        "da64512dc9019b8fb0ef0212d67a213b0c593253083c03195ded930dff833375",
    "sparse-jn-1d":
        "ab9cda4606f9b6bdb568fa57045f3a74b487df8b95fcafaf5b195265ed3620b4",
    "sparse-jn-2d":
        "fde4430b23a415cc94e12ff9019ad7660e704e04df68a16f263166071d4b9810",
    "sv-equivalence-1d":
        "0978b93510373fa36f6645fccb8f83f53d2f2028aa2856614931341863a7dbad",
}


def suite_digest(suite: str, dimension: int, depth: int, trials: int) -> str:
    report = run_suite(SuiteConfig(suite=suite, dimension=dimension,
                                   depth=depth, trials=trials, seed=3))
    return hashlib.sha256(report.to_json().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_report_bytes_pinned(name):
    assert suite_digest(*SUITES[name]) == SUITE_GOLDEN[name]


# The benchmark's oracle-suite configurations at their benchmark trial
# counts (a literal copy, so the pins do not follow edits to the benchmark).
# At 2,000 trials ``sparse-jn`` gauges its full 500-row L log L block,
# which the 40-trial pins above stay below.  Recorded from the per-grid
# L log L bisection and 4,000,000-float family-table blocks; the four
# ``sparse-jn`` pins were re-recorded when the bisection's stop became
# relative (its ``llogl_ratio`` fields moved by at most 6.2e-10 relative).
ORACLE_SCALE_GOLDEN = {
    ("sparse-jn", 1, 3, 2000):
        "fad220b137dd57579e94121d8b2269d7b90f27ef188f81296fc2bc225081a5d0",
    ("fractional-sv", 1, 3, 2000):
        "fc0bd1a58881f1567cdf61bfcca56a0905ef4c0a903aa7a8c6b63051f959d9c1",
    ("sobolev-chain", 1, 3, 2000):
        "12ac5e2725c41f34c899d916837cdcc1feb41ec0e09bddf6f7bb3f41ab1a7043",
    ("embedding-chain", 1, 3, 2000):
        "4c4ca5b04681e61dffa7bdd134ed7f59fd60e3f0dcf6a84de0efdf937f801c46",
    ("riesz", 1, 12, 50):
        "e17b74e3ecf9889b87b9ba21b552d62e8751a191af84f70f393eb469c48b59dd",
    ("riesz", 2, 6, 50):
        "39a3fb7748dd1201b29acb62466202cd4ea31796fd6a68f83f7482687d1db3ec",
    ("sparse-jn", 2, 1, 2000):
        "7a5483e783f2be5b2f2ff9deb8873a328cfbc37130e238d92bdbb4eba10a685b",
    ("jn-extrapolation", 1, 14, 1):
        "ea55bb2ec68e143081874de64b7e04bc62ca14e95a45216f308a5fa1ebd710ca",
    # the local-fits configuration: at depth 3 the k=2 fits see 8-cell
    # root cubes, where the depth-2 pin above sees at most 4 cells
    ("sv-equivalence", 1, 3, 8):
        "d46084a105bdf633ccab526db596d6c75942a24a6880a72c0f54a0d4c2cdb741",
}


@pytest.mark.parametrize("config", list(ORACLE_SCALE_GOLDEN), ids=str)
def test_oracle_scale_suite_report_bytes_pinned(config):
    assert suite_digest(*config) == ORACLE_SCALE_GOLDEN[config]


TABLE_SUITES = ("embedding-chain-1d", "fractional-sv-1d", "sobolev-chain-1d",
                "sparse-jn-1d", "sparse-jn-2d")


# One trial per block; 7 trials per 4,870-family block, so 40 trials end
# on a ragged block of 5; and the 4,000,000-float blocks the pins above
# were recorded with.
@pytest.mark.parametrize("budget", (1, 7 * 4870, 4_000_000))
@pytest.mark.parametrize("name", TABLE_SUITES)
def test_suite_bytes_do_not_depend_on_block_size(name, budget, monkeypatch):
    monkeypatch.setattr(suites, "_CHUNK_BUDGET", budget)
    assert suite_digest(*SUITES[name]) == SUITE_GOLDEN[name]


TABLE_GOLDEN = {
    (1, 1, "packing"):
        "8761075941fc9f0e504473051b9a4d4870598a0407a5a9a5dd354bd9cc3d05d0",
    (1, 1, 1.0):
        "627e11da1b49332d76968fa1aa5e671ba39dd86bc82287ac5f78f236f832a24c",
    (1, 1, 0.75):
        "8761075941fc9f0e504473051b9a4d4870598a0407a5a9a5dd354bd9cc3d05d0",
    (1, 1, 0.5):
        "8761075941fc9f0e504473051b9a4d4870598a0407a5a9a5dd354bd9cc3d05d0",
    (1, 1, 0.25):
        "8761075941fc9f0e504473051b9a4d4870598a0407a5a9a5dd354bd9cc3d05d0",
    (1, 2, "packing"):
        "aa3369ab47958d608b1407864a355af585cba6c6fd553664dab9db4815c8c37b",
    (1, 2, 1.0):
        "05bb13de8419c1fec870d8734b5cb5e195864b02ab7dae7c2f85735ff479d1fa",
    (1, 2, 0.75):
        "91bea7ed342a310beef205979da5247845d2bc4de79e08c26a6ffc26789ca59b",
    (1, 2, 0.5):
        "91bea7ed342a310beef205979da5247845d2bc4de79e08c26a6ffc26789ca59b",
    (1, 2, 0.25):
        "aa3369ab47958d608b1407864a355af585cba6c6fd553664dab9db4815c8c37b",
    (1, 3, "packing"):
        "7cc9c403336300e6c7bd90c2a93ac846d514c6c15284d246e8c4c11fa2645a10",
    (1, 3, 1.0):
        "d919fc1d6cda6d728ec30874d53d601207bfe4b20044c8737ad3fd9ff5bea348",
    (1, 3, 0.75):
        "6324560d64669044bf6e9e7400bc2f9d340e32cb456aa2bc5f6346add74cfa3e",
    (1, 3, 0.5):
        "4f7145ccd747dcbb6e720fe203dcd80dc4946e3ee986cc83f3963e5ca417544c",
    (1, 3, 0.25):
        "7cc9c403336300e6c7bd90c2a93ac846d514c6c15284d246e8c4c11fa2645a10",
    (2, 1, "packing"):
        "a2a5f6da4f11db71d7fb4e76c984b19808c0c725937452dd0b744906d166d03d",
    (2, 1, 1.0):
        "8ca37d19b15d7432d72168426f721b190402da0c94a6373db86f0e16355a19f0",
    (2, 1, 0.75):
        "9e313ce70091195350bb544cc1dc339049ab4283756a0adc323276ac5e5c5a02",
    (2, 1, 0.5):
        "9e313ce70091195350bb544cc1dc339049ab4283756a0adc323276ac5e5c5a02",
    (2, 1, 0.25):
        "a2a5f6da4f11db71d7fb4e76c984b19808c0c725937452dd0b744906d166d03d",
}


def table_digest(dimension: int, depth: int, order) -> str:
    """sha256 over dtype, shape and bytes of ``masks``, ``core_meas`` and
    ``cube_meas``, in that order."""
    tab = family_tables(dimension, depth, order)
    h = hashlib.sha256()
    for a in (tab.masks, tab.core_meas, tab.cube_meas):
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("key", sorted(TABLE_GOLDEN, key=str))
def test_family_table_bytes_pinned(key):
    assert table_digest(*key) == TABLE_GOLDEN[key]


# The 2D quadratic corner (``k = 3, q = 1``): every cube's error and the
# root fit's local coefficients and error, on two seeds per depth 1-3 and
# one at depth 4.  Near-best factors are left out: the descent's final
# dual on tied values may move by rounding.
QUAD_SHAPES = [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1), (4, 0)]

QUAD_GOLDEN = {
    "lognormal":
        "cd724445d5b37d74f189e86be8af269dcd9d5bc99b20de6a1be8f2fe9da8348d",
    "offset":
        "c87e2febfcdd82ad64f06f857cb29108acd71ccc4b024baa08a9291b0507cc27",
    "ties":
        "efb9389de179b9f43b50fd667aeb1227df532b4bf3c07950fc71a9ef4cbfd822",
    "tiny":
        "dcbd12e7aa04ba21c55ac6e1cae7b7035dfbfc7169ae88e410e1a932ebf22ad7",
    "uniform":
        "ef02c3f52d64fc74fe169db19ec76763a3b2507356fb501f44ac6c9ffa7b5f42",
}


def quad_grid(kind: str, depth: int, seed: int) -> GridFunction:
    rng = np.random.default_rng([depth, seed])
    size = 4 ** depth
    if kind == "uniform":
        values = rng.uniform(0.0, 1.0, size)
    elif kind == "lognormal":
        values = rng.lognormal(0.0, 1.5, size)
    elif kind == "offset":
        values = rng.uniform(0.0, 1.0, size) + 1e12
    elif kind == "ties":
        values = rng.integers(0, 3, size).astype(float)
    else:       # "tiny"
        values = rng.normal(0.0, 1.0, size) * 1e-300
    return GridFunction(2, depth, values)


@pytest.mark.parametrize("kind", sorted(QUAD_GOLDEN))
def test_quadratic_corner_bytes_pinned(kind):
    h = hashlib.sha256()
    for depth, seed in QUAD_SHAPES:
        f = quad_grid(kind, depth, seed)
        for errs in error_levels(f, 3, 1):
            h.update(errs.tobytes())
        fit = best_fit(f, CubeId(0, (0, 0)), 3, 1)
        h.update(fit.local_coeffs.tobytes())
        h.update(np.float64(fit.error).tobytes())
    assert h.hexdigest() == QUAD_GOLDEN[kind]
