"""Golden sha256 digests of ``oscnorm compute`` and suite reports.

The compute digests pin the full JSON bytes (values, witnesses, key order)
of five functionals on four seeded grids.  They were recorded before the
cube families became array-native.  Three more pin the ``q = 2`` fits at
``k = 2, 3`` (packing ``v`` and the ``sv`` bracket); they were recorded from
the per-cube solves, before one batched solve per level replaced them.  The suite digests pin the reports of
the benchmark's oracle-suite configurations at small trial counts plus a
small ``sv-equivalence`` run; they were recorded before the suites moved
onto the library's batched kernels.  The table digests pin the arrays of
``family_tables`` for every oracle-scale tree and six family classes; they
were recorded from the per-mask loop that built the tables before the
batched classifier.  None may move under refactors that keep the
mathematics fixed.
"""

import hashlib
import json

import numpy as np
import pytest

from oscnorm.cli import main
from oscnorm.families import family_tables
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
}

GOLDEN = {
    ('1d-lognormal', 'bmo'):
        'cc10773374e3926a4bedf9aa24cf68a039eab4eb917131f65093d564ba88842f',
    ('1d-lognormal', 'garo'):
        '42172c85d1b6c558ade4d754581ee22a20bf5f8d9c2a4b5be8ea5949ffcd130a',
    ('1d-lognormal', 'jn'):
        '9e316a19458be06a000ddc20260c5f2c9f8f7a787a109e50bb6c184c2826a596',
    ('1d-lognormal', 'sjn'):
        'b46afe477e2202054c524c2a594733d0c8907a53fcaaa9451d6865d1311b5ef3',
    ('1d-lognormal', 'weaklp'):
        '7304c62a7f4a10643dbf8c5d9b6a443ba228648a6d52770854a5dc351a6b6124',
    ('1d-uniform', 'bmo'):
        '09d3bb8e4a96e2857d236192439c78bdbd275e260f2d6d7a39f1ed3b33b5ee75',
    ('1d-uniform', 'garo'):
        'eaa59d26511650dccef5eb53f64db1c9f0b1149ebb25e1c10d058a92a3b1ed21',
    ('1d-uniform', 'jn'):
        '1025c7370bce8b4a8f3885e4fbe2886c1f312b1a68e900eb76f3b6d9248b0d5c',
    ('1d-uniform', 'sjn'):
        'e214a19ffdd6a86af4cd7f75c9f79709df311044a4aeced6753fc37f87415c25',
    ('1d-uniform', 'weaklp'):
        '9602016c39373853869d7bfca342e56f5e8548922e15945554a98daedf51abe5',
    ('2d-lognormal', 'bmo'):
        '19b8f3ff6bcdf3b8e43e28ff94b358096034b4676e817d884258edd21292d5a9',
    ('2d-lognormal', 'garo'):
        '4978be2e68260cb48e7e16ab70ecaa95bbf18f4d72cd4ac391f807b867ad246c',
    ('2d-lognormal', 'jn'):
        '27cbfd26d612588c4414285f88e855932b49e72130792edc07f2afa8f3fa408e',
    ('2d-lognormal', 'sjn'):
        '1a80327a37ab5ba88692509a8e216501fc29bdac4de8164d13e075fdb47af241',
    ('2d-lognormal', 'weaklp'):
        '0bf9691974950f357df7a9fbd2c8974dcdc4cb060965e467181761efe0f3db19',
    ('2d-uniform', 'bmo'):
        '0021c13ce2d0d8705f8d586cf2bf6b680103ff9d3feec03e152f0faceddcc09a',
    ('2d-uniform', 'garo'):
        'ff174ea68afb261cbb529b6e1d87c741d5034034b6c6fed5caec8372f06a68cf',
    ('2d-uniform', 'jn'):
        'efdc6486a257578705996ace6f3a9150f150ea7220513ded1ae8ee21615783d4',
    ('2d-uniform', 'sjn'):
        'dc09b73cb19f28c29cb9cbbe7df9540bb1118377ebbacf76f3bdabcf7c6a3444',
    ('2d-uniform', 'weaklp'):
        '48ce565c9a3aadd9ac5aa773bae40628de02f15e12d3fbe13ede75ef43956e53',
    ('1d-lognormal', 'sv-k2-q2'):
        '04137f0dd891c5c17088566f27cc5ab1b9792d465edd65103b8cf7ea85cbf5ef',
    ('1d-lognormal', 'v-k2-q2'):
        '60de28fd5dd471840797148314350b969beeed8c8b060f567021d3595783ccac',
    ('1d-lognormal', 'v-k3-q2'):
        'e487a5017199f857aab3976dd0e20c050a35e9f941f898170082237a561cd1be',
    ('1d-uniform', 'sv-k2-q2'):
        '647bc9e96d4f37c458fbc1411353ee5c630035c5d6d68d065fbdb637c1b94153',
    ('1d-uniform', 'v-k2-q2'):
        '5a52eaa1a521ce5974532aed8ebbc56c140ba9d3d32850cbbc83e63991665e98',
    ('1d-uniform', 'v-k3-q2'):
        'c364e7c4884b02103a1381b44ec1430a6ca784f04464fc94ac8dcece64ba0ed0',
    ('2d-lognormal', 'sv-k2-q2'):
        '32394bd76d92a40d181c02fc96f32a66d865ef8ec819351fdfe52c683cf7582f',
    ('2d-lognormal', 'v-k2-q2'):
        'e714c4d2c855c85d92f5a8a9089dae2ebaa41a21913ee42641385df78d610983',
    ('2d-lognormal', 'v-k3-q2'):
        'a01a0b33611552952fdc099a079a575ad8f38e166906b1566b6b33a01056f571',
    ('2d-uniform', 'sv-k2-q2'):
        '419ce8cd115ec79c622786dc0667669a680361168182669819d39d0308c1162a',
    ('2d-uniform', 'v-k2-q2'):
        '267818f8646a147a41345691107f37158801cf3ff8a66ca1899d7c70814536b8',
    ('2d-uniform', 'v-k3-q2'):
        'cb37476bcdbec4760554fcc3af6a96425f7674f1533360975afc9e6ce803673b',
}


def grid_payload(dimension: int, depth: int, dist: str, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    n = 1 << (dimension * depth)
    values = (rng.uniform(0.0, 1.0, n) if dist == "uniform"
              else rng.lognormal(0.0, 1.5, n))
    return {"dimension": dimension, "depth": depth, "values": values.tolist()}


def compute_digest(grid: str, op: str) -> str:
    """Run ``compute`` in the current directory on a relative input path,
    so the report's ``input`` field is the same wherever it runs."""
    with open("grid.json", "w", encoding="utf-8") as fh:
        json.dump(grid_payload(*GRIDS[grid]), fh)
    rc = main(["compute", "--input", "grid.json", *OPS[op],
               "--out", "out.json"])
    assert rc == 0
    with open("out.json", "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("op", sorted(OPS))
def test_compute_report_bytes_pinned(grid, op, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert compute_digest(grid, op) == GOLDEN[grid, op]


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
        "3118a5d416aa50c075c43e08b9d0add6a579e3dff29306caf355ecac88f68d24",
    "fractional-sv-1d":
        "fc04e2c763f072c7554274bc2e8c39a47c783562f04b8955c1f34f0c3f76a693",
    "jn-extrapolation-1d":
        "6a8467baf3b97b5e19002b4099c001d995a9a51a6984520c5db404097b8f72be",
    "riesz-1d":
        "e8123d7c4d9965d4d50688de8dd2c1a3f5fb7a00fdbc8283e5f6e7c374ef7aca",
    "riesz-2d":
        "6d9697afc94cce9608fd09a9d6e1267fffa988edb88288e305f983007d7d43a2",
    "sobolev-chain-1d":
        "093b2a9f51b5a1af52d1cd12794139dd8e332373bb259b0b77237461216656e3",
    "sparse-jn-1d":
        "f90f7729f2a45c2bf1909a563240da5d94439733e6ef588cdfff097c50ec9ae1",
    "sparse-jn-2d":
        "e1049bf74a9980a179024d53ee15463dd0c87d2243fd1f1aa607374471288ac5",
    "sv-equivalence-1d":
        "f2f6b76e36fe83115a114f3b870dc7da5d657f6f3c08056871492fadc310fc38",
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_report_bytes_pinned(name):
    suite, dimension, depth, trials = SUITES[name]
    report = run_suite(SuiteConfig(suite=suite, dimension=dimension,
                                   depth=depth, trials=trials, seed=3))
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == SUITE_GOLDEN[name]


TABLE_GOLDEN = {
    (1, 1, "packing"):
        "8761075941fc9f0e504473051b9a4d4870598a0407a5a9a5dd354bd9cc3d05d0",
    (1, 1, "weak"):
        "627e11da1b49332d76968fa1aa5e671ba39dd86bc82287ac5f78f236f832a24c",
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
    (1, 2, "weak"):
        "05bb13de8419c1fec870d8734b5cb5e195864b02ab7dae7c2f85735ff479d1fa",
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
    (1, 3, "weak"):
        "d919fc1d6cda6d728ec30874d53d601207bfe4b20044c8737ad3fd9ff5bea348",
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
    (2, 1, "weak"):
        "8ca37d19b15d7432d72168426f721b190402da0c94a6373db86f0e16355a19f0",
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
