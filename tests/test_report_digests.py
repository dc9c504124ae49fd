"""Report bytes as a regression oracle: SHA-256 of every built-in report.

The digests were recorded from the per-pair implication sweep, before its
degree, action and filtration tables existed; any refactor of the checks
must keep every report byte-identical.
"""

import hashlib
from fractions import Fraction as F

import pytest

from rootquilt import get_entry
from rootquilt.suite import emit, run_suite

# SHA-256 of emit(run_suite(entry, radius=r)) for r = 0, 1, 2, 3.  No
# built-in pair raises at these radii.
DIGESTS = {
    "group-a1": (
        "8124a862db68c48a60806c266c08ecdf4f450a0adedebc17b1c5ed0395374a64",
        "4b8f40a36f8574a1497ae5f22d0e5c8b2e8ed05d59b3cf5d85051400f28eb655",
        "4b6fbd899e4a6fb7a1714032fcbaec65d0072cc073d28b164c13ca14f0c2a3df",
        "62740224f750cac61d884f8c1fd0e9b5584554dba71c04558d297de200fadcef",
    ),
    "aii-a1": (
        "fa8979bd48ca5ae22d0e0542dc52d41a277542bb026684c0dc07b41051614b65",
        "86d26e90dce7daa1ca5c29ce7f55c0bd3995a3e13742cbf68e51bf457f6adc0b",
        "7441e60afc17fd913956f23ac99882d60730f11389c1e029cd85ec18beefe78e",
        "47212d54a8409284a3284688069798b636aa7e753caa3b25ac5285422ea03537",
    ),
    "sphere-a1": (
        "a9dfe701f969166e4dd4f4a5cd0b413e7fb63c3e76f02ee32c3c17b95d5c1a08",
        "92853c866edb3ec66ddf9db498e6df68ee5bdc35ab53fe7dfd8f9b644ecd52ed",
        "59e63c1a4efd33b073bfce1ba675bb8d1afc0935bbd3e6ecba7a4ef0433c114a",
        "580a9cc19becd67e6319adc2606ce47472eb4d587c5c0e4dc8fd5a5a973bf85d",
    ),
    "group-a2": (
        "be831e535ee9da0db3fc59191e2b33665e916e54f0b1647d76e54db7cbe812ec",
        "a5374c63cc3083aed629f37a9bfbd4002daf9350b99dc69bce3fafbc477f2e25",
        "fd8e822b738db0722d381d68506296e7ed8485aa4b310ec6d5fae983dd9c5f9c",
        "613b21ab257cff4f9ccadcd151735b418b4ebf40d2f904c02f6f26bee412a641",
    ),
    "ai-a2": (
        "7d1a70e9fbe80e14ffb2bc615006a9e3ffdceb2a077fb7da8beb7bc1d06e9e75",
        "fb314e8107e07f21b00aa3e0c82f6d71156e8efa696962ba52b7481ea3889ed6",
        "407ddaa32056e467b79b97604ae79f8e4fdccb09658ebfc4d5a3db8a815541c8",
        "6006adc6bf05b464019455cafb110a3099bf74d60d09384155661eb72b9c8ba0",
    ),
    "eiv-a2": (
        "3f0f6635207f675404cc8361524923e8322135abae48aa9bb661292b89afb81f",
        "8bc72addcdd973e8daccec3555f3988adfa9253ac5a7d1542022edd32e891228",
        "9d23d47ad855d9df74df7da5e0b90109454a536c85bbc627b5110405e5d6c4df",
        "106bc4bcdc943e44b91e6379bb9960b01481a4642f2714f22a6d301d16be264a",
    ),
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_report_digests(name):
    entry = get_entry(name)
    got = tuple(
        hashlib.sha256(emit(run_suite(entry, radius=F(r)))).hexdigest() for r in range(4)
    )
    assert got == DIGESTS[name]


# SHA-256 of emit(run_suite(entry, radius=4)), recorded from the per-datum
# Fraction sweeps, before the integer index tables existed.
DIGESTS_RADIUS_4 = {
    "group-a1": "e08bffe8be9682440b044adad2964b5d2b90d137ba11c7819dd1c89ae2613414",
    "aii-a1": "68f12a908bfa7581a0a33fd1ef185c069e7c74f0ee6b065843c7a3f025fdee8e",
    "sphere-a1": "a22235fc8194b2486f70e2940c59407c117b590bd1357b4b89c641bea86787ff",
    "group-a2": "8289c21382ae1199d753cc07be6ff2c04649c29ad3c9592e1b3ce264b4cbff20",
    "ai-a2": "e659141945b0c649e67899534de49f82696a44abd31be093c4b2adb7e7cf41ab",
    "eiv-a2": "6ebf9ecc8fe6bc32f54700fb3eb2139c76b2096d10db55b9e80be1c508fa6e34",
}


@pytest.mark.parametrize("name", sorted(DIGESTS_RADIUS_4))
def test_report_digests_radius_4(name):
    report = emit(run_suite(get_entry(name), radius=F(4)))
    assert hashlib.sha256(report).hexdigest() == DIGESTS_RADIUS_4[name]


# SHA-256 of emit(run_suite(entry, radius=r)) for r = 5, 6, recorded with
# Weyl elements as Fraction matrices and chambers found by a descent walk,
# before elements became root permutations.
DIGESTS_RADIUS_5_6 = {
    "group-a1": (
        "bcc08e0feaf207b05cf08145b5d25f9dfbc8fdbdddbd0b663a17c3ee1156b42e",
        "a3dad10f9ab5032c6c18b64138f62d3343e8be83a37e36c00ae16f73749ff06d",
    ),
    "aii-a1": (
        "6990de73a97ef50993b4ff32a32835013e95bce9449e88a5b84f64745fd2399a",
        "56e300ecd85ce69cfe331e2bf17d035ccbf78073f8a8c9117933edcbc0163757",
    ),
    "sphere-a1": (
        "fd07d20563a89191e4ed5b13961f83ec8ccb8a70d9dc6f063d109ad6e0be3a95",
        "2c85e3295f400bd9d81ff17c657e6312dc03cc711aa47b72a7deda749b4359da",
    ),
    "group-a2": (
        "a96e91eb178dc611c07ab7afa816e54da6cc442b877eae197dfdaef5daca54c6",
        "81157ba97ff7bdf8d46b680c27cf8bc9818647eb13e8dde806251a011a4875d5",
    ),
    "ai-a2": (
        "99a29182ccdf43f5cf75f8e243058fd1632ba5aded911089a29458dd004d0145",
        "1a321967a6acdbb00d8000be1db32b1b51b4bdf9bb405572aaac6ddf971de966",
    ),
    "eiv-a2": (
        "5d36ad62e2b14b1f5e86e6c76f037689862d972e09b7ea3227e70ed917eff58e",
        "849445ef012f2f0d56328ee2ea7c0067a4193a8b173c65861df025e46e91cacf",
    ),
}


@pytest.mark.parametrize("name", sorted(DIGESTS_RADIUS_5_6))
def test_report_digests_radius_5_6(name):
    entry = get_entry(name)
    got = tuple(
        hashlib.sha256(emit(run_suite(entry, radius=F(r)))).hexdigest() for r in (5, 6)
    )
    assert got == DIGESTS_RADIUS_5_6[name]


def test_pool_gives_serial_bytes(group_a2):
    # radius 3: 114 bad/ugly tasks, enough for the sweep to use the pool
    serial = emit(run_suite(group_a2, radius=F(3), jobs=1))
    pooled = emit(run_suite(group_a2, radius=F(3), jobs=2))
    assert serial == pooled
