"""Report bytes as a regression oracle: SHA-256 of every built-in report.

The digests were recorded from the per-pair implication sweep, before its
degree, action and filtration tables existed; any refactor of the checks
must keep every report byte-identical.
"""

import hashlib
from fractions import Fraction as F
from pathlib import Path

import pytest

from rootquilt import get_entry
from rootquilt.cli import main
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


EXTRA_CATALOG = str(Path(__file__).resolve().parent / "data" / "extra_catalog.json")

# SHA-256 of emit(run_suite(entry, radius=r)) for the test catalog's B2, G2,
# A3 and non-reduced BC1 pairs, recorded while the orbit closure still ran
# fixed-point rounds and a per-seed orbit walk.  All four pass with complete
# certificates at these radii.
EXTRA_DIGESTS = {
    ("spin5-b2", 3): "0aafb511a551a93689d18234bfbaa8fa13fcceecb3e001575dae389f963376d3",
    ("split-g2", 4): "6a176f3b0a076820f020f887f55b5a2570760433c21e45d95b11f7cf0cc0869d",
    ("su4-a3", 4): "e4320330994d4acea5ef2622c647061d42f09fde82bf8bf50ef43cf49007d2f5",
    ("cp3-bc1", 2): "1cb3ae732fea80cf0ecf15cd7315b9d820d62b0f83f7bfd29cc5e6de5274d016",
}


@pytest.mark.parametrize("name, radius", sorted(EXTRA_DIGESTS))
def test_extra_catalog_report_digests(name, radius):
    report = run_suite(get_entry(name, EXTRA_CATALOG), radius=F(radius))
    assert report.passed
    assert hashlib.sha256(emit(report)).hexdigest() == EXTRA_DIGESTS[name, radius]


F4_CATALOG = str(Path(__file__).resolve().parent.parent / "bench" / "data" / "f4.json")

# SHA-256 of emit(run_suite(fi-f4, radius=r)) for the rank-4 pair F4/Sp(3)Sp(1)
# (|W| = 1152), recorded with the per-generator action column and the
# quadratic implication sweep, before both sweeps were certified by
# linearity; radius 2 then took about a minute.
F4_DIGESTS = {
    1: "d5e2d43e67bf49578e8caa7598e57a9b69607829d07f0c66bb398abccff72421",
    2: "69036ad23f762844bf2fb6917c03b62d019cec420f4980481ba68e4c848922a8",
}


@pytest.mark.parametrize("radius", sorted(F4_DIGESTS))
def test_f4_report_digests(radius):
    report = run_suite(get_entry("fi-f4", F4_CATALOG), radius=F(radius))
    assert hashlib.sha256(emit(report)).hexdigest() == F4_DIGESTS[radius]


# SHA-256 of the `certify` and `filtration` report bytes (default format,
# tau and epsilon) for r = 0, 1, 2, 3, recorded while the certificates still
# applied Fraction matrices and located chambers point by point.
CLI_DIGESTS = {
    ("certify", "group-a1"): (
        "2564ad9d33ab64b9d7c0c6127a1add0da63097f7a75a326f3d70a33d56fa5dff",
        "021303bb70cadc841171b1cb6be81cb35bce9e5c5ff7e78a858a5f16a9854388",
        "88c36b4f8428d99d208906124286d2ec3dc5f3ccb199916c5ca476c81c2e76c5",
        "b657601a1d1029f749f29b6763a336c7f2e22780567b924ae8e65701b097ea23",
    ),
    ("certify", "aii-a1"): (
        "dcf8fcc392b6ddd7e7b8803677ea7b8bb20b70c842ea91c801ac12ebbf7cade6",
        "5cf438e61741eb9c654f20923ca835aa485167507a13f5964a8115e619310ead",
        "912cbbcef56ea0727a8128561eabc2e04eda39bc784376d0e60a5f37fa5486c9",
        "532031d39a2d3deea479a7302f817792036280aa48bc35d853f7dd9551f42b2e",
    ),
    ("certify", "sphere-a1"): (
        "9320248e2946b227b3b95a66a1c76550c534f49a9f7e21371238958ed6f07bd2",
        "72e38c87168c3c4d83634dc2b2429b7766fe3ba21b642208800ba3dd28372f9f",
        "3a09787fe1d68e182a05cdc85a650c69b637d6cae5542a42f0009350094eea80",
        "900e0d34ea5580c23f7990e0f09ff10d1a7b5004e15bcc77c85cf48e8193dee7",
    ),
    ("certify", "group-a2"): (
        "87c07bc5ff1e1989ac2397363cf2759541f9b40a175f7e290cad88fc227b39e0",
        "9d76439c6236dd851b0a5a14978e602c3a00dab28d68e6be292d11997be0432d",
        "da557d35f8205e440c46c2ca06fc3447d202b7678ff5f690e1f0af3621bcfbff",
        "8aeb4ed52c4bb42474f3b078fd1f2e3464e2675957afb0de137a6d27c399341e",
    ),
    ("certify", "ai-a2"): (
        "958dcd9c188e9fe65e72af4892a85ce15eea35d1ea58c70200a87c068e36b2f6",
        "d23538894cc2661c5b71b6e34ad04a75415ad9b918f22ca1b60e30fbd26c9f9b",
        "5a6a84b81fa00cf60a4e9d6032ff33ec05f84a7cafa3181ec36a3d6f31f4d7c4",
        "c90dba880dd36e5b0482887994c4db21a20209c78edd852ce6e2b34449e01320",
    ),
    ("certify", "eiv-a2"): (
        "cb4769cf1d145144c0e69b0d86119cc3d00ef8350f7fdf38c9a4be59653e95eb",
        "25a7a580cb256ce9f686d5634d547e130a5e640aa12990d90c64b7d588b9eee5",
        "9827ab8feb296c63dfc66717a9a14e26e1d4917e61942d5906b89c80640d2564",
        "112c30325232669142e7d36b95ca8bd110d37903014bd130928757409b0e1bc2",
    ),
    ("filtration", "group-a1"): (
        "f862737d5ede6f84aab984fc4c56bca8fe8d67f67ca37800eb65ff10e5937179",
        "9d677b480a70f338c49141054dac468db0303fd5ded1f1345bae3d90b2750885",
        "0b5ad8cef636280ecd97608e6fd9e816771923f3711299c5f085d5764f9f637e",
        "d997fe6bdbfaf26cd5226de350f22f9fc15bd0d6feef89478e744bd5133cec3e",
    ),
    ("filtration", "aii-a1"): (
        "0114aa46b5e25a1fec6114db55ac542f1933cd1a6b4b5158a60f2adb11b46a82",
        "21b1e37f2f3f3aeb100ae6807f27c2e7099f92095eb4de2b831b7c4e006ddc9c",
        "8c53eb6d07af87e8ddd26a575d6f99ea819d2a63042a24fb8ed133379178d2a6",
        "4b9c0817a52061cec1d2ec76786a17c71913c905c19d954bfae0c0ebefccf5c6",
    ),
    ("filtration", "sphere-a1"): (
        "f011a2404f6fd437296a7d412cbdc8e35622bdbc9bce47617748e25bdb5b4764",
        "7e2aa74efc0ea8975736cd1cb31c98a0581ef20fa46ce583f82810eac66ab471",
        "e810189cdc3eeaa8f25dc2199c30e080d22d5c167e026ee61a1743a9771f92db",
        "3238bf306c52de0fbf784d8633c0f29dea2c7d4a86604c6db023bf9d5100caea",
    ),
    ("filtration", "group-a2"): (
        "93099f2b84a4b0186b80b819713636cb6113543b3870a3a65cdf61420efa8ccb",
        "decd43a558e2fbd9eff3e0bd79a569424742522e5fe3b8421d71f46ea5057c4a",
        "19cb6abc61b3072ab376febb1fabb63904b520106ce450ba2ca3c05593bda6c6",
        "a2c21961aef3e966906222189533b3f911c20482f6c3d8917fd8aca20648aea1",
    ),
    ("filtration", "ai-a2"): (
        "82358a64158f569d69d99393c2fa355164f72b3f474ffe7340a75de4e85311ef",
        "7459a762f0fd0b94e67a48c8bfeeee81ce2d67e9a0c1c1163d998d9d841b0d5c",
        "2cc3e6fcfabb983a7220bfa34009f2099ff84385f15dd924ae08887bf0f2a7b2",
        "4f318c1d4907ffefb093511ef045f0e6944383301d568043d3c0f5133c862f63",
    ),
    ("filtration", "eiv-a2"): (
        "08b8ec7c3c4b0a45989bc4a0c056377a5f791f982bc7cd16d40fbd1aca803b36",
        "688ca0b7304519421fae86f1152545e429dd332bb2325047c3bb97da810881cc",
        "65220676b98b08d616cf04344f34ad135be9274f8f3748a3320430a2ccd5acd4",
        "30e7525f2574306b39c2878e39d2b823f64e990668c6204aa31e14f3b50f8548",
    ),
}


@pytest.mark.parametrize("command, name", sorted(CLI_DIGESTS))
def test_cli_report_digests(command, name, capsysbinary):
    got = []
    for r in range(4):
        assert main([command, "--pair", name, "--radius", str(r)]) == 0
        got.append(hashlib.sha256(capsysbinary.readouterr().out).hexdigest())
    assert tuple(got) == CLI_DIGESTS[command, name]


def test_in_process_verify_in_any_order_matches_the_digests(capsysbinary):
    """Commands run one after another in one process carry nothing into each other's bytes."""
    expected = {(name, r): d for name, ds in DIGESTS.items() for r, d in enumerate(ds)}
    expected.update(((name, 4), d) for name, d in DIGESTS_RADIUS_4.items())
    by_pair = sorted(expected)
    by_radius_down = sorted(expected, key=lambda key: (-key[1], key[0]))
    for order in (by_pair, by_radius_down):
        for name, r in order:
            assert main(["verify", "--pair", name, "--radius", str(r)]) == 0
            got = hashlib.sha256(capsysbinary.readouterr().out).hexdigest()
            assert got == expected[name, r], (name, r)
