"""Bytes that a refactor must keep: the to_text of label_tree on perfect
trees h = 1..13 and of label_core_periphery on make_core_periphery(n),
n = 2..40, and the output of the four default tables in both formats.
The sha256 digests were recorded at commit ebd7f0b."""

import hashlib

import pytest

from bitpath import label_core_periphery, label_tree, make_core_periphery, make_perfect_binary_tree
from bitpath.cli import main

LABEL_TREE = {
    1: "676f835dc27fff6af6cb6699ed6631ed53db20bf8e5e5cca66a9a7734ca56e97",
    2: "7f459ba1f2dc0aadbc81c3cc93777aa19856478e00397c12219a9ab10309c08f",
    3: "bf289f61a287205d3967c1f65beaead5f3cf878badc5615aa724a2537441ec82",
    4: "1e8f8da959f86299f4ef07c8dabd9215866c16d0c6f6fa228acded6b4b9eb0b7",
    5: "96a8c876ae59b33380d96e9025e3bc893829aafff569b35dabee2d0b595cbc5e",
    6: "62c0d6b8b997399897486558f2d7fc44e777bbea52d8eddf3fe0054e6464f2b5",
    7: "0bbebc986351f207a18871ea9d04f65a1d44d30d199ec136a0bd137dba815e5d",
    8: "58b237f9d41c9570c27aab2c3ec7788b823a329e41081cc00a961f4847c7ee22",
    9: "4b32d1591f50f274dd72019ba87894e00f1687f378fc22157a7ee47672dbc91d",
    10: "a7cbf0fb9f7a7585d0d4a96dc71107bfd849e0fe2e0fc922d9df572ad3dc692d",
    11: "138df43a41fd830d5014125759248cfe497cec1a9855a6d5708797a2028f3006",
    12: "b162455ccd74d1840319336ccb9e2792d4514e02612e44575506f25d9e67010c",
    13: "8f27c2cb107f3f0c98113f2b63541586db9d1c92fd9fafb308370eef55994c39",
}
LABEL_CORE_PERIPHERY = {
    2: "4b336543787f9a6ac12c513c3388894a13f4286704708fe32b594ba38d6d9ede",
    3: "5563747aca2372eac4a0f1ec3ab90b860e97b15c4e88e90d0f8a846189b520d3",
    4: "30020c7506aff5200153193fadea2a6ebc8e775ed7de1eda4048f034f17176c5",
    5: "df90537625c26aa3169fa8edcd7a637d88f76c164a94d5be7759bd309b33ae8d",
    6: "1469cda7e577d545ca9ad15bc39797312bc306110113af20fd05b71722fa97f0",
    7: "b0aa5db4cb5d88a8b71f683cd5461ddfb08385769a46165158853dfadff508ae",
    8: "1f146b4223b0e5c127f1604dcd7bf53854ca6c9c7a3ba61e2067c37f526d81e7",
    9: "24c6b908cfc8823363b3754320350788cea6821a2212beced5fb1432a7a1d6a6",
    10: "96cdf7d99876c65d7c6795da74cf1f25a102406ef6afc75f96e6f0b01d43b36f",
    11: "da05a39eaf1b496a667aafc343e443a602ffe8df48b54486c22898c28a4fdd91",
    12: "729f63f56c75f5ffe28f0a31123ca996e96446827369280d5f6464c4a28e1b27",
    13: "7e601a9a9a794ffba19c370316820e80fc69cf051f6888f64f7873cb9ebe9be9",
    14: "f212f9b39e86bf3c8d075911b778c5d5904b0c5bf428874437198947c01b7747",
    15: "3f5f61c413162eb653177adcf66f1562cdb8fbad44c350a2a818833d8899fe3f",
    16: "2d0bf9ba495b0bda14bdeb7ede58b601c826927b42a7e4d92066f40163dadd2d",
    17: "911f1d758607ee0def65f909f4ddaf3257c0fe0f1725d06383cdeffab2e7b649",
    18: "edf94ba0f06af7b6e3f02eedd46ffab705ed8a5d1f840e3df82fddb9041240af",
    19: "192193945be7fcbf57212cd723f9e749db4bf6701b435d0da0ec511a852ff3af",
    20: "cb3e5cb27e20be3b9393fb3e0c313b0f24eb1b047d66cecfa1c2aef8a3521f14",
    21: "8618a07d103e326f8a338d060808c89beeb210c98fb737be8e2190dfeb8f9b6e",
    22: "cc31cf2e4f6e3850fae474ed7729e0710cab82ad59d0b48f010f62ffe0f89379",
    23: "37648b2bc68f47cea1ddc1511a1bb2d5b29e862ce0fd43c32652f4aba02df984",
    24: "492a9b497a2f06afb5f58dad55d7eb4199caaaa7e12fab12e6add4641665818b",
    25: "8ba0e349ca2270d055e60ad5480b4bcc96d5b7e635e83d5de9b850f56c424c3d",
    26: "6adb20528d0734432d6464ef18d6b24b846aedb8646853896538f36c01004ac7",
    27: "d3460f585733f0957b589fc35360e10dce4196004768c2fb0aea586ccb213016",
    28: "b56ffbdc42d5cb80027a587d5b3bc2840ab65fe2b1add9ca61d33da3e41f8599",
    29: "63f2dfff4ebcf4e88686909a94fdfbf713204a7018e48cd3e53d19834010e75e",
    30: "148476b2faa9e37dce219da2ab2ff5d41b6d5041b05a32c0a1ad4d3f7a7a81d6",
    31: "4673e2681af856c2216cbb44b58aadcc86516d48fc0f21c1cb94d701a5ff4942",
    32: "91d5bb32dad632520a1fd8c425a5c796600236fbd4214832c5afba4aee3fad38",
    33: "24dc3912aef6dd6935706b8bdcd95e5502fd07698e98bb9b1bc69b2e99d20e9b",
    34: "34a401c3cd3b7831b59fcded2769471931d2fc3998c2b42c83f4099f27a7e97b",
    35: "086110b0e8ab908c3eddbd6298907345b0da02c7bf76854011c50d37b8eabcd7",
    36: "683b45468ae716c8b3bda066c5d77a2783fb7d6330c2f672981519620a17d2a5",
    37: "3794545ec6831220214101e65214d6a0200c9491f79855fff1aa18be6ece86e8",
    38: "91e4ba9dce822accf1f4eae002503a96764e15e70ac34f09d2e2fe17a887deac",
    39: "79215c70b73d5ec213e4a4566338661d89bbe5b201a3a0fcb3a3e0b82f3a041a",
    40: "c9459ba94616b93ecea531f55f23c5ba9c7eebd3536a2ec6bf0f84d415571e9e",
}
TABLES = {
    ("star-table", "markdown"): "a917295b8161c03a525f22edfc696eed17aa469469775752a32572424cc73874",
    ("star-table", "csv"): "3276d888dcc696146055dcc8ec41d560bb0ff6bdcffe02be963ceef05893984f",
    ("core-periphery-table", "markdown"): "04671b594bb05c114c16e60be828545a7dc4a05491b229366b9b685f90eb9864",
    ("core-periphery-table", "csv"): "a5868527192ebdefb35deecfd506ff69d6868abe0594ce84729e3b9b0ddb1843",
    ("binary-tree-table", "markdown"): "5875cdc81b952fa0cc55c95c4e3a18f132816a7c0dd98dc7263dc600412f55e4",
    ("binary-tree-table", "csv"): "a37c3762b0b879a799f117e78ca2f40d5588abc160c6f495de707a574fbee630",
    ("bloom-table", "markdown"): "009caa40e1eb260b75d7c9e3f8a6febe03ad6e2b0a5fabc2d6206818f492069a",
    ("bloom-table", "csv"): "c6400746ce92d797297707028ec51e0cfee3f996d3f4a02eb8f9459fc9bbcdba",
}
# binary-tree-table's note on stderr, the same in both formats
BINARY_TREE_NOTE = "6b944f3fa725188fc2afe2c19a2bcde2b2d3827d88f135b0aa0d769cddec824f"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("h", sorted(LABEL_TREE))
def test_label_tree_text(h):
    assert digest(label_tree(make_perfect_binary_tree(h), 0).to_text()) == LABEL_TREE[h]


@pytest.mark.parametrize("n", sorted(LABEL_CORE_PERIPHERY))
def test_label_core_periphery_text(n):
    assert digest(label_core_periphery(*make_core_periphery(n)).to_text()) == LABEL_CORE_PERIPHERY[n]


@pytest.mark.parametrize("table, fmt", sorted(TABLES))
def test_default_table(capsys, table, fmt):
    assert main([table, "--format", fmt]) == 0
    out, err = capsys.readouterr()
    assert digest(out) == TABLES[table, fmt]
    assert digest(err) == (BINARY_TREE_NOTE if table == "binary-tree-table" else digest(""))
