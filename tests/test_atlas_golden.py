"""Pinned atlas bytes: the sha256 of every atlas JSONL and summary CSV for
B/C/D at ranks 1-6 with the default oracle budget and at ranks 1-6, 10 and
12 with ``--oracle-budget 0``, and the rank-5 oracle skips per family.  The
atlas is the package's behavioural contract, so a refactor must reproduce
these files byte for byte; a change that alters them on purpose updates the
digests here and says why in CHANGES.md."""
import hashlib
import json

import pytest

from nilorbit.cli import main

# (JSONL sha256, summary CSV sha256) per family and rank.
DEFAULT_BUDGET = {
    "B1": ("8e065f8e37a368f602082a1153f148ea5356e8569931c99b5c1067977130c31b",
           "1de397a36c6ca01dc9e31a892f3c4cfc00300f92905d74a00dbde5e53be6d19e"),
    "B2": ("3d62f5f0c63faa58ebc063c38e6be2f17a3f60282b5cf68b73b545a1fb8dc1d7",
           "8b3fba5bf1b80809feb799262de7934ab5f93d35e779da4722d121d74affbb76"),
    "B3": ("533729b1b3442194bf29bbaecf26d02c8ddab05f38484b3e732e89b74a8b1680",
           "a7cb60cdd98d1fb85fc48be818f9d63a78107b5d7b3863eb85ba0cfda15cca4b"),
    "B4": ("7e76b425df9dbf6fc5f248da9a762ec27bb130a85b5a834f50c24997c6faa35f",
           "585964f6b4068c6f766189303a417ecc9cfbcd2a351fc947851dbfb4b056902c"),
    "B5": ("413f38b2eaeb85531658cc997293b3ecb1cddbbdff57707af27d65dfb846b7de",
           "2a06ecea940d3a90c2c6926712aaafe54d16468011d9af745be3d11fe967d0ba"),
    "B6": ("7d38d9e647b2c5732c3c906e01d208684fe249c4d45e74db5686370c27fb25fc",
           "3ab057ae3dc2354e90cc9da33b9cb5ee395927a9044662b44c9ba6499ff5fe0d"),
    "C1": ("1af219883d6ede3d86473c3feb96527c79c2764a4b05bcc4ae9a33bb6c4066c0",
           "a867776814eff702acb33da264c23a1eda33eb74e0a6c8dc542e66d231ff6913"),
    "C2": ("1e95d49f691733cf6fca53923014b1147763e16dfaed547b7c6c45aeb40d9994",
           "74c97d3fda8f1aa23f500e53ab86a1fd9a68ef0a0100f77c731c3197dc6aef97"),
    "C3": ("6025a832f4950b499a5c2c65234ac5499198f5cbf489fdf8f9ca8ed47ff33276",
           "18fdd1f9bbe4ada5d409d2f262f192d53165667c4488feb11dd98ff78f83b46a"),
    "C4": ("defe7ce029163077d8b91b718eb4aec25f3068043130c7ef5e3cce199ef016e4",
           "2065f2b6938c372a6462db45c73d96278c0860adef6c3af37626531e914e6641"),
    "C5": ("810314b2e27c20cd0b9213a122d000fe6dcbf86c306b0e5da9ecda9f5fe8f356",
           "a3f0aaeedcc17705d427cabeae5c6395b7804f6d43b68823729a116b24138b53"),
    "C6": ("7e88a94170837c72c0e8842ec4820d62f15423b81d1a0c319a7ff3b60ec88d27",
           "9126d3ebb6b9031a6ca8f2729656654bd38aef2fad1b1778a7d1b7c90c4b5de8"),
    "D1": ("58b025d01ed17368ae5b9ef49f05682c8a1400ad9e7be4fd9c6b6722257e31cd",
           "d4713c7b46c41e7aee6045b3bdb1b8f813e4954020af6f70534c963caf1faec2"),
    "D2": ("3166c238c78c872accabace2463f40ce2c63fd118ad8b0bc7741144afc7d2253",
           "8fc7d2f4eb96e86da137df0df77fe5a388d2c219def5ee242e46530769e89361"),
    "D3": ("fffe56e0cc89384f56fe4de9508331c5b95b058246e9da7bddfee6bcc7b8c989",
           "24e93486f47c3b7ae524d9ff451f2450b24af72ad91bd852c5166289211b514d"),
    "D4": ("426c60321b692c48506d1cc1649560f0d59c72f893eaf1e530cbcf57922741a6",
           "7fcb004f76d4fbde7ac02e92914554eac0f7aa5b41eb15344589bd294231d70e"),
    "D5": ("18d0ca3958aee3acceb514be71a7cc46ab7a4ac11e790b59bfa814894aba70a8",
           "c770f7bedd7db697ea6a646b53ddf46ee2f3ede9a6f78cf6992654f1a43f0639"),
    "D6": ("04bf2d9745374dbff5d81deae2eba35fd1b66e98f2936ef2e10c05b481cc789b",
           "bde663e5cf79e5b9d0cfaa8b60355e964732d06d0e70f43e6e0e0d4cfd843f31"),
}
BUDGET_0 = {
    "B1": ("b411486cac537214846cbcc6afaa5063d3f17cc798ada82c5267d90a34c876f9",
           "4450382a66956d7b26850f2c1398a71c2b3c4d8b053555f37bc24b890a8b20a0"),
    "B2": ("448d1ad1555df9e54cb95cef85fa95c97722abc096ed4ef29daec7d94f219e8e",
           "728db2ac93c87d0f8cff5bc8faaf639a9ced27a92e0f359ab9933f9f8739fec1"),
    "B3": ("f800d07b7bed3477eac4043c1cb625d7034798c4eea14d5d212041cec4bc34ae",
           "d103fdac031a5d3e050892e0a64e0a6e7ac6c48366f424b136e640d0cffe9958"),
    "B4": ("51d38f4bedabf6629f243494b3f8d70105413ffad493e0858b761667adc035db",
           "d22861b256f39c0235e445fb5b5427e62b37f83a07bdf3140cfb584b364540ee"),
    "B5": ("29c5d7e9f07ac14e9e5b59aff7039b00bf12ae20f518c2a93b59823882edfacd",
           "b561b98ebae88c6638b810218affcc3d0f9acc7001a9196372c7ceea92b6d46a"),
    "B6": ("df153eb86ccb51e698114a9af76dc2c187129700344f04e9f0c4093668e3b32e",
           "bd8c4ca5e9128c01f8eab7cdcfe32a23c899265f5ca680dd595a1e422c77d461"),
    "C1": ("ba412072c4acb9390c71d25daafdd9f3e06c14d7bf0671b91b9885499aeff5cc",
           "7576db99ff250efefcf0332edacf5b46cea61bfb61a4fef963a0f07696cdc128"),
    "C2": ("6b6955ffb0cb544a4b8643c03ab34c529fe4567b893b88cdf5c395871f5a07aa",
           "d136c26a8f8c79a066d14e262a78ea83b49dcc29e284dd87d9249c543c2a9010"),
    "C3": ("be6a7c7635b53f815c2233c97b2bb162f69fb3ebb19ab787b334de1a268a75c3",
           "b9450d8dc058f479c85d2a5405346d9275e72813ae2ebb4f8f09ee94b0350fb7"),
    "C4": ("8c8b672212175d9343a91cb5c8fdbc9bd587775135ffab0fdc89cd7f2ea4920a",
           "3ca4307eb348e4ff55b8dd16c1f8eeb7335a33844774a93bc669ae39768d0231"),
    "C5": ("c4021fa29d28bb6dc60042ca1e56611bac292ed2546b1b741c5ae725ef0d1775",
           "a7b4b86a0f2174af86e6eb3f9fd9a27463ed7a35715f6562511d6f571dec5e66"),
    "C6": ("b6447817ae0093afa6fcf093ce8cc7c18c9f2f5c412483ca74f2a72684bec548",
           "7aaa1710dafbbf420f00afb4c80867c8cdf1ba8daae01db4787a4232718af57b"),
    "D1": ("85fc33a44d877a0457e82717c873afa13e191a750ba744ff862e3b1169eca41d",
           "93c6b124caf00b58830680be57ae65f1a27d6ce8b780054172462c262b4bac3b"),
    "D2": ("46dcf62761da36d1985cd5a954610079d20ef7ef085734c25f0ad6c968458a8f",
           "c5def39ed0d54ef18287f1cc9cae77b99742fd911e805e2d9ac5de0adfc9a564"),
    "D3": ("b9482eecb4c2108c861032fb737ee876ee9bb999b1bb2b1720ef1527dace3b6d",
           "2e9c014e1f0e83f27e0321a509c1b0ffc93006b3552458b2b4d0945795f9a816"),
    "D4": ("d66969cedf9470e91559386951f5330a69619ec67d82aa6efc431e12283673dc",
           "b0bf46d94a740b5d7eaf67be7ca8ba3cd257aa674f5927ce29bd12cf5b38b64b"),
    "D5": ("ad65d2a894b83bc57352fe5ae5a5ea159006494e065ccdeef7d8a55e175b3d43",
           "0c1a5b0cbf777a4391504ad9ebe1bd2af5e1f2f1665c2cfe748422c39b6534ec"),
    "D6": ("9b3cda5a29abd48eafe19aacd976899af4d4f9042eae81c98b6faf1cce878837",
           "49672f7b7656af24cb07070f96855d564843a0ca218894c6596905a32fda18cd"),
    "B10": ("83500c7de35578d3ba3aa5708e7c059efa160f3238303c9681fdca5d154ad6a2",
            "99b17b9e4d319908af39abea955168f6f2c58c30d2e5057e87cd73a1d9eccef6"),
    "B12": ("acd19ffbcdad827591a31f8202d7a649a9be69f275bdd9e6d0b2accf1ef04bcd",
            "f07b0e6204ae8b843b6105e7774ba719658d10187d16bed183cfa217d28fc128"),
    "C10": ("71039077c23f8fe60e98905ba43e8eaf6621f1056b6dd11728e231fcf9aad79f",
            "f8929f94affb44f26da79a67b07a4aab3dba1fb2f2f2260a1192c0d49fa9b579"),
    "C12": ("561b160efb3170da39d1a0c13c5f77e639bf5ec9a2f6fb034a32065d388ecff8",
            "6d7667ccdbec7d00066a3e0565fc0d77a94ec7f2dbf53a601d19fda6d72c3ab9"),
    "D10": ("f3f21daade0f37623a2d00a363c8dcaef60dc4a7f13f866e5c2acc6cef6abe55",
            "a4378fde9435fe46b8ba620cca176bb85e3c5aeb72a9b07bdd3a7118dddd3301"),
    "D12": ("3cc97e9b8bf18598422a7362dc2ff25714e5160d88c78483be8a26b2dce95ab9",
            "815bee6aa41f959d2893085df4a098868d810a858468ea443a52ac4bf4cb6a63"),
}

CASES = [("default", key, []) for key in DEFAULT_BUDGET] + [
    ("budget0", key, ["--oracle-budget", "0"]) for key in BUDGET_0
]


@pytest.mark.parametrize("budget, key, extra", CASES, ids=[f"{b}-{k}" for b, k, _ in CASES])
def test_atlas_golden(capsys, tmp_path, monkeypatch, budget, key, extra):
    monkeypatch.delenv("NILORBIT_ORACLE_BUDGET", raising=False)
    family, rank = key[0], key[1:]
    code = main(["atlas", "--family", family, "--rank", rank, "--ceiling", "12",
                 "--out", str(tmp_path), *extra])
    capsys.readouterr()
    assert code == 0
    digests = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in (f"atlas-{key}.jsonl", f"atlas-{key}-summary.csv")
    )
    pinned = (DEFAULT_BUDGET if budget == "default" else BUDGET_0)[key]
    assert digests == pinned


@pytest.mark.parametrize("family, skipped", [("B", 2), ("C", 7), ("D", 2)])
def test_rank_five_oracle_skips(capsys, tmp_path, monkeypatch, family, skipped):
    """The F_p checks the default 5,000-node budget still skips at rank 5,
    per family, and no check fails: an oracle change that skips more shows
    here before it shows in the benchmark."""
    monkeypatch.delenv("NILORBIT_ORACLE_BUDGET", raising=False)
    code = main(["atlas", "--family", family, "--rank", "5", "--out", str(tmp_path), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (payload["oracle_skipped"], payload["failures"]) == (skipped, 0)
