"""Pinned atlas bytes: the sha256 of every atlas JSONL and summary CSV for
B/C/D at ranks 1-8 with the default oracle budget and at ranks 1-6, 10 and
12 with ``--oracle-budget 0``, and the oracle skips per family at ranks 5,
7 and 8 (ranks 7 and 8 read from the runs that their digests come from).
The atlas is the package's behavioural contract, so a refactor must
reproduce these files byte for byte; a change that alters them on purpose
updates the digests here and says why in CHANGES.md."""
import hashlib
import json

import pytest

from nilorbit.cli import main

# (JSONL sha256, summary CSV sha256) per family and rank.
DEFAULT_BUDGET = {
    "B1": ("8e065f8e37a368f602082a1153f148ea5356e8569931c99b5c1067977130c31b",
           "1de397a36c6ca01dc9e31a892f3c4cfc00300f92905d74a00dbde5e53be6d19e"),
    "B2": ("b9d5794d711fc6f267a9241cd2841308b3fb660aa4a959e2e355a64e32afa22e",
           "8b3fba5bf1b80809feb799262de7934ab5f93d35e779da4722d121d74affbb76"),
    "B3": ("52315a71ef396a33ec944a129978c3a9274306f5e66859ff1cabd7780813c18d",
           "a7cb60cdd98d1fb85fc48be818f9d63a78107b5d7b3863eb85ba0cfda15cca4b"),
    "B4": ("6296003cd6694a231df3ed47ac4027c227460389f2d593d2ccdf392ca22b6f45",
           "585964f6b4068c6f766189303a417ecc9cfbcd2a351fc947851dbfb4b056902c"),
    "B5": ("8b9162ac4245c4116770335c8adb68bfb2f3c243acf61e7ce0ccf86f0184cb6d",
           "09c29ce0d1f38eecc60c57a47f065fde15d2e0eac1ab056418e9e7c0fab77ad5"),
    "B6": ("e6c2b62d897e3a4085b5f735dd287834c5a6b594bf6b82f703ba7757d84c6abb",
           "caa7a19a5437b416d2adec111712be5f8752edf55e5849f4e57b147dc04b29fd"),
    "B7": ("e0043a44635656cc1ccb044078d6b1f2e70e658c0e3447ce8d32a3d5d2258953",
           "034e18709173d1b4f18859a9b9807ff550553946745662e7e5ba8bc73753f5da"),
    "B8": ("44a3069994983e859ddd42e0c3ea1595cbc7f6103abc4abe017a8a9f479951d7",
           "bf889ba43e15b9a9df2efd5ae09f9cd4c74dedf3cc0a4cab9e2e0564b6b434ec"),
    "C1": ("1af219883d6ede3d86473c3feb96527c79c2764a4b05bcc4ae9a33bb6c4066c0",
           "a867776814eff702acb33da264c23a1eda33eb74e0a6c8dc542e66d231ff6913"),
    "C2": ("1e422b1dba12ea827f8dd40159164e36a754ac9bf3ae0449ebf7945017823bd0",
           "74c97d3fda8f1aa23f500e53ab86a1fd9a68ef0a0100f77c731c3197dc6aef97"),
    "C3": ("a288098435fe1b35ed2a2a1c04172cac6e97da2a9f564c47e812672f8c05ccac",
           "18fdd1f9bbe4ada5d409d2f262f192d53165667c4488feb11dd98ff78f83b46a"),
    "C4": ("fbd1c5c235e3f63e69174aed79c8b42795056f5409e45983f2670777d295d90a",
           "2065f2b6938c372a6462db45c73d96278c0860adef6c3af37626531e914e6641"),
    "C5": ("c53b0467bb3160d2576204ca5785f1a9644ae4209a058181aaf131d02433d4ea",
           "ead2ef34333a66d8825efd18a63b6c088a1726a52613411cb2c044130d65b9b6"),
    "C6": ("c24fd42d8036008af105a8b6a90d5b9b067d3b853e6f3ce03672e79d2776cbf9",
           "b3a6aee080ecea5a686f9d13193e180aca4533a86c1de41966aac9cbb2455c15"),
    "C7": ("a14c31ac15a28cd51cb7397e95587598a5e754e6da5078e38f99b8cd072f306f",
           "0069762cd97e31470929b9cffd25d0e22fd6a602dfdedee496ebac1c3f7f8ace"),
    "C8": ("987da59806ac1e4fec60a79574df67ef17d8dff5e89df5068bbeae15f7ef566d",
           "9f1272eac3432902de8dde719495e4337b4d087e271a3d6e547b79fcd5d0fbf8"),
    "D1": ("e314a53011ccc3f5c2428b76838eb9e8a6bfcd6ea21370beb54a800f0cbf8617",
           "d4713c7b46c41e7aee6045b3bdb1b8f813e4954020af6f70534c963caf1faec2"),
    "D2": ("f61ab7a8a25e4d71c37bb2a29e485a6e5203c399980e0b80ed4edf8009c72464",
           "8fc7d2f4eb96e86da137df0df77fe5a388d2c219def5ee242e46530769e89361"),
    "D3": ("3786731eff121e764a9fa691493cf4e41d7a41a586516d23a1b85beb5d15430e",
           "24e93486f47c3b7ae524d9ff451f2450b24af72ad91bd852c5166289211b514d"),
    "D4": ("cafe389808ec9c8d7369a98a4811f8c0b1fcefacf62760f55becb640a91bc6ce",
           "7fcb004f76d4fbde7ac02e92914554eac0f7aa5b41eb15344589bd294231d70e"),
    "D5": ("634ee84181babb50f1210df9ba35fbdcd691c9d679a3bb4a6251f197f8ad21c4",
           "c65c102cbc6ed03c723457aa10d1f6533d3356f66ae2d0c0b91ad950d4c6ffa5"),
    "D6": ("e16352ee8451c5e4f982d37ba3163cb4b0b2ddb92e2f444b4d8097e9681677a0",
           "814a41d6d25883d28e50c7f25e5895e1d9eaab3b129ff570fec764c933630068"),
    "D7": ("b5d1ac03eba30dcdc50877634751450cfabde20d55392bf895dbbd2d883e45cf",
           "9291a42144822948bc5d4cb5530b47edfe84147d0766680b0053a865c5ebe29c"),
    "D8": ("a08b665f92d43d4b490529658ead936a1adbeb2c8cc9b12059c4fa30093c7a33",
           "08da7ca66c5830af98c227af8d493fb1bbc8685904cf02c55cc9eab71a4032d4"),
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

# Checks the default 5,000-node budget skips at ranks 7 and 8, per family.
SKIPPED = {"B7": 0, "C7": 0, "D7": 0, "B8": 0, "C8": 0, "D8": 0}

CASES = [("default", key, []) for key in DEFAULT_BUDGET] + [
    ("budget0", key, ["--oracle-budget", "0"]) for key in BUDGET_0
]


@pytest.mark.parametrize("budget, key, extra", CASES, ids=[f"{b}-{k}" for b, k, _ in CASES])
def test_atlas_golden(capsys, tmp_path, budget, key, extra):
    family, rank = key[0], key[1:]
    code = main(["atlas", "--family", family, "--rank", rank, "--ceiling", "12",
                 "--out", str(tmp_path), "--json", *extra])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["failures"] == 0
    digests = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in (f"atlas-{key}.jsonl", f"atlas-{key}-summary.csv")
    )
    pinned = (DEFAULT_BUDGET if budget == "default" else BUDGET_0)[key]
    assert digests == pinned
    if budget == "default" and key in SKIPPED:
        assert payload["oracle_skipped"] == SKIPPED[key]


@pytest.mark.parametrize("family, skipped", [("B", 0), ("C", 0), ("D", 0)])
def test_rank_five_oracle_skips(capsys, tmp_path, family, skipped):
    """The F_p checks the default 5,000-node budget still skips at rank 5,
    per family, and no check fails: an oracle change that skips more shows
    here before it shows in the benchmark."""
    code = main(["atlas", "--family", family, "--rank", "5", "--out", str(tmp_path), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (payload["oracle_skipped"], payload["failures"]) == (skipped, 0)
