"""Pinned atlas bytes: the sha256 of every atlas JSONL and summary CSV for
B/C/D at ranks 1-7 with the default oracle budget and at ranks 1-6, 10 and
12 with ``--oracle-budget 0``, and the oracle skips per family at ranks 5
and 7 (rank 7's read from the run that its digests come from).  The atlas
is the package's behavioural contract, so a refactor must reproduce these
files byte for byte; a change that alters them on purpose updates the
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
    "B4": ("d6a1f516be1e7d339625c5ea688f41be417317dec84611c06872c185b1005744",
           "585964f6b4068c6f766189303a417ecc9cfbcd2a351fc947851dbfb4b056902c"),
    "B5": ("2e2aba7ead7a4affb3492709de2dae9f177f40d661aae77c457be3ce5c5ab899",
           "09c29ce0d1f38eecc60c57a47f065fde15d2e0eac1ab056418e9e7c0fab77ad5"),
    "B6": ("3d698a4f19c978b985b5f1cbc55bd77a1efeb2a6d2dcf7671d1d27546b14f6ba",
           "e211d09be7ad8c1e34cc4e08e6cb2db1e33728cd5056e13e905df93791de2cda"),
    "B7": ("5996bbfb9900b19e0cb5b4f9cfc60de8e476c2d0377af610fa176400f9feff28",
           "0a7e55612d3a3b4ed8b2f08b1c124cd12a671ef159a92cbde8f07b87801c3411"),
    "C1": ("1af219883d6ede3d86473c3feb96527c79c2764a4b05bcc4ae9a33bb6c4066c0",
           "a867776814eff702acb33da264c23a1eda33eb74e0a6c8dc542e66d231ff6913"),
    "C2": ("3c92d5903c8d142cef9de61d20b4d94a1385d865e9f83ec1ff4730867d7f53a4",
           "74c97d3fda8f1aa23f500e53ab86a1fd9a68ef0a0100f77c731c3197dc6aef97"),
    "C3": ("01260313476460a4af0abd4da883951f7e6b45bac9543daf01a9434fac90af28",
           "18fdd1f9bbe4ada5d409d2f262f192d53165667c4488feb11dd98ff78f83b46a"),
    "C4": ("d3c4fa58e10f7798fabb770e5de7e28a0b8b1d75f4efa232e692308ffa863a46",
           "2065f2b6938c372a6462db45c73d96278c0860adef6c3af37626531e914e6641"),
    "C5": ("f3eca71cb7c82abc2930bdec2d1a65a13bd75f66767eda33304cb25d3339a555",
           "ead2ef34333a66d8825efd18a63b6c088a1726a52613411cb2c044130d65b9b6"),
    "C6": ("6ff0cd941cd4df0352ea650d277675d1a33ec219cef3d785053275071df66fa3",
           "943fd61e7bb021908b3d6321dff788ea12471cf67528c021039273f26500416e"),
    "C7": ("7426b95357a1cf4e3fd3c9a59ad117b438ebdc166f278a7213e2ff50970c5069",
           "69c33e5a27ab3b4ef6e48846b404aa6c986f9901438b6c06a69e685f9115358d"),
    "D1": ("58b025d01ed17368ae5b9ef49f05682c8a1400ad9e7be4fd9c6b6722257e31cd",
           "d4713c7b46c41e7aee6045b3bdb1b8f813e4954020af6f70534c963caf1faec2"),
    "D2": ("5ea538acb07e25f304982b646180454ab71f515fde212310d3cf7a661e4c7d3b",
           "8fc7d2f4eb96e86da137df0df77fe5a388d2c219def5ee242e46530769e89361"),
    "D3": ("633cd82d61244b876c86d80c24134d15e6454072aa30fdb3c437fe58c4c80302",
           "24e93486f47c3b7ae524d9ff451f2450b24af72ad91bd852c5166289211b514d"),
    "D4": ("6500d4f52ebcc53a3cad0fbc816c8336355abcb7a0ffa3d1a1eeae70e3f37872",
           "7fcb004f76d4fbde7ac02e92914554eac0f7aa5b41eb15344589bd294231d70e"),
    "D5": ("f088040bc2b9c76936901a1328df7f453879844156cd41cc2846f94eb5c866c6",
           "bb9c7b98d7d2e2ce3c73b989971be3c6950850083c4f25fab84490dce6384584"),
    "D6": ("e1111bf85cfc6745935954837364bdd4ce17ff9d1a6847234ede916aaa7de4db",
           "3fe8a891bc08bb5f8e3ffe9c86dcbba1d0f631663c30e9ddb4d6a84a1cdc16f7"),
    "D7": ("a18859f9fd8cd348d4bbed5e630370302d857e319b8603610157c088e95ddc99",
           "66c55c0b3b1443a47910eff7ccc366aa539ef34b0b83b82ce65d2eef8f2a1384"),
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

# Checks the default 5,000-node budget skips at rank 7, per family.
SKIPPED = {"B7": 8, "C7": 11, "D7": 5}

CASES = [("default", key, []) for key in DEFAULT_BUDGET] + [
    ("budget0", key, ["--oracle-budget", "0"]) for key in BUDGET_0
]


@pytest.mark.parametrize("budget, key, extra", CASES, ids=[f"{b}-{k}" for b, k, _ in CASES])
def test_atlas_golden(capsys, tmp_path, monkeypatch, budget, key, extra):
    monkeypatch.delenv("NILORBIT_ORACLE_BUDGET", raising=False)
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


@pytest.mark.parametrize("family, skipped", [("B", 0), ("C", 0), ("D", 1)])
def test_rank_five_oracle_skips(capsys, tmp_path, monkeypatch, family, skipped):
    """The F_p checks the default 5,000-node budget still skips at rank 5,
    per family, and no check fails: an oracle change that skips more shows
    here before it shows in the benchmark."""
    monkeypatch.delenv("NILORBIT_ORACLE_BUDGET", raising=False)
    code = main(["atlas", "--family", family, "--rank", "5", "--out", str(tmp_path), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (payload["oracle_skipped"], payload["failures"]) == (skipped, 0)
