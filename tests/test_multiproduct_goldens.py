"""Script print output of the benchmark's multiproduct workload, pinned
per drawn job: every script job that perfbench/workloads.py draws for the
seeds 1-5 (nine seeded chains each, the README SU(4) script and the SU(3)
8^4 print) must print exactly what it printed when these goldens were
recorded.  perfbench/refs.json pins only the anchors and seed 0.
workloads.py and passrun.py are imported read-only, as
test_perfbench_anchors.py does, so the scripts are exactly the
benchmark's."""

import hashlib
import sys
from pathlib import Path

import pytest

from liecg import cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import passrun  # noqa: E402
import workloads  # noqa: E402

# job key -> (characters, sha256) of its stdout
STDOUT_GOLDENS = {
    "ff094cf57d220007ff05": (64737, "41b4d43185ddeb536a3679a511d6e8a6"
             "0d0c13cdb0a19d84ef659992f1275bec"),
    "ec96ce43fe403ab60a41": (45645, "7a4b2f4270cdb651717af5c9b8583608"
             "d470034c7b8cafdaa4ceff86d6428fa6"),
    "f12007246f6411efd2ab": (35957, "e8bfc7a670872fbd5883e0dcb91e6ecf"
             "a7ca87abea36bf7759d6b85be368ee01"),
    "c2230d4fc6cdfde53726": (54812, "bb1bb22d52cb286c4917aab8f1f14836"
             "d5d3314f866381215963e0f74697a8fd"),
    "93d94aa0e85e9c0b46ee": (47776, "560a0777238d47b3db859678aace0ced"
             "a22f544ad934ef407c9a58bab341e6c0"),
    "4f4549f4db0353464565": (54557, "891d8a9a3bf546fe10f1e11b5bf59bf5"
             "01950c0b94cf2180b0bf19648a54cd69"),
    "93d4d7f8674ec6d7d115": (35058, "e5fd824afdc202d1254f664beef6fb46"
             "7c2ac207141803668633c8b438853c8f"),
    "378e63101420abf39030": (66529, "166d05c3c72cf4356ae8702c9e4f0e7d"
             "38c56454d0bc73b86621fc7a84a0bb04"),
    "83c22184cf8c747611a1": (38363, "8588078243abb59581048e2658081003"
             "d1d1e8b86983b69c70912873a84125d7"),
    "6a3284c495073e5482e0": (501, "dc708aea72388a86d2a45ec74515f78c"
             "5937364b6690442dd694b0285ab1df12"),
    "307c62eaf84746f7ac9d": (385433, "1fe2e8e3367be0cd926d0743c1a84030"
             "084734e60b16a78648f00bba47f15528"),
    "3931232a6535e63574c5": (42926, "7063cbb0e5a039b1f30c200dfd207304"
             "2848db6540fd54440dc0a87460cb1e2b"),
    "587d9b601ad7b89a1150": (45763, "32a7bc2e54f65f8e9db3f10b137a2748"
             "edf8783da61b02082c7448f86efaf32a"),
    "579b7b206804a34919e1": (47725, "561d7f9e835b4d5dc06dc482e7f9e940"
             "d44ffe3aa39e4482dc4760106138e8a0"),
    "e72081c875d245ea11e8": (47722, "00b867665048bc49f1dd43d4cce20abd"
             "588863695838af83f8dcc05ccf6f4888"),
    "c6fa67511632bceaae39": (48702, "6a5c704302ac12f4e52d602a45e5c0d0"
             "d40cf913337a32086899d31940765bdf"),
    "be393acab9204deedc7d": (60284, "81196ed75647333498b07a00ee18f4b6"
             "744f9803a9165732a4fc73606a8561ed"),
    "b01791569d0ef212280d": (58957, "f208ba1b42676b80226f28efffc45f71"
             "c78608fd51efb9582700a92fefa2a949"),
    "2a11eb6c6081cd915edb": (43163, "90166b7309d913f6cd68e4f7498ff8c3"
             "6da8ab1b1790afb798731e7e1d31486f"),
    "f71b923da373b844b618": (40137, "51c255e78a4797d52a986cca07b25817"
             "5c4fa2a50ce14011bb98f15aa1bca223"),
    "0a8c199c8097a1a92133": (64445, "ddcfcfda2f37d0ef4be3bedcdc01e28d"
             "d05ed6f125fc6b899d86c094353e0383"),
    "daa3fa8313993ec338f4": (35923, "4957394cf58d81864f9f9c723de17fe8"
             "158a35fd5d3137c68ba4aaed2aff86a3"),
    "d235972c4ded42e95245": (34369, "bba9f4838acf1781fbe0ea3153c03ad8"
             "ed6301d1c94ac74dcb488ace86f0a934"),
    "ab3377bbada4be711e31": (48594, "62458ffffbb1f9bec0a8961d048afe1a"
             "c21b6e1dc4d169f20643a39a182e30b0"),
    "0b9e3d1d29a593881255": (55983, "0581c6f4d37ef25c39451b6ed5a599e1"
             "7d701fa932341231fc2fd12291aca9d2"),
    "32a6bc00cb493e0958fc": (55690, "5496050c163cd06e75f92596b8a18a50"
             "b6bf09a2520e449daddd4257632911a2"),
    "cf69f49087966da1a95f": (40611, "d617b5b77052216e45565a2c6df1362f"
             "7b46e556b90754b52d40818b4252b779"),
    "01c8981b48b05f9f15e1": (35082, "7732d89c8387da31c2824199a7231a60"
             "e2dba26fd0bd6790dd203d5e75c1d6b6"),
    "2d24efd8bfb8a0679f63": (52409, "ff631f1d6f09e31cb35f5ae20dc6a02b"
             "de56c8c65a94a7879a502bfc5fa6e1d7"),
    "35e0b2e6596e66376b53": (30395, "191d07ae462104f12dca560f4aed3a31"
             "511b6166ff7b605cdd6064d0a3bdb0b1"),
    "bd26ecb83fc79fd8cbb8": (49494, "c6f4fd59a2d56e02cbcb372413052ef6"
             "09e2bf67306ffc180d28be330c269972"),
    "ec5d80467f72fb8e99f9": (41502, "d75a5abe28aca9efd8478a574ae6817c"
             "45c7e6e214c7e1e19009985b59c0b6fd"),
    "4d72ca76ede4a40cf661": (52921, "f4add234253a11f9cc7a74be4f976c56"
             "bba93af95bb34a423b937bfce6dc935a"),
    "df44b679965ca667db89": (47975, "31306ba48b462ad51258161e6ccedb0d"
             "43e457598d1b3a7134ead037c2348aa9"),
    "df4cfebb8a2c101607b1": (47309, "5ce47aca304c9dd807ee03ff2efcb2df"
             "da232c4e9facfedd1245572656abef42"),
    "97862fe9243f503eea1a": (41976, "3f1ad5468df27ee285adf3df869f9056"
             "6a007c71bdfe0b250a1fbd03ba8bec67"),
    "75311d52b75d5a282927": (58569, "c9c0358ebcb812b89d705ff53c3014f5"
             "5f989a8b8c89d521d5a80762cc722729"),
    "8b60d847afe7735e2410": (37159, "7e7d15e57789df4303194651b4799d70"
             "11029402f537253a0dc0b6104b8cc47a"),
    "596d7dfa4d0002dc0142": (31199, "d720fd4f7ba224ec8c0fbd3d1e962c76"
             "29d70d72b64317158ce2e0347cea8e06"),
    "f2e3ebefb3dd15092a83": (45229, "849d0f6d4cde6f15aef5551ccc827c96"
             "a9e365fc8d2293625cad90e53413b956"),
    "a712edcdcb08e4bf2c14": (43708, "17162c0d334a0b86867f462bdb58f0d5"
             "47d527c88bd11a4b2fc9152f34868039"),
    "901ff865366197b0a941": (49555, "d0dae59375e84ce849b08616d5528f9d"
             "09ce38160401a43010200338f8a8d033"),
    "898464b5f056b1b3885c": (60756, "91bfdd7e918f73213ebf5293a6bec666"
             "5797ebda55147609d85efe79f04861a3"),
    "2aa3f2576f89a431d6ba": (47848, "eafac8260359403d3d767135df3fa29c"
             "936f49fdd6fdccdcbcf405dc5da0db0f"),
    "1e18cd1054d8afab7bc3": (36418, "ef87a8136dc30233b4fb6d1fe923e5a5"
             "0acfad861bb71c8953005de924a029f8"),
    "153245dd2c284d80defb": (55079, "cf2524b22253485b19b6440f924385a5"
             "d6907d4c0a142a67acfa284f4ff34092"),
    "02d5ceb24addedd35bdf": (46501, "25f33081e626e6b58fcf8c18bb686b24"
             "f74b53275ffe4bbeba1bc583e2eee97f"),
}


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_multiproduct_seed_prints_golden(tmp_path, monkeypatch, seed):
    monkeypatch.chdir(tmp_path)
    jobs = workloads.make_jobs("multiproduct", seed)
    assert len(jobs) == 11
    for job in jobs:
        assert job["kind"] == "script"
        for path, text in job["files"].items():
            (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / path).write_text(text)
        _, rc, out, _ = passrun.run_job(cli, job["argv"])
        assert rc == 0, (job["argv"], rc)
        got = (len(out), hashlib.sha256(out.encode()).hexdigest())
        assert got == STDOUT_GOLDENS[job["key"]], job["files"]
