"""A pinned transcript of the command line: one SHA-256 per invocation.

Each entry of ``CORPUS`` is an argv list run through ``cli.main`` in
process.  Its digest covers the exit code, the standard error and the
standard output with every ``wall_time_ms`` key dropped, so a change to any
document, message or exit code shows up as a changed entry here.  Every
entry runs in this directory, so a model file of ``models/`` is named by
the same relative path wherever the suite is run from.
``python tools/transcript.py`` lists the entries that differ from
``TRANSCRIPT_SHA256``, and ``--record`` prints the table afresh.
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from dp5brauer.cli import main
from dp5brauer.model import U_QUADRIC_PAIRS, build_model, fixture
from dp5brauer.numberfield import QuinticFieldSpec

from quintics import lehmer_quintic

HEADLINE = "0,1,0,-6,0,0"
OBSTRUCTED_25 = "2,-15,0,10,0,0"
OBSTRUCTED_11 = "0,1,0,-7,0,0"
U4 = "0,0,0,0,1,0"
U5 = "0,0,0,0,0,1"
FIXTURES = ("fixture:zeta11plus", "fixture:zeta25")
# each fixture's mod-2 insolubility class and its form l1
INSOLUBLE = {"fixture:zeta11plus": "0,0,1,0,0,1", "fixture:zeta25": "0,0,1,1,0,0"}
L1 = {"fixture:zeta11plus": "1,22,-363,165,-1859,484", "fixture:zeta25": "1,25,-700,200,-3425,575"}
# model files: the ``construct`` outputs of Lehmer's n = -1 and n = 3 (one
# ramified prime, 11, and two, 11 and 41) and zeta11plus with quadric 1's
# u0*u5 coefficient raised by 1, off its chart mod 11
# (``test_the_model_files_are_rebuilt_exactly``)
MODEL_FILES = ("models/lehmer-1.json", "models/lehmer3.json", "models/zeta11plus-perturbed.json")
# a form whose verdict on the perturbed quadrics, read off the chart, would be
# obstruction_order_5
PERTURBED_H = "-13,-11,0,0,0,22"
# every prime up to 97; the large ones pin the fibers where the solver's plane t = 0 is largest
FIBER_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)

CORPUS = (
    ("construct", "--minpoly", "1,1,-4,-3,3,1"),
    ("construct", "--minpoly", "1,-20,100,-125,50,-5"),
    # Lehmer's quintics n = -4..5, reversed as ``lehmer_model`` builds them:
    # the conjugate walk behind l1 and l2 and both kernels on ten more generators
    *(("construct", "--minpoly", ",".join(map(str, lehmer_quintic(n)[::-1]))) for n in range(-4, 6)),
    *(
        ("fiber", "--model", m, "--prime", str(p), "--lines", "--singular")
        for m in FIXTURES
        for p in FIBER_PRIMES
    ),
    *(("solubility", "--model", m, "--h", HEADLINE) for m in FIXTURES),
    ("solubility", "--model", "fixture:zeta25", "--h", OBSTRUCTED_25),
    ("invariants", "--model", "fixture:zeta11plus", "--h", HEADLINE),
    ("verdict", "--model", "fixture:zeta11plus", "--h", HEADLINE),
    *(
        (command, "--model", "fixture:zeta11plus", "--h", h)
        for command in ("invariants", "verdict")
        for h in (U4, U5, OBSTRUCTED_11)
    ),
    *(
        (command, "--model", "fixture:zeta25", "--h", h)
        for command in ("invariants", "verdict")
        for h in (HEADLINE, U4, U5, OBSTRUCTED_25)
    ),
    *(
        (command, "--model", m, "--h", INSOLUBLE[m])
        for m in FIXTURES
        for command in ("verdict", "solubility")
    ),
    *(("verdict", "--model", m, "--h", L1[m]) for m in FIXTURES),
    ("invariants", "--model", "fixture:zeta11plus", "--h", "5,0,0,10,0,0"),
    ("census", "--modulus", "11", "--jobs", "1"),
    ("census", "--modulus", "25", "--jobs", "1"),
    ("census", "--model", "fixture:zeta11plus", "--modulus", "25", "--jobs", "1"),
    *(
        (command, "--model", m, "--h=" + (PERTURBED_H if "perturbed" in m else HEADLINE))
        for m in MODEL_FILES
        for command in ("invariants", "verdict")
    ),
    ("cohomology",),
    ("verify-paper", "--fast"),
    ("verify-paper",),
    # refusals
    ("construct", "--minpoly", "1,0,0,0,0,-2"),
    ("construct", "--minpoly", "1,2,3"),
    ("fiber", "--model", "fixture:zeta99", "--prime", "7"),
    ("fiber", "--model", "fixture:zeta11plus", "--prime", "4"),
    ("fiber", "--model", "fixture:zeta11plus", "--prime", "211"),
    ("solubility", "--model", "fixture:zeta11plus", "--h", "1,2,3"),
    ("solubility", "--model", "fixture:zeta11plus", "--h", "a,b,c,d,e,f"),
    ("invariants", "--model", "fixture:zeta11plus", "--h", "0,0,0,0,0,0"),
    ("invariants", "--model", "fixture:zeta25", "--h", "5,10,0,0,0,0"),
    # the option was removed; argparse refuses it as a usage error
    ("invariants", "--model", "fixture:zeta25", "--h", HEADLINE, "--modulus", "11"),
    ("verdict", "--model", "fixture:zeta25", "--h", "5,10,0,0,0,0"),
    ("verdict", "--model", "no-such-model.json", "--h", HEADLINE),
    ("fiber", "--model", "fixture:zeta11plus"),
)

TRANSCRIPT_SHA256 = {
    "construct --minpoly 1,1,-4,-3,3,1":
        "0f049666e965d2470c998fb868093da9c51e1d13d1279a9f9c457a9343856557",
    "construct --minpoly 1,-20,100,-125,50,-5":
        "8d4a82018adf8e6079d1187ad07ca9a54628028f26642aec0e81c7aa5354d9c3",
    "construct --minpoly 1,-30,57,62,16,1":
        "2b28a41031886fb0d85e77694e507b91d2631b306134392a5a394788d2edc8ac",
    "construct --minpoly 1,-11,5,20,9,1":
        "d3a9e30b04856e745807f00ff6bc0481f30f8224b850c624150e109d53fb9e86",
    "construct --minpoly 1,-2,-5,2,4,1":
        "2885efb49695d48446ec3c6ea6764dc56919729fc197f6a50d71fcd28b4ead02",
    "construct --minpoly 1,3,-3,-4,1,1":
        "d20b1d9c559a933c1cb12064f8e25dc93011a1d4978c9be20c237aa08f1f4fe5",
    "construct --minpoly 1,10,5,-10,0,1":
        "28ee075a70c6748b89a1a30955dd4175855a7c9970b61b78d569f985d95748da",
    "construct --minpoly 1,25,37,-28,1,1":
        "c5a35191b789bcd993ac8c851631e5b6ae0d543a66194f807b60f714cd38942c",
    "construct --minpoly 1,54,135,-70,4,1":
        "76c8d0297400a78a971f528dbbd3bea2a18f05da259b45122542150961d2f043",
    "construct --minpoly 1,103,365,-148,9,1":
        "19220de465b53d0dc308726d837ef8baa1c76ad4ae1cd83e5cadc9643e851333",
    "construct --minpoly 1,178,817,-274,16,1":
        "924ab987a36317f0056da2b5e119cf88660bfcb729f0bd2052c5afb50c19d398",
    "construct --minpoly 1,285,1605,-460,25,1":
        "8a39fb38cdd49f184f5c58eb62ad7017b9bc3519054688dd649a44c5bbc372a9",
    "fiber --model fixture:zeta11plus --prime 2 --lines --singular":
        "b358e877a8744f0280918b886921bf6c28604dbad9eac190e42fbebf9f6cc668",
    "fiber --model fixture:zeta11plus --prime 3 --lines --singular":
        "5ea443df5dc840c38cbfe8f0d1dab313d47364b385bc0d59e92ff811fd28f5d8",
    "fiber --model fixture:zeta11plus --prime 5 --lines --singular":
        "81a92ce87e4b97473e962335a59fdd7dcfb0ec9722a7ab521a6ced9939d5726c",
    "fiber --model fixture:zeta11plus --prime 7 --lines --singular":
        "256ac06841fadb81c1010c52b96c7efa0c42a7341dc3665738a4368101339c68",
    "fiber --model fixture:zeta11plus --prime 11 --lines --singular":
        "c0a4bcb83fec2201dd3d754f158f9afeba85fd269b51622b2bae03f6ea635aca",
    "fiber --model fixture:zeta11plus --prime 13 --lines --singular":
        "992d038bb7bc0e767edb639690ad81c5d2922f97328f39b25edf942f110614a6",
    "fiber --model fixture:zeta11plus --prime 17 --lines --singular":
        "99d11363b5cf525da45ea7b8f624aa46192bfd469bfaa923b4fc039016883279",
    "fiber --model fixture:zeta11plus --prime 19 --lines --singular":
        "5215dd96ee8f117640acc609a7bae1320de9738735834be45d7ebc3e6a9cc89a",
    "fiber --model fixture:zeta11plus --prime 23 --lines --singular":
        "2605b5653a55064f6d3205a22336ce54e88344edec514aea86ba619b744eed9e",
    "fiber --model fixture:zeta11plus --prime 29 --lines --singular":
        "fbacf8b338a48468455daa80ad25bf34be666e5d38153de0021759b4f085189b",
    "fiber --model fixture:zeta11plus --prime 31 --lines --singular":
        "172246069950341e4040daf7631cedba474674d1e2db38892e7b3edaafe130f9",
    "fiber --model fixture:zeta11plus --prime 37 --lines --singular":
        "c41259e4d7473e88050a77b285023a33e82c54a35a45a76815cc22ddaa103781",
    "fiber --model fixture:zeta11plus --prime 41 --lines --singular":
        "56eb668811b87b8447279420f80c9c5f4e916aae46e06b3723a8a9de9641cfe6",
    "fiber --model fixture:zeta11plus --prime 43 --lines --singular":
        "880c57410e32990e0fe8296b6a48554b471753fcafe12f9c8846ae956b1551e9",
    "fiber --model fixture:zeta11plus --prime 47 --lines --singular":
        "6c8b3b5e6baffea2d8ed132d2ca6898efa2ffa1eeaa84b7b4ac33ba554fb13f1",
    "fiber --model fixture:zeta11plus --prime 53 --lines --singular":
        "4c6fc707c291791a76c8e2660e645aee625b6a9bcffc736faa2ea8d5f6da4f92",
    "fiber --model fixture:zeta11plus --prime 59 --lines --singular":
        "61f413406bf88ca1de8c229abcf6c6d803199294c5458dbceb0198dd065aad86",
    "fiber --model fixture:zeta11plus --prime 61 --lines --singular":
        "c62059bccd0842620b22cf7a8bcafc8bb4981676d604a65c4ed10d2f844f2189",
    "fiber --model fixture:zeta11plus --prime 67 --lines --singular":
        "a54c322d0a20912ed90034fed4798789e4548f89968b261d55828e5389cc51d8",
    "fiber --model fixture:zeta11plus --prime 71 --lines --singular":
        "77a51e614146e159add711a9664630d58f99fc05983b6088b8745e2d93c038d1",
    "fiber --model fixture:zeta11plus --prime 73 --lines --singular":
        "afe8bbc12da7b43bb0062ef56b6fb4243dfe598da2f4f40ef1bf6854618ce797",
    "fiber --model fixture:zeta11plus --prime 79 --lines --singular":
        "69f15fd9b98d13dc2f4fee784b293d69ce6569e4c1f8a7ef363c2e8cdb76078a",
    "fiber --model fixture:zeta11plus --prime 83 --lines --singular":
        "9764934102e1332a3b8146e4fc9a2bbe810c815a758c65412b852fd141638450",
    "fiber --model fixture:zeta11plus --prime 89 --lines --singular":
        "dcf35e45d62a426b7fc348dbab3910f9869a29782afad5e524bf92ba9b2ab641",
    "fiber --model fixture:zeta11plus --prime 97 --lines --singular":
        "f1feb062b55b831764a578fe30f139bc6e1c0ff23c0cd12b647a076d71ce9fee",
    "fiber --model fixture:zeta25 --prime 2 --lines --singular":
        "b358e877a8744f0280918b886921bf6c28604dbad9eac190e42fbebf9f6cc668",
    "fiber --model fixture:zeta25 --prime 3 --lines --singular":
        "5ea443df5dc840c38cbfe8f0d1dab313d47364b385bc0d59e92ff811fd28f5d8",
    "fiber --model fixture:zeta25 --prime 5 --lines --singular":
        "281f982b1806114194ffb2949d2203317e330c8834882ff001f7a373f233438b",
    "fiber --model fixture:zeta25 --prime 7 --lines --singular":
        "b4b329c4eb563c9f9e49edfc3209c7432e3a442f351c774528710d298977eb62",
    "fiber --model fixture:zeta25 --prime 11 --lines --singular":
        "78d415dba51726c85c22220e65a8c944bb114c8aec0e0331c5dce5cd43b59b99",
    "fiber --model fixture:zeta25 --prime 13 --lines --singular":
        "992d038bb7bc0e767edb639690ad81c5d2922f97328f39b25edf942f110614a6",
    "fiber --model fixture:zeta25 --prime 17 --lines --singular":
        "99d11363b5cf525da45ea7b8f624aa46192bfd469bfaa923b4fc039016883279",
    "fiber --model fixture:zeta25 --prime 19 --lines --singular":
        "5215dd96ee8f117640acc609a7bae1320de9738735834be45d7ebc3e6a9cc89a",
    "fiber --model fixture:zeta25 --prime 23 --lines --singular":
        "b12bf04f05c21286bb4197b3cbafbeac00cf0a59e0180835c2a7ced0eee12282",
    "fiber --model fixture:zeta25 --prime 29 --lines --singular":
        "fbacf8b338a48468455daa80ad25bf34be666e5d38153de0021759b4f085189b",
    "fiber --model fixture:zeta25 --prime 31 --lines --singular":
        "172246069950341e4040daf7631cedba474674d1e2db38892e7b3edaafe130f9",
    "fiber --model fixture:zeta25 --prime 37 --lines --singular":
        "c41259e4d7473e88050a77b285023a33e82c54a35a45a76815cc22ddaa103781",
    "fiber --model fixture:zeta25 --prime 41 --lines --singular":
        "56eb668811b87b8447279420f80c9c5f4e916aae46e06b3723a8a9de9641cfe6",
    "fiber --model fixture:zeta25 --prime 43 --lines --singular":
        "fb183e0fbbf5194b3a49f4f8939b740cff621ad513a38e6b9778bcf1c956662b",
    "fiber --model fixture:zeta25 --prime 47 --lines --singular":
        "6c8b3b5e6baffea2d8ed132d2ca6898efa2ffa1eeaa84b7b4ac33ba554fb13f1",
    "fiber --model fixture:zeta25 --prime 53 --lines --singular":
        "4c6fc707c291791a76c8e2660e645aee625b6a9bcffc736faa2ea8d5f6da4f92",
    "fiber --model fixture:zeta25 --prime 59 --lines --singular":
        "61f413406bf88ca1de8c229abcf6c6d803199294c5458dbceb0198dd065aad86",
    "fiber --model fixture:zeta25 --prime 61 --lines --singular":
        "c62059bccd0842620b22cf7a8bcafc8bb4981676d604a65c4ed10d2f844f2189",
    "fiber --model fixture:zeta25 --prime 67 --lines --singular":
        "2f431dc683e452ca720f41f0e52e95ee5f4f6d2e26bef8bb84762d9bda1d419b",
    "fiber --model fixture:zeta25 --prime 71 --lines --singular":
        "77a51e614146e159add711a9664630d58f99fc05983b6088b8745e2d93c038d1",
    "fiber --model fixture:zeta25 --prime 73 --lines --singular":
        "afe8bbc12da7b43bb0062ef56b6fb4243dfe598da2f4f40ef1bf6854618ce797",
    "fiber --model fixture:zeta25 --prime 79 --lines --singular":
        "69f15fd9b98d13dc2f4fee784b293d69ce6569e4c1f8a7ef363c2e8cdb76078a",
    "fiber --model fixture:zeta25 --prime 83 --lines --singular":
        "9764934102e1332a3b8146e4fc9a2bbe810c815a758c65412b852fd141638450",
    "fiber --model fixture:zeta25 --prime 89 --lines --singular":
        "c47c3134b6a71e2360c7f332ac4b7b4e0660edcb30e808ca37de0372d3873143",
    "fiber --model fixture:zeta25 --prime 97 --lines --singular":
        "f1feb062b55b831764a578fe30f139bc6e1c0ff23c0cd12b647a076d71ce9fee",
    "solubility --model fixture:zeta11plus --h 0,1,0,-6,0,0":
        "f088495f0873641b0af031087a3b3d5b75be1ca164babc3ccb388157cfa7311c",
    "solubility --model fixture:zeta25 --h 0,1,0,-6,0,0":
        "778b8c0bdc4e9537448eb1fc13f67a1d585ab2dc874aac3e3685bbbdcd4e544f",
    "solubility --model fixture:zeta25 --h 2,-15,0,10,0,0":
        "4956d5670698db430c797c204ca56bccc1203ac07ff8df4770ad3c208133b3a5",
    "invariants --model fixture:zeta11plus --h 0,1,0,-6,0,0":
        "f67214041dbc4baae8e38d84afdf5e2e635b19310cb88fd2a92a257dbb6b65e4",
    "verdict --model fixture:zeta11plus --h 0,1,0,-6,0,0":
        "480317653eee222c4652af4e5ad5f6fa30f5bb1dedfc0c70934a6c64f63e2808",
    "invariants --model fixture:zeta11plus --h 0,0,0,0,1,0":
        "47176642ecb539c24aabad51b34e820e9e8a4de0dc989bdddd6510fa215577d1",
    "invariants --model fixture:zeta11plus --h 0,0,0,0,0,1":
        "534bbed9f88daac972e401310d1fb9a47f9697721545c02e2a6daa74217b3624",
    "invariants --model fixture:zeta11plus --h 0,1,0,-7,0,0":
        "bf8bf6b2af39299ebbc661eb4aded3ed23f4794ba8b5656ac815d495162a354d",
    "verdict --model fixture:zeta11plus --h 0,0,0,0,1,0":
        "6f2230b537d1d8752d0a060143f915f858f9924a5353bdb9977c38eed626c303",
    "verdict --model fixture:zeta11plus --h 0,0,0,0,0,1":
        "d17cb718e2952b85f67d50b52dd02a993f1679cfda57997597093d30aa9f5d98",
    "verdict --model fixture:zeta11plus --h 0,1,0,-7,0,0":
        "9ac3e3591e81d42299920f5fc59b9de4f35c6173e6717bfce56f6ee1a5abde53",
    "invariants --model fixture:zeta25 --h 0,1,0,-6,0,0":
        "b93fae5defacc149d0e56f305a8d90a512d7340d41dbbbff4f77aecb24c570ec",
    "invariants --model fixture:zeta25 --h 0,0,0,0,1,0":
        "2cc9c3e234cd21dfd163e73ea106ed501df56b6963ba9d10bd3eabf3e57c254c",
    "invariants --model fixture:zeta25 --h 0,0,0,0,0,1":
        "e15d504e911ba89a2930be2b0bd35bae31398734c586d04f285c7ec66d7c4dea",
    "invariants --model fixture:zeta25 --h 2,-15,0,10,0,0":
        "cc385143c206038d6368d4702c600f865ad2bea05ce25aec15900d08c412233c",
    "verdict --model fixture:zeta25 --h 0,1,0,-6,0,0":
        "a6a791e1cc8cb2ed6be431bbed5527d6f830b9a38f081318f3aaf8b707e38169",
    "verdict --model fixture:zeta25 --h 0,0,0,0,1,0":
        "b7ff2db034b000d239f8e04b2afa990f98a98bd4f9d2782c26d39dbed2ae21a8",
    "verdict --model fixture:zeta25 --h 0,0,0,0,0,1":
        "e322f803b7d44d18ad341b3ae47f021a0e2c95e78d1cb0cbfbfcde77635e1929",
    "verdict --model fixture:zeta25 --h 2,-15,0,10,0,0":
        "b6b24089cd567b4cc4b41eb0c1bfd2b87ae91dc160dbc342956cefa7f4a18927",
    "verdict --model fixture:zeta11plus --h 0,0,1,0,0,1":
        "35cbe8fa9de0a8f9a1657a71084902fca482b0e863095eb9edc86c1112cdcdad",
    "solubility --model fixture:zeta11plus --h 0,0,1,0,0,1":
        "59ed93b64bd1631889f2111b264d4e0fe4ef6f1e4ffdf4eacbe1e1a7dd31345c",
    "verdict --model fixture:zeta25 --h 0,0,1,1,0,0":
        "7f8388fb4ae2dc4ae921b137db2bf711568aa6051ec96193b3a1320e3348b188",
    "solubility --model fixture:zeta25 --h 0,0,1,1,0,0":
        "528d03b8a772477031924e73ff9d73156446192823bac924b7ad658ebfcc5c0c",
    "verdict --model fixture:zeta11plus --h 1,22,-363,165,-1859,484":
        "6e259f790f8de01296cd938a4cf7f58a4bbd106ec3a7241f6b92586ddc67122f",
    "verdict --model fixture:zeta25 --h 1,25,-700,200,-3425,575":
        "fc32aef1aa676b5f87f1eb4d7c85fa803862cd9222052f3f6e68b1c2ee39ae20",
    "invariants --model fixture:zeta11plus --h 5,0,0,10,0,0":
        "7b1d7985190b925bb890d8104591b7236924d7287f5ad9fcbc1dd9e9ee8e0306",
    "census --modulus 11 --jobs 1":
        "1e93353a6efbc9c8e3154e747a7c66e64e97f7c443c9147500395d4edc1b2fe2",
    "census --modulus 25 --jobs 1":
        "09a031c18bd568d0d014a31162e2458c6bf0782a065e6f5da1c3314fb6755858",
    "census --model fixture:zeta11plus --modulus 25 --jobs 1":
        "4386d27e434040738e54596a8c06fdb00436f864e650b3fb68fafcc56a6df82b",
    "invariants --model models/lehmer-1.json --h=0,1,0,-6,0,0":
        "52f0f65350fa15b321040b7fb3a8bc9d00480ebddd7e0a60162d6434a3c4a25e",
    "verdict --model models/lehmer-1.json --h=0,1,0,-6,0,0":
        "52f0f65350fa15b321040b7fb3a8bc9d00480ebddd7e0a60162d6434a3c4a25e",
    "invariants --model models/lehmer3.json --h=0,1,0,-6,0,0":
        "6dbd800709adc468134128b7fab16d8012e539a8dbed45672a96a6828c751f60",
    "verdict --model models/lehmer3.json --h=0,1,0,-6,0,0":
        "6dbd800709adc468134128b7fab16d8012e539a8dbed45672a96a6828c751f60",
    "invariants --model models/zeta11plus-perturbed.json --h=-13,-11,0,0,0,22":
        "cdbc551432d885c5afe10bd65bc68fcba86840228276a500b278258ca412a0d7",
    "verdict --model models/zeta11plus-perturbed.json --h=-13,-11,0,0,0,22":
        "cdbc551432d885c5afe10bd65bc68fcba86840228276a500b278258ca412a0d7",
    "cohomology":
        "0941285182c1e4f381628152f0bfefec676ed8990e2e71e5b36163c892050eda",
    "verify-paper --fast":
        "890a0f37bc2a2f1aeca56ae282d7fc2e9ec489f5d0727719af669aa058212978",
    "verify-paper":
        "fc0e32fb9aa48f7e98c2cccb362f7d94132c76174e1c520d68d5d58d5503e507",
    "construct --minpoly 1,0,0,0,0,-2":
        "a709c9383948bbe1898958695441bf06162402d25b563a4b09d9646d1f5ae099",
    "construct --minpoly 1,2,3":
        "7519bf4c6f97eab35fee5d1fbde19aa88eaf414d61925944e8126a668c96c4d5",
    "fiber --model fixture:zeta99 --prime 7":
        "607e77108bd1e7600dfc85877cb6b1c80e58a40f164847de530de358d3355eb1",
    "fiber --model fixture:zeta11plus --prime 4":
        "5c2f9d40810e27770598a81b96cea440686fd45075369e887b01332dcfb981c6",
    "fiber --model fixture:zeta11plus --prime 211":
        "c3606ecd02905dcfefaacaa8c937c602d148242c3c6a154012df35b89c737341",
    "solubility --model fixture:zeta11plus --h 1,2,3":
        "36d2a7b5a9c2336ef31eac46c83b38d79e84602d034d3f281721f5bf192505f0",
    "solubility --model fixture:zeta11plus --h a,b,c,d,e,f":
        "5c8bffc32877a31523eba2976e182c35c9401a7d6100ddbe0f41324c3a75b340",
    "invariants --model fixture:zeta11plus --h 0,0,0,0,0,0":
        "abac2924560e7fcd4cb45553216f9ebebeb91c5e500695489aabdde0d2958904",
    "invariants --model fixture:zeta25 --h 5,10,0,0,0,0":
        "764fd0f6ae9f10c0c35c1193e3a500db84bca09268c8b31dc0791f28647aa5c7",
    "invariants --model fixture:zeta25 --h 0,1,0,-6,0,0 --modulus 11":
        "d899fa602bc759c8a11043cd7bd9d2b1f995202f7eb829430f4fdc9e2999a90a",
    "verdict --model fixture:zeta25 --h 5,10,0,0,0,0":
        "c817547ba9060ba4435b1ffcd7bc9b5e34b33129d0790b60ed53e0d20cc99937",
    "verdict --model no-such-model.json --h 0,1,0,-6,0,0":
        "c1a72482a2da31ac808282030f55801aed91c46ea282e104792a6e777c9f7981",
    "fiber --model fixture:zeta11plus":
        "3fe3468068b2ba869b674a580e3b970d04c0484b40cc9efedd2cff9b1dc9519f",
}


def _without_wall_time(doc):
    if isinstance(doc, dict):
        return {k: _without_wall_time(v) for k, v in doc.items() if k != "wall_time_ms"}
    if isinstance(doc, list):
        return [_without_wall_time(v) for v in doc]
    return doc


def transcript(argv):
    """(exit code, stderr, stdout without ``wall_time_ms``) of one run."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(os.path.dirname(os.path.abspath(__file__)))
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(cwd)
    text = out.getvalue()
    if text:
        text = json.dumps(_without_wall_time(json.loads(text)), indent=2, sort_keys=True)
    return code, err.getvalue(), text


def digest(argv):
    return hashlib.sha256(json.dumps(transcript(argv)).encode()).hexdigest()


def test_the_corpus_has_no_duplicate_entry():
    assert len(set(CORPUS)) == len(CORPUS)


@pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
def test_transcript_is_pinned(argv):
    assert digest(argv) == TRANSCRIPT_SHA256[" ".join(argv)]


def test_the_model_files_are_rebuilt_exactly():
    # the files are what ``construct --output`` writes today, and the
    # fixture with one coefficient raised, so no entry reads a stale model
    here = os.path.dirname(os.path.abspath(__file__))

    def read(name):
        with open(os.path.join(here, name), encoding="utf-8") as fh:
            return json.load(fh)

    for name, n in zip(MODEL_FILES, (-1, 3)):
        assert read(name) == build_model(QuinticFieldSpec(lehmer_quintic(n))).to_json_dict()
    perturbed = fixture("zeta11plus").to_json_dict()
    perturbed["quadrics"][0][U_QUADRIC_PAIRS.index((0, 5))] += 1
    perturbed["source"] = "zeta11plus with quadric 1's u0*u5 coefficient raised by 1"
    assert read(MODEL_FILES[2]) == perturbed
