"""Byte-identical CLI output: SHA-256 digests of stdout, pinned.

Every performance change must leave the CLI's output unchanged to the byte.
This file holds the digests of the json documents of ``table`` (both views)
for n = 2..16, 18 and 20 (past 10 with ``--max-n``, where the free part of an
index reaches dimension 11; n = 14..16 are the largest tables of the
``table`` benchmark, and the documents of n = 18 and 20, 1.9 and 4 MB, are
the largest the table cell writer is pinned on) and by total degree for n = 5, 9
and 12, ``link`` for n = 3..10,
``verify`` for n = 2..12 (past 10 with ``--max-n``, up to the largest n of
the ``verify`` benchmark) and 16, whose oracle enumerates orbits of five
groups of three points and of eight groups of two, which no smaller pin
reaches
and one sample each of ``gamma``, ``order`` and ``stab``, and of the md and
csv renderings of ``table --n 5`` and ``table --n 16`` (both views, and by
total degree), ``table --n 9`` and ``table --n 12`` (both views),
``link --n 5``, ``verify --n 4`` and the ``gamma``, ``order`` and ``stab``
samples.  The package version is the one field that changes without any
computation changing, so in json its value is replaced by ``null`` before
hashing; everything else is hashed as printed.  A mismatch means the output
changed; if that change is intended, regenerate the digests from the new
output and say why in the changelog.
"""

import hashlib

import pytest

from conres import __version__
from conres.cli import main

DIGESTS = {
    "gamma --parts 2,2 --n 6 --character sign --format json": "929edd693b5e3fdd9cca98c339795d048d24a4082a7ff5e4e1728c8ac070e7f3",
    "link --n 10 --format json": "bb094d968d943776ff42cd2c832a46566586654c345a56a86a8763a26299d2f3",
    "link --n 3 --format json": "abfa750d8610b5814594965767be97b7896ad5fd8fb784dd1a491771d9d7fd77",
    "link --n 4 --format json": "000b7501b043744d98e5b68998874ba527614c4160a2e66c83e21c2faabb43bd",
    "link --n 5 --format json": "324ca5f67f157bd0c30c358a223f550a076ca9c5440ef9d03fc43542e6f3a4fc",
    "link --n 6 --format json": "e02c294f6f41ee08bf77d4d1917b298f6164994479d9eafceb98d6d2f054caa7",
    "link --n 7 --format json": "08170a649b4172935539fffad158bdfd12a1acca908928f8c6145b946707a215",
    "link --n 8 --format json": "284cb54029cc67863745caeb0ecb3cf772e336c3b8875a8edc87490d50417e7e",
    "link --n 9 --format json": "7d34afb64d95075ddd6dd7acd81162cc1b7c46ef9a8bb90458ca148b4e25ed0c",
    "order --seq 0,1,4,9,16 --format json": "586b7333b7da4eb66916feef3395a9d224dade200fa64461b5bc777a274f9195",
    "stab --parts 2 --degree 4 --format json": "9c9fa739c64c580dd90fd15f9188544424c03bae3e121ad90db2485075683907",
    "table --n 10 --view cohom --format json": "2be4629c16fd283c582e513ea3c98bc942798d778d0f197045372a6bdfa9ac93",
    "table --n 10 --view hom --format json": "0bf22d7de9998dbed793b953514fb4a93ff8fe9b0e4a769f1803a7e294db8bf9",
    "table --n 11 --max-n 13 --view cohom --format json": "b5371140a0c790b79150366e156589f9b2bc6d949ed5c7aa83a274840c95cd55",
    "table --n 11 --max-n 13 --view hom --format json": "953d9dbc81b1137be7f6917a6de9db7aa5dbc16da490e1c63ef707ee3049f0dc",
    "table --n 12 --max-n 13 --view cohom --format json": "a0fa6a9d25d90a86224f6eea50ee07a5e7188575a754856223f9bdeb7012cadb",
    "table --n 12 --max-n 13 --view hom --format json": "4e83ea6cfa7c3e9f517815b3f533391b41436174468bf886f70445e4c3e92899",
    "table --n 13 --max-n 13 --view cohom --format json": "0d07de872f821ea685102afa504acf6472af54f7b05f7006417af16baabfccbc",
    "table --n 13 --max-n 13 --view hom --format json": "6ebd6da7cd5a583916eb537d152174360a7487cfaa358b9f94d4c5444e59f6c5",
    "table --n 14 --max-n 16 --view cohom --format json": "a739da4000fccd98d95b6a94dcc617b34f14034f32e6734160c3a1e3c98ec0f5",
    "table --n 14 --max-n 16 --view hom --format json": "8ea7df31815ae3a2261d3561a91856b3cb422a4b600857171b9b3811a80422e0",
    "table --n 15 --max-n 16 --view cohom --format json": "b9111d2a1407be4e250d54d8a39a5ce28984e369f382cb537e63d10d93d9c5af",
    "table --n 15 --max-n 16 --view hom --format json": "f071f0769e1e97079419798b41eafdd5893312351c7464cbce88fbc2cf8b7de0",
    "table --n 16 --max-n 16 --view cohom --format json": "760d464457b5ca70b26d235f98bff5d9de765545d0584e85cfa751ac58a29b7e",
    "table --n 16 --max-n 16 --view hom --format json": "53d4ef7c95bd99f53838e2af129635f4fda3c51e43dec4d9d2a93cd1d846ce2c",
    "table --n 18 --max-n 20 --view cohom --format json": "efd2ec47a0cb1b2c6cdfbd6e5989ef7d9f5fe90183e70d183eddcc9f3aafaa82",
    "table --n 18 --max-n 20 --view hom --format json": "516256dee9e91feed37809e401885cd810208097f285960ac3b65f3ad16d6bbd",
    "table --n 20 --max-n 20 --view cohom --format json": "1560f8325b842b23a4545c883cb2343211a1886c20e9b025d0deb9945cb3b1f3",
    "table --n 20 --max-n 20 --view hom --format json": "f6eeb44b2dfb023b5af5b534f661881980ef7e7c43853f8d6fb1a35d8c7f6284",
    "table --n 2 --view cohom --format json": "04467773f6f60490c51e9c437060d98807b44ac4f90eec78f2de55be0a216df5",
    "table --n 2 --view hom --format json": "213c0118e399b141758d991cd3a5b46687febf59fa353de78f2e625b6473d0c2",
    "table --n 3 --view cohom --format json": "f11ebcfbc20730ad1da24cd305e36acac623906b6fc07a7de3cd2ad5f638f077",
    "table --n 3 --view hom --format json": "5ad5b0c3d7e4806c41e8a1ee06fa1e5f4e6a0abb6f3f4ce46cd3ad9321dcc086",
    "table --n 4 --view cohom --format json": "eade063f5e31db7da04b7ea7b8243724fb223ce2157a8608d9981ededd0e6539",
    "table --n 4 --view hom --format json": "15ab3718089325bf1d75e6adbbe13ef77c2713d82c7425b3b65733724dd37a65",
    "table --n 5 --view cohom --format json": "69bd012431ef01fcd363a55ef36f130a76dba380949b36e76aa7495d1ceb1324",
    "table --n 5 --view hom --format json": "77b7e3914bf9e42534f37ef60308dbf83c63f30b3954699874cef9444ee43e19",
    "table --n 6 --view cohom --format json": "a574b047e7546e10ee1bd3442663f4a6c2fcaa15e12ac2ec77fee22567eef3ad",
    "table --n 6 --view hom --format json": "02d07450541bb4e9434703eac659eeb742137f7ac963f5b9e6f453fca502f5b0",
    "table --n 7 --view cohom --format json": "eab02ab5e23cb67e7508d984db79c5827de9050820221e70d1ead121fae7a212",
    "table --n 7 --view hom --format json": "155f10ef9ad2a90fe355a3788839c58bb78f3cafe2cb8448e779ebc3ed4b99ac",
    "table --n 8 --view cohom --format json": "94f1598e618a056b082738ab664808c1b66fed75861b64775ce64fb4e59fc296",
    "table --n 8 --view hom --format json": "35dcc6ff6c5de51440c0a1c36c27eb424c0e8384c3b1b7b85366ee5a44294811",
    "table --n 9 --view cohom --format json": "a6b5870db0851851f54f19e3ca2dd46fcb5dcda8ac77230c35f9cf19ec99ae23",
    "table --n 9 --view hom --format json": "3dba2981d51ba78007e76fbcc1d581fc5e77a837754958ced7e0d73eb646a7f4",
    "table --n 5 --total-degree --format json": "681ce20911317371bba3a5b6dafbe5f02020316ccb4c9d22b66c771433f01c73",
    "table --n 9 --total-degree --format json": "71069d54ead8603ee9c6247d6d80dbbea50f4d37ffbab3d5a0cc7f69976b5192",
    "table --n 12 --max-n 12 --total-degree --format json": "ee1f590dc25f4a6c5a0007bcad25c179dbed6151cfcc8b200f8c8c1029c764db",
    "verify --n 2 --format json": "d7f021c38542ef779cfc654ba27ec00b176d7188c60be38255f517fc5d68e855",
    "verify --n 3 --format json": "acebc6cf059e9f43a4edeab148ce3874541f53749b4008bedd0ad05bb0c2cfcc",
    "verify --n 4 --format json": "1350494e53f50d46d55c1c8f9ab19b06785d5753c41c8f3e2506cecc9c5d81af",
    "verify --n 5 --format json": "2976d2610f0ca61a910b83573fe745d47c0b877f0a48fc23a0522ea0bdb2295b",
    "verify --n 6 --format json": "15fa881c3a471a8cf03bfd532e8f9408078f0c0ce93570c92a0501a93254064b",
    "verify --n 7 --format json": "62e009a6195682654328146161c416739c204d7b75827b8a70bd2dbbe1d067b6",
    "verify --n 8 --format json": "7118a2446371d80a9e6a922065df0ace4900e8a8dcafd33999ce65d941f045b6",
    "verify --n 9 --format json": "a178b796162374dcd7ddd1d1b2b9ff938f533c4617d430f1ced3ba4d13ba2fc0",
    "verify --n 10 --max-n 10 --format json": "3ccd44250ea2bafdcb345808c67eb1d9b2177c205cff9be4380c84fca5f4f8d9",
    "verify --n 11 --max-n 11 --format json": "21e76b203aa7f928e7dc7013a8106e30b23f2fbb27241f58d27ecabc156fb916",
    "verify --n 12 --max-n 12 --format json": "7a9c59e7dc3036f27447c3ee0cca4e17ef93b5d49aaa028aeca984a3d1bcfcfc",
    "verify --n 16 --max-n 16 --format json": "2b79c56831fc64b254d3cf96831a8edaaba2eeb42c1c58d16d1bf51ce27b6281",
    "table --n 5 --view hom --format md": "8199cbaaeb223838080dd57948bf2eb6ed971f0369354cd69aaf3913c0aae487",
    "table --n 5 --view hom --format csv": "34c42f7d35f0293ddb93b546f26c5cb831d726959276e1d5ab574d3ecd045f11",
    "table --n 5 --view cohom --format md": "ab2e8d1b62b16f71ff1dbef1c628ed8fa832a116753bc1c28375385aec0d2017",
    "table --n 5 --view cohom --format csv": "0deab3a96fea2d581cc39e0f55f0fb51c01a88444c51376179a5bddf2a4a7e72",
    "table --n 5 --total-degree --format md": "4a8f6b33c180e9dc78535578219d2ef64f9bdad3e8a5332d09b23fb0d75e1057",
    "table --n 5 --total-degree --format csv": "3110a3aa4a68d52e82d944c0fd7684ff5f809be8cc7cd3feca0e0c7b0f896e45",
    "table --n 9 --view hom --format md": "2896ce189fa57a7ae41ae3e001e580ae5506f2472c060cb4cc77c0d02250d60e",
    "table --n 9 --view hom --format csv": "1b9095e8579f63564926d0c1bb61c0037ac053523d8da77bd1542217c7ad5c5b",
    "table --n 9 --view cohom --format md": "52b5377b8efcd56cfeeb0234b0ffbd30d408d630fc38bbb1d32b6d7a1930b597",
    "table --n 9 --view cohom --format csv": "0b2c2bb9cd0f7fcd32b07ef931233b4daa8d43a120fcb2b7a4b7b28dc607a753",
    "table --n 12 --max-n 12 --view hom --format md": "0af8e3b0e28304d04e1fada7c75f042c434a0bc7874968006e59eaa94c52816f",
    "table --n 12 --max-n 12 --view hom --format csv": "208404ce6940f26b0bb3947137fd8fdd864178e5f0a6027ee155c1788b3e0c24",
    "table --n 12 --max-n 12 --view cohom --format md": "14a6d249a97f47683505aef851187b3db5ac4945fe7229fc592ee0830821efb0",
    "table --n 12 --max-n 12 --view cohom --format csv": "41c7f58544f7529f6a1304dce51f8aefe73983fd7176eef68185d5258881bd12",
    "table --n 16 --max-n 16 --view hom --format md": "9bd127b88cad0a0eed188cd5def280eec9ada5dce0a292f45239a3e8832e2bd8",
    "table --n 16 --max-n 16 --view hom --format csv": "803c56cf75c676ffbd4486003a5d62e15742aa16e7334eb0d98ee5956e2ee011",
    "table --n 16 --max-n 16 --view cohom --format md": "a735ab98220917f444211d686a41f6c9bfebffcfa409661c421957319181222b",
    "table --n 16 --max-n 16 --view cohom --format csv": "a50cb90871553057c3cc321d2c8bae16f0c22a4fbccd278ee9715315102157c1",
    "table --n 16 --max-n 16 --total-degree --format md": "da711d70281f2f5b497ce5d764fa94ce1aaa69ea53fc0ec75e0c40e2a0c4f4d7",
    "table --n 16 --max-n 16 --total-degree --format csv": "c12a7fca80b3fbd81e3971ab10018c6699ee35e0842cdcf9e9133876107ce5a0",
    "link --n 5 --format md": "7cba1dc11234be8985db9d38c7110ad0ae4875808ada185b9caec5ab4d8bd182",
    "link --n 5 --format csv": "52aa0928995835a76f0a534e58dcccbd20693f7ac1cfd6fe23836d49c289aecb",
    "verify --n 4 --format md": "7d82133399e05b3ee281e850ab395a7e825db35cd8b68fcc34b630d1cd85dd8c",
    "verify --n 4 --format csv": "60aefc0b2d1c174427a182d775211898001403b8154704c53c6ce566328591e4",
    "gamma --parts 2,2 --n 6 --character sign --format md": "36b92b5113b101d8dd2f2abdfc22a9d3018b99b3e37ad807762f12650c6e9a69",
    "gamma --parts 2,2 --n 6 --character sign --format csv": "82872dffc4e110d6d52288f39b91fbca620e00de58356cd794762637409500f6",
    "order --seq 0,1,4,9,16 --format md": "11621dcc17c61a1ea19752134ba92b5955f9855a4d8372d0aca7f13e01cfba61",
    "order --seq 0,1,4,9,16 --format csv": "8151060180c1f359f839da5185ec081293061d906669154beafb3cf905be26ec",
    "stab --parts 2 --degree 4 --format md": "430acc70bfabc26cdd4b1e649b158957ee7b9ee19407f78ff3d02ee0a301a492",
    "stab --parts 2 --degree 4 --format csv": "b82f07af83b7837fbec822720dccc61a0f28239d64c7509490257bdbcd453362",
    "stab --p -2 --q 4 --format md": "dfb4357efc85fa83fcf98b2d0993e2ec1a3f3fe8ec3a9eb069ca73a55de63c13",
    "stab --p -2 --q 4 --format csv": "ff7a9b750403809f99a3c3614b95000e215261d7e9dc0ac23aa4107ce6d7fc10",
}


@pytest.mark.parametrize("argv", sorted(DIGESTS))
def test_cli_stdout_digest(argv, capsys):
    code = main(argv.split())
    out = capsys.readouterr().out
    assert code == 0
    if argv.endswith("--format json"):
        stamp = f'"version": "{__version__}"'
        assert out.count(stamp) == 1
        out = out.replace(stamp, '"version": null')
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[argv]
