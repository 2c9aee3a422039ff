"""Byte-identical CLI output: SHA-256 digests of stdout, pinned.

Every performance change must leave the CLI's output unchanged to the byte.
This file holds the digests of the json documents of ``table`` (both views)
for n = 2..10, ``link`` for n = 3..10, ``verify`` for n = 2..9 and one sample
each of ``gamma``, ``order`` and ``stab``.  The package version is the one
field that changes without any computation changing, so its value is replaced
by ``null`` before hashing; everything else is hashed as printed.  A mismatch
means the output changed; if that change is intended, regenerate the digests
from the new output and say why in the changelog.
"""

import hashlib

import pytest

from conres import __version__
from conres.cli import main

DIGESTS = {
    "table --n 2 --view hom --format json": "5daf84a3891fb8100ece80b423d9f70fc1334535d3c0caa6d572625a40cf769f",
    "table --n 2 --view cohom --format json": "d6bdace2239514c81031d2d15ab879077b3c742bb7eedc18a9d28e86498717c9",
    "table --n 3 --view hom --format json": "5576b10a4928f1112406f558e772f79089b902c31d0c9619c89ca375d78b69c7",
    "table --n 3 --view cohom --format json": "48dd34aaca918d949b722f50ae4ab96e6fea2cf0bafb9ee326b10e2bf54cacc0",
    "table --n 4 --view hom --format json": "48303c0be59d1c05d22cf3fcfddb3422833f3632db4f5eb92356912d0ab203ab",
    "table --n 4 --view cohom --format json": "c1337aaeafa53a198b6e5da57b6016375cb52ac449e053ba61f168531b00be87",
    "table --n 5 --view hom --format json": "d215f2c76cbbe055f47c4a1e7dae08303eaee9761334a8a3a534224f1dd06958",
    "table --n 5 --view cohom --format json": "02878d8a30039dfa3f6cc6f845ae02066c91fc16ef5364cec14eb926bd9cb8f9",
    "table --n 6 --view hom --format json": "cb6dd05c9ec5213d6a8bbcafe576235d8369aa1518d672182147c79c044399da",
    "table --n 6 --view cohom --format json": "fa61d999a43ba539968ce57ca4104d870c3c1a72dbcca7f5b693e5e1df61eb23",
    "table --n 7 --view hom --format json": "a15dc7f04ad3914088ef47666610b8c8b3a69031c37ba41965ad8c2735d321fc",
    "table --n 7 --view cohom --format json": "b2ca72fae878ca04214b820989362db3daf536b035d73b53b7c4abb529c1d920",
    "table --n 8 --view hom --format json": "94c365204f25f44a854b6c7fadcef848dae3b086ce00e26a995ef60a039f0f63",
    "table --n 8 --view cohom --format json": "4e83ee98bca663c1498a3fce1776d582dbe64a31297f446acf8579e202b6d4b4",
    "table --n 9 --view hom --format json": "d2458492ac4bb1a55cf63788f857fc459603fe0a96e634d2762bb734263151f4",
    "table --n 9 --view cohom --format json": "83e7007517b61626a028cd4a531dbd067d32fe0603c196c884fb759bd304890d",
    "table --n 10 --view hom --format json": "f102d9de086c54c159a7d16a1b6dcc17ce28b3f251b4c433e506653cf79ce3c4",
    "table --n 10 --view cohom --format json": "6d187226dd0d32a89015cadf3e3715590d73e222e0250dbdc9996dcb951deafe",
    "link --n 3 --format json": "a86f0cd96144ef9267387808e074bd6407d3a2a130b2efaec327ddccc78fe754",
    "link --n 4 --format json": "1886e603c05d468b3828000f942139c9489cda8027e0eb40baef79aa617aed4d",
    "link --n 5 --format json": "a57dfbe4880a0f612e4f4700404b6a4a3430069085ec97fa73ebcce42e1856a1",
    "link --n 6 --format json": "474949d899a2e9ee92567600feabcdf6dd4d2342e572cb71dd8f762c618f91ea",
    "link --n 7 --format json": "2aece4c149dc538576d4f772703b85fdd4cde47794ba3a92990a9eded10ce86e",
    "link --n 8 --format json": "a8e74b73be0b2145fd814907be6b9d6d6c5cd82e63257ad53823a3e4bd0a0adf",
    "link --n 9 --format json": "1bb95e6d5c6d6261d37d9a290b7c29d551df69e34a103d4909dfda6c4b72d7ce",
    "link --n 10 --format json": "769611510c8012ab7b5fdaada10d6ea66320ca55da454b121a3dd7b338c727ea",
    "verify --n 2 --format json": "46ecd3fa64efee563ea4084f72cb6250e767100d11d5d6c25d7d03623ffcdf72",
    "verify --n 3 --format json": "b71e1d5738333f0343ea698e8dd203c3fb99be0179a7d402b36b713cd854b61e",
    "verify --n 4 --format json": "c2dd7043009cf8151cec686b91bf04bc5702d53f786ce6478da55f6956549029",
    "verify --n 5 --format json": "bf43df493ef5af85d85c47ba9e78a8b04ffdcc802aae1b68955bbe25348cea3f",
    "verify --n 6 --format json": "35266c841b7e26d276e5a8e8a07819cd0db3e117882f0a38c533ba0174bbbb4c",
    "verify --n 7 --format json": "5fb7623bfc54c2601bc506a350cd9cbc0d6614aa27f5214e88fb8716d67a311a",
    "verify --n 8 --format json": "43c28fa6f85774aaba055fc634e29acfc358fabab885b72957218eae1058b410",
    "verify --n 9 --format json": "f3663b7348efc22ba9108c93ac2ca7a2e5fc3feb0f48b3d388eac098f421a0b6",
    "gamma --parts 2,2 --n 6 --character sign --format json": "929edd693b5e3fdd9cca98c339795d048d24a4082a7ff5e4e1728c8ac070e7f3",
    "order --seq 0,1,4,9,16 --format json": "586b7333b7da4eb66916feef3395a9d224dade200fa64461b5bc777a274f9195",
    "stab --parts 2 --degree 4 --format json": "9c9fa739c64c580dd90fd15f9188544424c03bae3e121ad90db2485075683907",
}


@pytest.mark.parametrize("argv", sorted(DIGESTS))
def test_cli_stdout_digest(argv, capsys):
    code = main(argv.split())
    out = capsys.readouterr().out
    assert code == 0
    stamp = f'"version": "{__version__}"'
    assert out.count(stamp) == 1
    out = out.replace(stamp, '"version": null')
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[argv]
