"""Every experiment's quick, seed-0 output, pinned by digest.

The digest covers ``render()`` — claim, headline, tables and figures — and
skips the wall-clock ``timings``.  A digest moves only with a stated change
to that experiment's output.
"""

import dataclasses
import hashlib

import pytest

from repro.experiments.runner import registered_ids

pytestmark = pytest.mark.slow

#: sha256 of ``render()`` without timings, at ``quick=True, seed=0``.
DIGESTS = {
    "E1": "129a04bf77f8a39833a3df396e4cce84515e54d2369e210036bbb2f3addfbc98",
    "E2": "74e9fe32b4cd414489009cb4138912a2a59f068535441ab6cd560575c46de1f1",
    "E3": "814484928a0c85d9e9604e49ed11295eabda8ca084f59de59afb28ef7a50dbd5",
    "E4": "9a6ec8f4bb1b42d4d36a4ddadb7b718b1dfede5a1702f81e7593fe5c147fd65f",
    "E5": "9d66486876ebb7dda5fc3dd15dcd7337dddd8b0c187c791b46c542ee6bb1537d",
    "E6": "0b7d7d98a5ca0e7e8faa32eb8df0f87d3d0892b79940bf99fb7110653bfb902d",
    "E7": "8b91c1e2b825d3e666d5614519f9d0584ea38dca0ad965622d1035c2fde698ca",
    "E8": "a9b09237fbc3b3ab9f025b9742022f16c438374c72740dfedaa1a3322dececa4",
    "E9": "f0f38a3fccf6ec73946d88661aefdf9224cca3e78226ad607c0e240b67a23467",
    "E10": "e011109c6cbc34521874f852af567224885a06558e5e189171cd21fdb29ae6ac",
    "E11": "c5227f47bfbd8e4e5ec5102d44b4f6bd68472ea46fb8bc985e0cf690329beae4",
    "E12": "2606fa860a39a44e413b57dd593ccaed0d7b5731d962a1e32239fe3c451444f5",
    "E13": "c902b689920ab061f63194f4234ce1954ae580b5c7e8e3d45d25850ebd95f61c",
    "E14": "01a8cebcf2f610ee5919e8cc94666aa00176a2e3a145074ff2bc2ebf56507a11",
    "E15": "fa466ee5e7c92ef3bea416cd074eefc1bbf8ced1268150da7e2b9ee41d177e7b",
    "E16": "5a0a31406555ecd54cf577185f88173a12a60353a3d10992a92ba53b3eaf0a44",
    "E17": "4ac96cad51d05afff76ee32a4032fb8e8b65a978c280c12d0d7c320e8fa2634d",
    "E18": "d104777b29a5ca4781f60f0e27bd656dec0d15baeaef4fc4a1aa420cfe24eef7",
    "E19": "019328257123c8622e4176ba2ef69d1ba53eb121d4bc2f091620671d8985880b",
    "E20": "3514dc0eec953e6caeb10486ccd5588fc042db19f723409d705378d388e4f4f9",
    "E21": "fc0e36db212b3ffd53d6c6840c00a9e72ed50a5ad93acc85902aae843ebc16d3",
}


def test_every_experiment_is_pinned():
    assert sorted(DIGESTS) == sorted(registered_ids())


@pytest.mark.parametrize("experiment_id", DIGESTS)
def test_quick_output_matches_digest(experiment_id, quick_run):
    rendered = dataclasses.replace(quick_run(experiment_id), timings={}).render()
    digest = hashlib.sha256(rendered.encode("utf-8")).hexdigest()
    assert digest == DIGESTS[experiment_id], (
        f"{experiment_id}'s quick output moved; it now renders:\n{rendered}"
    )
