"""Golden digests of the world of every strong class at n = 6 to 16.

Each entry is the SHA-256 of ``b"".join(build_world(d).counts)`` for the
canonical representative of a strong class, so a change to the engine that
moves any count at any supported modulus fails here, not only at the two
12-tone presets.
"""

import hashlib

import pytest

from counterpoint import Dichotomy, Modulus, build_world, strong_atlas

WORLD_DIGESTS = {
    (6, (0, 1, 3)): "c0f57aa40d79d31da0d45e1394ba68162c9076a2c9b8dc80033d582b6598a74a",
    (8, (0, 1, 2, 4)): "2219716a27f6caebb2bf628e2453254369ae3302db807fed4ab6eb0f6b441a9e",
    (10, (0, 1, 2, 3, 5)): "11e2a92deb79d64e2a43e94347a9f830820504412f0841da572a8a41d9d4221f",
    (10, (0, 1, 2, 4, 6)): "d1dd206ea6d37d2049b35b76c0e9fb7b76edadc45e4890c837dbcea4e19515ab",
    (10, (0, 1, 2, 5, 6)): "720749dac7a27c6bc109e4daa97c35442d6998ce3a189f23d05f5760034f8ec9",
    (12, (0, 1, 2, 3, 4, 6)): "770b5e8f2465baebc59cf5d173d755748baa354e005d47b88a75860af3bd99d4",
    (12, (0, 1, 2, 3, 5, 8)): "693bcd5276fde8a5beb042976396adf16d59412aad241a93ba768e7f8f4fe318",
    (12, (0, 1, 2, 3, 6, 7)): "20da7b0795d38468650d6ddf8f4d855d3f59f76162208457128f7beaa838169e",
    (12, (0, 1, 2, 4, 5, 8)): "0a4de85802cfc332d3c83c23be44ec25041abd69bb492c8a8b72128824c26f7c",
    (12, (0, 1, 2, 4, 6, 10)): "9d95af38c0ed5621f9a70b1fd28154f4766b0fbfd923a7906eb84d132f382497",
    (12, (0, 1, 2, 5, 6, 9)): "a9a4a25c64f28352b3a780a0d3a2b4b49a31cfd1a58cd13a351b1dae4351f3f5",
    (14, (0, 1, 2, 3, 4, 5, 7)): "995b05ff634eb7d6135cb1f25e486f795f70988555611e5bc37d31f168669a13",
    (14, (0, 1, 2, 3, 4, 6, 8)): "c918fcbaca0a883c9f43f6e4ed5f76200a65ad34b3ec5871f378c33bff5dd6bf",
    (14, (0, 1, 2, 3, 4, 7, 8)): "f674be9053858e71683801d87411c56b3cbad7b627c0f1a65bc998d6d8a22b00",
    (14, (0, 1, 2, 3, 5, 6, 9)): "10b2a8b9b07fe8b5bb03d52769ede0502f4ae582242f8d497cba3734cf64ce61",
    (14, (0, 1, 2, 3, 5, 7, 9)): "f49a67f14ddc7835c12b812790a5e6508d8b5951ec642e730820ec4e69a98711",
    (14, (0, 1, 2, 3, 5, 7, 12)): "26fe1eb6230286a27f2d312e501e5f24ff3d91e8560baac85a111fc87f7fecd1",
    (14, (0, 1, 2, 3, 7, 8, 9)): "a35b59f6239efc2c700baea3e8aebd4f598e051d1e345c867d66f83692a5dedb",
    (14, (0, 1, 2, 4, 5, 8, 12)): "5fb73a7f690817ad6871be39aff667368df1efc72ea6eeb0df7d3c9c09154025",
    (14, (0, 1, 2, 4, 6, 8, 10)): "54d9d8a652f8fa266d9dde6f678ad183620835083b05f8ec38709448da2b81fa",
    (16, (0, 1, 2, 3, 4, 5, 6, 8)): "bf662ba90eadd3675ee4bc860a2f9f63c1ca5b18077ee1304d2e4a80533f911f",
    (16, (0, 1, 2, 3, 4, 5, 7, 9)): "7472aa13f57db5773775d49e7a69c0d22abc1f6aa90f1da335f0e24aeddf1819",
    (16, (0, 1, 2, 3, 4, 5, 8, 9)): "6f8d4afb8d09a8096f0154c0d8eda3558d68cd8f69a490344b95827dcdfe249c",
    (16, (0, 1, 2, 3, 4, 6, 7, 10)): "e1dc862beee76c9e24457459d94c9006fbe5ea13b72b5c288488279c7481e404",
    (16, (0, 1, 2, 3, 4, 6, 7, 13)): "3b4cf41950a123ebf053ce7fe19b0e017cfc3d63bbbab9f28f892e5e488c4c8f",
    (16, (0, 1, 2, 3, 4, 6, 8, 10)): "ecf174115a16ee7814b9f4179342091aa48ac35eb4e44364d7021d667382ad2f",
    (16, (0, 1, 2, 3, 4, 6, 8, 14)): "9eb336cbb1c3648c155ab8021f74c2e4be899c3f0eaf96c78de727050dc65f96",
    (16, (0, 1, 2, 3, 4, 6, 12, 13)): "2f182260a4600e01ec89c6d0e6fdb294006d6ab45c1b6b720b111a784b6b72f5",
    (16, (0, 1, 2, 3, 4, 7, 9, 10)): "de095553ef08bc883a9e44594d75e503a52ba58eebb73af6c6c11495cc0ea30d",
    (16, (0, 1, 2, 3, 4, 8, 9, 10)): "d4e2b65591763218d8530b714ac44cb5f1376a4b468ab029226f3911fd8f8abe",
    (16, (0, 1, 2, 3, 5, 6, 9, 14)): "67949ad5a28aa9ea82a5b93cc02c8196d333cfc79a5d6dfa8be9ea5d994b8686",
    (16, (0, 1, 2, 3, 5, 8, 9, 11)): "7a8b93031af2bdb2a3660d9add8f33dafbac1cf8ac8743b87c46aca1f7af4fab",
    (16, (0, 1, 2, 4, 5, 6, 8, 12)): "432ad90e201bea5c29f247453d8bcbf0909959d6f2a3cc47921874962238882a",
    (16, (0, 1, 2, 4, 5, 8, 9, 12)): "5f1ffeee72d315cb72356dfa68f864d7cbc7bc6dad1d02ff059d208afd856520",
    (16, (0, 1, 2, 4, 6, 8, 10, 12)): "92e2268df585e81aa90ecf211e8a7d71da65885123725f915557909f206a1640",
}


@pytest.mark.parametrize("n", range(6, 17, 2))
def test_every_strong_class_world_matches_its_golden_digest(n):
    modulus = Modulus(n)
    reps = [tuple(c.canonical_representative) for c in strong_atlas(modulus)]
    assert sorted(reps) == sorted(rep for m, rep in WORLD_DIGESTS if m == n)
    for rep in reps:
        counts = build_world(Dichotomy(frozenset(rep), modulus)).counts
        assert hashlib.sha256(b"".join(counts)).hexdigest() == WORLD_DIGESTS[n, rep]
