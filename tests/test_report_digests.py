"""SHA-256 digests of `simulate`, `curves`, `povm` and `verify` output, pinned.

A refactor of the simulator or of the report writers must leave every byte
of these outputs unchanged. The digests were recorded with numpy 2.4.6 on
x86-64, and are the same with numpy's AVX-512 and its AVX2 loops: S_n / 2^n
and the Dicke weights come from Python ints, correctly rounded, so the
host's SIMD no longer moves them. A numpy build that rounds the outcome
rows' FFTs or the offset sampler's inverse FFT differently still changes
them without any change to this package.
"""

import hashlib

import pytest

from eqfid.cli import main

FIXED = ["--phase-a", "0.4", "--phase-b", "1.9"]
# 65543 trials span several blocks of montecarlo.BLOCK. The case names keep
# the count these pins were recorded with: one block of 2^16, plus 7.
BLOCK_PLUS_7 = 65543
# One phase fixed and one uniform: a register shared by every trial of a
# block next to a register with a phase per trial.
HALF_FIXED = (("a-fixed", ["--phase-a", "0.4"]), ("b-fixed", ["--phase-b", "1.9"]))
# Both phases fixed, across blocks: measurement on either side of the
# simulator's outcome-cell bound, (N+1)^2 <= montecarlo.BLOCK (N = 180 and
# 181), and the full-mixed unified strategies with their perp slot.
ALL_FIXED = {
    "measurement-analytic-fixed-n30": ("measurement", "analytic", 30, 100003),
    "measurement-analytic-fixed-n180": ("measurement", "analytic", 180, BLOCK_PLUS_7),
    "measurement-analytic-fixed-n181": ("measurement", "analytic", 181, BLOCK_PLUS_7),
    "unified-collective-full-fixed-n12": ("unified-collective", "full", 12, BLOCK_PLUS_7),
    "unified-pair-full-fixed-block-plus-7": ("unified-pair", "full", 3, BLOCK_PLUS_7),
}


def _simulate(strategy, mode, phases, n=3, trials=2000, seed=17):
    return ["simulate", "--strategy", strategy, "--n", str(n), "--trials", str(trials),
            "--seed", str(seed), "--mixed-mode", mode, *phases]


CASES = {
    **{
        f"{strategy}-{mode}-{label}-{fmt}": _simulate(strategy, mode, phases) + ["--format", fmt]
        for strategy in ("measurement", "unified-pair", "unified-collective")
        for mode in ("analytic", "full")
        for label, phases in (("uniform", []), ("fixed", FIXED))
        for fmt in ("json", "csv")
    },
    **{
        f"measurement-block-plus-7-{fmt}": _simulate(
            "measurement", "analytic", [], n=2, trials=BLOCK_PLUS_7, seed=9
        ) + ["--format", fmt]
        for fmt in ("json", "csv")
    },
    **{
        f"{strategy}-{mode}-{label}-block-plus-7": _simulate(
            strategy, mode, phases, trials=BLOCK_PLUS_7
        )
        for strategy in ("measurement", "unified-pair", "unified-collective")
        for mode in ("analytic", "full")
        for label, phases in HALF_FIXED
    },
    **{
        name: _simulate(strategy, mode, FIXED, n=n, trials=trials)
        for name, (strategy, mode, n, trials) in ALL_FIXED.items()
    },
    **{
        f"measurement-analytic-uniform-n60-{fmt}": _simulate(
            "measurement", "analytic", [], n=60, trials=3000
        ) + ["--format", fmt]
        for fmt in ("json", "csv")
    },
    **{
        f"curves-{fmt}": ["curves", "--n-min", "1", "--n-max", "60", "--format", fmt]
        for fmt in ("json", "csv")
    },
    **{
        f"povm-{fmt}": ["povm", "--n", "60", "--phase", "2.5", "--format", fmt]
        for fmt in ("json", "csv")
    },
}

DIGESTS = {
    "curves-csv": "7518a54569eea19158863d5171bf9322096a76959f98574ad60c812f449161f9",
    "curves-json": "d6f59b51ce6ad48361462682df183afd585d331a98817e0b42110a1e6f721b80",
    "measurement-analytic-a-fixed-block-plus-7": "ad75141efb461fe0cfcaa3814240127f3c6c78710da77e794e1989f4f1e2ade2",
    "measurement-analytic-b-fixed-block-plus-7": "907a0cb7800e2754ed898132ad0242ed2a363bf4b75f3833ba1eed3a4f17a90c",
    "measurement-analytic-fixed-csv": "4214919e33088b44ebbc0b0d989268a42c52575d2ff3a8fbf5ccad0e44a5fe5b",
    "measurement-analytic-fixed-json": "005b95fc612f1d59e8f1135dc68c100865194fde280049cd20051365108d7fab",
    "measurement-analytic-fixed-n180": "71271b4b21c0962386ef601fc6a334ded19fa34043a82e074ce7a28e3cd8226a",
    "measurement-analytic-fixed-n181": "27e23dca578705498655aebb76268a4054470bc52526b9ac7402146337b35c9f",
    "measurement-analytic-fixed-n30": "3e4274e03949019221be49ccf3d818d9a780ba7416f6b40ab213bbde95b892d4",
    "measurement-analytic-uniform-csv": "5142ea6dc41303c2506a3d44610f6bc5ea8df51b3dc280b4eb9c4fd600267fee",
    "measurement-analytic-uniform-json": "a5d438ec780d2a96f1a6ce9440bd8c0f659ab69bf81656ba94ab4811444f6659",
    "measurement-analytic-uniform-n60-csv": "58e61b37f0279c8ade355b6d0ed3cdfd977cadc93e014f42097bca9801f4f776",
    "measurement-analytic-uniform-n60-json": "47f9de4990e852f78136606aca4446b35f9e7b4e4904d1242aa0d0047b432c6c",
    "measurement-block-plus-7-csv": "7114065416ea1e8c0c2de47f4b34903e5d3e0aa373f707250c63194b67551687",
    "measurement-block-plus-7-json": "e5453c8a8de704e3017edfccb8acd6748840368806f7196504b3d36ee0235a20",
    "measurement-full-a-fixed-block-plus-7": "f0c6f3d2dd0d602024ff9669d781a3c6f49f3cdb0eea711a8146c8ce618ccf36",
    "measurement-full-b-fixed-block-plus-7": "e5d9e881e5e8c90076812efe9f89dfee86bb0ef273ec6ccc7116179dc494a03e",
    "measurement-full-fixed-csv": "245fb8c718889dfcc5e0461424b688cde9d84bb612b535c6b0cdfb7e0981eea1",
    "measurement-full-fixed-json": "452a7a83328a409db210950e6ca3a4b680917093543c53ffc91904e8e8e7d44a",
    "measurement-full-uniform-csv": "379bc1098807ac436cfe241b841da1d69aa13e6dc3d5a6483e7ec0a19c9fe986",
    "measurement-full-uniform-json": "5e382f14bf96eec956a00a36956328d6f33e66a834fb1d8dab12009ebf46fcf5",
    "povm-csv": "f9236296bb3fcad67b67cb575e55de3ec36cd0160a015e76e4b0d8d7637f55f5",
    "povm-json": "59405668f32d42f4248ee847192c14d981bea840e65a38cf6477779c1660fe92",
    "unified-collective-analytic-a-fixed-block-plus-7": "0b5da82d5dcfddb2620f1b1d221342810798e154518a47b8fc29fb073aceb229",
    "unified-collective-analytic-b-fixed-block-plus-7": "0ad0300b50c74d1a59b9ea0208a4f3f1ea51ed45e8c5b85c03bb9b57a9752bde",
    "unified-collective-analytic-fixed-csv": "71ece45a4bfb27cff53c6ed183690d687acb06c8b3601a6b00249f396d09e592",
    "unified-collective-analytic-fixed-json": "4b35bff6cc3f227967fb4a8366a751132999afbf827440cd923f31557d7c5b5a",
    "unified-collective-analytic-uniform-csv": "fdfbd214589e0b56cfaa8e1e9b72bceab6ee7ef5ac64df146a5675459a2a56ae",
    "unified-collective-analytic-uniform-json": "72bfe099e70f4294a4fc09493840e6ae553c21d39e52e872e7a3473396fc7f4d",
    "unified-collective-full-a-fixed-block-plus-7": "326c57bde5ba48043c4394fd6f5f045ebb5b2018634b707a5522f0da71fc440c",
    "unified-collective-full-b-fixed-block-plus-7": "f3f978754b2ead62c3c34bc3dc814f88ddcf6223ba0dc5511628b4ce1ec29c01",
    "unified-collective-full-fixed-csv": "4fb290f3590522f3ac8d5a3af5724520ef82817818b8c90e2d2ae7f13667b2ff",
    "unified-collective-full-fixed-json": "fac69d582a57cd852e6999f4c6dcea2001d6c4de9ccaf09da96372b1219c0fab",
    "unified-collective-full-fixed-n12": "de44eb75b9432f6c4137d68f0712ccf8c83059505f8ffb240a87eeebd6a63eb4",
    "unified-collective-full-uniform-csv": "00cd3f8b17dd612ab833794af47e6d0a1bedcb62371943091ebb249c0dc53b56",
    "unified-collective-full-uniform-json": "2950bf6153dab8be1afde560485227a24989e9e89cb70b77b35524fea003eeaa",
    "unified-pair-analytic-a-fixed-block-plus-7": "9dd81975c5d8f497dae9df235b46dc3b7f4d388becc44ef47334471324be0d8e",
    "unified-pair-analytic-b-fixed-block-plus-7": "67118dca8564942365a77bf64b0f3d05b9c918029bdca0ae16edac8f405b794d",
    "unified-pair-analytic-fixed-csv": "68fdf59f93bb4cf3d7137ca94c84646abf72051d22fe31415b837b7c54fc2f23",
    "unified-pair-analytic-fixed-json": "3ba63608a3e14b3a96d0d17892200fd3e2535e2bf4e3084333bbf4fc67e5c2df",
    "unified-pair-analytic-uniform-csv": "8b5631ce69101ddc15d0c50fd9648433bde45cfb01dd610b0dc61aa6155f6a0c",
    "unified-pair-analytic-uniform-json": "f08fba5ac64ecb8dc8aa9e8ba6b1c4081bc0d6d9516fed8b6785cf9d7b282fde",
    "unified-pair-full-a-fixed-block-plus-7": "58825131171030d0e1604e400897233840167b148a31024b83ef3f89706d315d",
    "unified-pair-full-b-fixed-block-plus-7": "345f8afc4f4d24864e38e51e2aa8cc18edf9c70421e220fe5ff77b90209588f0",
    "unified-pair-full-fixed-csv": "a32f7e4796d396bd1a522abe700e28b1264e358a9a0440ea72506b0903d9ded7",
    "unified-pair-full-fixed-json": "c01a1d4cb20681fda80efa37f4d71ceb708034243bb2ae7d09d0c8604e94d9db",
    "unified-pair-full-fixed-block-plus-7": "6fd4761cf6f4ade6dc2e20b35472c8865e5b4a15ff0ee6651fe907bb2c4403b8",
    "unified-pair-full-uniform-csv": "99f2f80e4c071394066adc85348dc912664e5e8bed50a7a3e6f4ab0deb7822d4",
    "unified-pair-full-uniform-json": "9217386c346dd1514de9988c8be392e615f4bfaac85339fe7aa6a535d3a4ae79",
}


def test_every_case_has_a_digest():
    assert set(CASES) == set(DIGESTS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_pinned(name, tmp_path):
    out = tmp_path / "report"
    assert main(CASES[name] + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[name]


# verify has no --out; its lines carry the worst deviation of each check to
# four digits, so a change to how a check is computed shows here.
VERIFY_DIGESTS = {
    5: "95cdb5c61f157d3594cccd493641668027d7dce0824f6f9d64d25bfc3da9abf3",
    60: "8ef748d3b9ed4551e60b64abe019c5288591a61cb1d69f7eb7088c73637b829a",
}


@pytest.mark.parametrize("n_max", sorted(VERIFY_DIGESTS))
def test_verify_bytes_pinned(n_max, capsys):
    assert main(["verify", "--n-max", str(n_max)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[n_max]
