"""SHA-256 digests of `simulate`, `curves` and `povm` output, pinned.

A refactor of the simulator or of the report writers must leave every byte
of these outputs unchanged. The digests were recorded with numpy 2.4.6 on
x86-64; a numpy build that rounds the outcome rows' FFTs or the offset
sampler's inverse FFT differently changes them without any change to this
package.
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
    "curves-csv": "3e4e22cbe599c517b82b33fb9ef9e921581f94df03d6cb439baf5694d058bfd8",
    "curves-json": "28e6adf4b2f7574ae01a84768719e9ee41829f7ccb58572446a62e7a02159dde",
    "measurement-analytic-a-fixed-block-plus-7": "f68de5bfb0790628a94a1d45eb8bdff72e68b3909778ab6399241f1e7a1552ea",
    "measurement-analytic-b-fixed-block-plus-7": "ab176fa1fedb8114a894da38c85102211cd48a572d286cba129060f83a66a373",
    "measurement-analytic-fixed-csv": "4401501abfc10d291964e38437e1b8bc3277164dc7b8a6264758515440fb2eab",
    "measurement-analytic-fixed-json": "a54560372a0519dfb104cb016c83fd71b3b8d82cfc382abc00db91c6e45e8901",
    "measurement-analytic-fixed-n180": "71271b4b21c0962386ef601fc6a334ded19fa34043a82e074ce7a28e3cd8226a",
    "measurement-analytic-fixed-n181": "27e23dca578705498655aebb76268a4054470bc52526b9ac7402146337b35c9f",
    "measurement-analytic-fixed-n30": "3e4274e03949019221be49ccf3d818d9a780ba7416f6b40ab213bbde95b892d4",
    "measurement-analytic-uniform-csv": "c2575b50e277b7468edbe605aed4bdffdc43a00949bca9cbbad7ca24439ff14b",
    "measurement-analytic-uniform-json": "5ffb2c0573543ffbac29149e86b4b286b39d735e4e2c157dafd406fe23e092ec",
    "measurement-analytic-uniform-n60-csv": "8b02727c5e595e47e2773cae66bbe52e14924df8bcce0e47f1adb1aed5fd6930",
    "measurement-analytic-uniform-n60-json": "fb394ad9be9a5e98ea0cdb8c44daa634d0699cfe3322e33c3207efec8b29c1a6",
    "measurement-block-plus-7-csv": "7114065416ea1e8c0c2de47f4b34903e5d3e0aa373f707250c63194b67551687",
    "measurement-block-plus-7-json": "e5453c8a8de704e3017edfccb8acd6748840368806f7196504b3d36ee0235a20",
    "measurement-full-a-fixed-block-plus-7": "8ca19b1539b61b9ca2916a8271eca3f534c3ecef1d12e7a638d3c090a91c3cf5",
    "measurement-full-b-fixed-block-plus-7": "bbdd7ac9063d9b6dc9604eafa2fcd00ccf27913dcf5ce2f1279ee41ef4fbbc74",
    "measurement-full-fixed-csv": "6f16908540663f2f9846dbf1e442d685e7f211f3eb2fa3f4d74dd80fa1f6a624",
    "measurement-full-fixed-json": "3da0c61e98f71bed5e86ef9ccda5c46ff7b0a0fe65e48d46cf625c7095a9b3f9",
    "measurement-full-uniform-csv": "55c64f7da278152d331c4a78f380bb583f6a49ead834297e2b39e1d49ae2aaa0",
    "measurement-full-uniform-json": "7b57171d54a85d367b7cfe61d7a8c49151e09878488c95f40985d1fdde373863",
    "povm-csv": "76fdf7c5c61bff4b881ff9a381dd54af5d83866bdfc604dbdb25e698079c72e9",
    "povm-json": "9ca310b5cadea70e2861d3dceff040080444500ac688ef113e0029e0a1dc6dbc",
    "unified-collective-analytic-a-fixed-block-plus-7": "831cd25daa39ba0f23bd0fd71b29f53f087387b1974e8499c30261eed182d1cb",
    "unified-collective-analytic-b-fixed-block-plus-7": "515ca61543c2f23148b523bdd8ff0c82741a0d24e9e6b4ca2ecdcd0eca193014",
    "unified-collective-analytic-fixed-csv": "62cc59b2254f506730762924d606b9f7cd64b249cabcae6f78e932f5b6bef55d",
    "unified-collective-analytic-fixed-json": "7ccd54ddac10d05ad97a341a24b5c3494baa15b930b4cbd81297a2cf79abcf92",
    "unified-collective-analytic-uniform-csv": "a8ad446b57b03a30e8b2ed67839673fbec2f87c1222d80ce10585dd6e6568309",
    "unified-collective-analytic-uniform-json": "428b24961a4a16a2cb2a274dcb511750412e9bee3c5ee44337cf6d3cc2de6530",
    "unified-collective-full-a-fixed-block-plus-7": "f16a3dda77484ea0cdeb37000a5e2a60fee465888cef89d9886bfe2379dd7f60",
    "unified-collective-full-b-fixed-block-plus-7": "3ef37650d13a0dab995b0b1d196b6b2b25dda086a9d96a9b67c29eb19104bb77",
    "unified-collective-full-fixed-csv": "e84c31812c1fce0551a39ea235d695f903edb331149e57285d396af1a2b2a6cd",
    "unified-collective-full-fixed-json": "f80b4f395daf48a32c4698f63decf28874fabd153f55295d9ba2fa0e3230e6cc",
    "unified-collective-full-fixed-n12": "de44eb75b9432f6c4137d68f0712ccf8c83059505f8ffb240a87eeebd6a63eb4",
    "unified-collective-full-uniform-csv": "e1d39ab39e3b8fcdc1f6f230224afa305de469803d20f09067a3f88f9d937b0a",
    "unified-collective-full-uniform-json": "7cbece193750ecca4e1996875cdfd4c5357d8e5a0a0870a700819080ad18dc45",
    "unified-pair-analytic-a-fixed-block-plus-7": "eaeb5308c229d740ea83594f75d5dacc127c915dc9e2132399d0838f015124c5",
    "unified-pair-analytic-b-fixed-block-plus-7": "348cce40a0169231f38c5eec3527134e2bb0b0d6c102bdbe4b084865ee564b8f",
    "unified-pair-analytic-fixed-csv": "3f8445a017447b4962e82ea619142aa020ece36f88a044940064e08f8d98ca7d",
    "unified-pair-analytic-fixed-json": "2d4d6cfe9e6d3d8999ed27f8008c6f7642530c316f08c5066f2a99aeda13fccc",
    "unified-pair-analytic-uniform-csv": "8afa5f98a5db568e74eadaab29d33eb76e3dce10b0c120d763d3ebe19b233650",
    "unified-pair-analytic-uniform-json": "5293f6f57ab3d3e4e242cbe2739578b46351c400998a477d8a438074da9fb68e",
    "unified-pair-full-a-fixed-block-plus-7": "bef2f5259689b281f5ffcb169f51a67fe30b97d1bbb99364f6c7da685a387f4c",
    "unified-pair-full-b-fixed-block-plus-7": "cb5042754fbcb1f489e5f6f772d92c396e3c1d39eda8ab296c962b419a1e2ebd",
    "unified-pair-full-fixed-csv": "bd1788c23331a7783432b2d0d47e874dfb3e6ef9c49a7e249911c2e0c3ddc9b5",
    "unified-pair-full-fixed-json": "7a7b97a873a16b2bcffc983317476c5a931a6e0d7a4d0db40491bd6d7e48bcb4",
    "unified-pair-full-fixed-block-plus-7": "bf225dc917ec180622cbf8faa8bdd6642d17b7e79f176a3127f2e6bfc91d1696",
    "unified-pair-full-uniform-csv": "b7ef28b85bc66547efe79b07ce2c3852288e830e474d1f3be16c2faf126eace4",
    "unified-pair-full-uniform-json": "7f2c43b7c04c037a09ae68cdff67081603a7041e262703705bd9dd62e61a12ea",
}


def test_every_case_has_a_digest():
    assert set(CASES) == set(DIGESTS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_pinned(name, tmp_path):
    out = tmp_path / "report"
    assert main(CASES[name] + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[name]
