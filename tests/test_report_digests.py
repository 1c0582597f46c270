"""SHA-256 digests of `simulate`, `curves` and `povm` output, pinned.

A refactor of the simulator or of the report writers must leave every byte
of these outputs unchanged. The digests were recorded with numpy 2.4.6 on
x86-64; a numpy or BLAS build that rounds the outcome-law matrix products
differently changes them without any change to this package.
"""

import hashlib

import pytest

from eqfid.cli import main
from eqfid.montecarlo import BLOCK

FIXED = ["--phase-a", "0.4", "--phase-b", "1.9"]
# One phase fixed and one uniform: a register shared by every trial of a
# block next to a register with a phase per trial.
HALF_FIXED = (("a-fixed", ["--phase-a", "0.4"]), ("b-fixed", ["--phase-b", "1.9"]))


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
            "measurement", "analytic", [], n=2, trials=BLOCK + 7, seed=9
        ) + ["--format", fmt]
        for fmt in ("json", "csv")
    },
    **{
        f"{strategy}-{mode}-{label}-block-plus-7": _simulate(
            strategy, mode, phases, trials=BLOCK + 7
        )
        for strategy in ("measurement", "unified-pair", "unified-collective")
        for mode in ("analytic", "full")
        for label, phases in HALF_FIXED
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
    "curves-csv": "515a89a01386435aaed17420a5f699cee02fb0de15d743918804c4b23e09d423",
    "curves-json": "7f6b84f9324dec022073e15d4872161fa9d06d76048912fbeb59107d3ca5f7d5",
    "measurement-analytic-a-fixed-block-plus-7": "737b8ab1a2a95da4d4fa2b02552c37a0fc492ac4ae3d4706b1858ae75e82fc2b",
    "measurement-analytic-b-fixed-block-plus-7": "018a967a266dc482c791ba44915f6cdc031da410d9e7babf6aa49f0af1bf6c44",
    "measurement-analytic-fixed-csv": "4401501abfc10d291964e38437e1b8bc3277164dc7b8a6264758515440fb2eab",
    "measurement-analytic-fixed-json": "a54560372a0519dfb104cb016c83fd71b3b8d82cfc382abc00db91c6e45e8901",
    "measurement-analytic-uniform-csv": "1b075547b8399bffc99ffe54231460e40676ff702d5355d1ea3e5728d6d620ea",
    "measurement-analytic-uniform-json": "0fccb3484f292fbe6fc1dfee3b1316eb551303866e2f0789c8a0bf52337ff916",
    "measurement-analytic-uniform-n60-csv": "f1dacd6f2a23a21ff791e6c639a57c51edb5b5f688174d1b440d2789e13358fd",
    "measurement-analytic-uniform-n60-json": "cd7ac7399733447b94f7bd90b1752ac4ea3ef80f40b38ef63683c9ef3ac58b90",
    "measurement-block-plus-7-csv": "b38d498a294c76c396b02f12a4fe17fe945083511c2979966bbe7f9a554badf6",
    "measurement-block-plus-7-json": "4554f1090ec0c9ad3df15e4e0388a3dbdea280cf5a0a1d36595dcf04c50986c6",
    "measurement-full-a-fixed-block-plus-7": "4bbf8f5a8bcba954288ebc230cefd2104e33354a8bc963b6c1e2f9bc778545e9",
    "measurement-full-b-fixed-block-plus-7": "e814b4dad98f1e389155630b81239557b12a695f46fc5c11d5e86625327b7122",
    "measurement-full-fixed-csv": "6f16908540663f2f9846dbf1e442d685e7f211f3eb2fa3f4d74dd80fa1f6a624",
    "measurement-full-fixed-json": "3da0c61e98f71bed5e86ef9ccda5c46ff7b0a0fe65e48d46cf625c7095a9b3f9",
    "measurement-full-uniform-csv": "9ace084be17da292bb3e403af5fdb41c5b47824d21f3a83793faa13cf874499c",
    "measurement-full-uniform-json": "5f0df7e80716f3d8d2cb890ed8132483e700be23428908550e586640e7e449fc",
    "povm-csv": "37da3c43dafda0629be1a345688a1e6b4f90d236608d959c40db89acc248e8ba",
    "povm-json": "3f791b4614e25648475a9712a9fbdea3e26e69d0d67be74dfc4d1d93132af25e",
    "unified-collective-analytic-a-fixed-block-plus-7": "a7e1403f919acc295b09e61ec3eea9f7b131c5e9674b6904f1f69901cfaeadae",
    "unified-collective-analytic-b-fixed-block-plus-7": "3da064941097d6740a25f72ebc620675275716ef52b54fabb96b85635f08abae",
    "unified-collective-analytic-fixed-csv": "62cc59b2254f506730762924d606b9f7cd64b249cabcae6f78e932f5b6bef55d",
    "unified-collective-analytic-fixed-json": "7ccd54ddac10d05ad97a341a24b5c3494baa15b930b4cbd81297a2cf79abcf92",
    "unified-collective-analytic-uniform-csv": "85ee510db5eab65e38dbee17f84979732c70baed97a32ac10211de89b2e17b0a",
    "unified-collective-analytic-uniform-json": "e9dd87e15798e5f031c852ec7dda01b183513216507b3f17c078690c6c5d2abe",
    "unified-collective-full-a-fixed-block-plus-7": "d038ccbe18677394d1f51b6b94c0d819e24dcefc7d73aa0adc222043164048f6",
    "unified-collective-full-b-fixed-block-plus-7": "e8739f15c4391918601ad55906080561fa651d6943317828f0f2c3a38437e32e",
    "unified-collective-full-fixed-csv": "e84c31812c1fce0551a39ea235d695f903edb331149e57285d396af1a2b2a6cd",
    "unified-collective-full-fixed-json": "f80b4f395daf48a32c4698f63decf28874fabd153f55295d9ba2fa0e3230e6cc",
    "unified-collective-full-uniform-csv": "d723aa92d22fc2dc02c0653fe4a7f428975f6c328199128d87b529d395f5aa75",
    "unified-collective-full-uniform-json": "ac544a5da0a8d01b228b1f89cc07d1b73c846c364cb8cff5ea0711799a9ba993",
    "unified-pair-analytic-a-fixed-block-plus-7": "e90be55090a7e730662f2d97c98d8826bbd67c33ebb6d80e24150fd6f080c58a",
    "unified-pair-analytic-b-fixed-block-plus-7": "8cdb36ec3a4429c8375055383cb890c7a43b9aff522c6aca897efc4f6c84cd8d",
    "unified-pair-analytic-fixed-csv": "3f8445a017447b4962e82ea619142aa020ece36f88a044940064e08f8d98ca7d",
    "unified-pair-analytic-fixed-json": "2d4d6cfe9e6d3d8999ed27f8008c6f7642530c316f08c5066f2a99aeda13fccc",
    "unified-pair-analytic-uniform-csv": "b5ab879f0ac296a572e065462332ffd7c81324cba1e3f635828b63eeb733f1e4",
    "unified-pair-analytic-uniform-json": "6cb1516ea76195be1eaa9de27b5eef227994e040dcce0d5b8ddaeb9f240393bf",
    "unified-pair-full-a-fixed-block-plus-7": "f625ad1b5d5b4ed59178ea6baf5abd559337b637d4b2b4c6b2f0e6d2e36f6ba2",
    "unified-pair-full-b-fixed-block-plus-7": "f701181122ec1d14e2053f0f7bd29e37387c81676798dd189ed775b9ff5080b6",
    "unified-pair-full-fixed-csv": "bd1788c23331a7783432b2d0d47e874dfb3e6ef9c49a7e249911c2e0c3ddc9b5",
    "unified-pair-full-fixed-json": "7a7b97a873a16b2bcffc983317476c5a931a6e0d7a4d0db40491bd6d7e48bcb4",
    "unified-pair-full-uniform-csv": "ea107a51356b4fd594a0824d29e73caa45e266a27448e39ebc694f56b173d3e9",
    "unified-pair-full-uniform-json": "5b8739922971a68be274ccd8f1a8ec115f58b05d251c7555564d62b2f79b577d",
}


def test_every_case_has_a_digest():
    assert set(CASES) == set(DIGESTS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_pinned(name, tmp_path):
    out = tmp_path / "report"
    assert main(CASES[name] + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[name]
